"""Benchmark of the latinpaths command line on seeded workloads.

    python3 bench/run.py --workload hamiltonian_dense --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1

Run it from the root of a checkout; it imports latinpaths from src/.  A run
writes the workload's graph files from --seed, then sends the workload's
fixed query list through `latinpaths.cli.main`, in this process, one query
at a time, for about --seconds (a single closed-loop client).  Every
output is checked, after its timer stops, against the output of the DFS
oracle (`--engine oracle`) for the same query.

On a shared 2-vCPU cloud host the CPU's speed changed by up to 1.9x over
tens of seconds as other tenants loaded it, so a fixed reference loop
(calibrate) runs between queries and around every set-up.  The gated
latencies are in units of that loop ("cal"): wall_cal is the list's time
once and query_p50_cal the median query's latency, each query taken at its
median over the passes.  setup_s, the time to import latinpaths
and write the graph files, is taken the same way and given in seconds at the
loop's speed on an unloaded host.  The raw seconds are printed beside them.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the list once
untraced, then again with every traced function wrapped (see tracer.py),
and reports the per-layer metrics.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the metrics
are those BENCHMARK.json lists for the mode.  The lines before it give every
metric with its unit, including the ones BENCHMARK.json does not gate.  Run
metadata and the result, and in traced runs every span, are written under
.bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# The benchmark writes nothing outside .bench_out/, compiled bytecode included.
sys.dont_write_bytecode = True

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is repeated and its median reported: SETUP_FIRST times before the
# first pass (the first import also loads the standard-library modules
# latinpaths needs) and SETUP_PER_PASS times after each pass, so that the
# samples span the run as the host's speed changes.
SETUP_FIRST = 5
SETUP_PER_PASS = 3
# A tail percentile is reported only with at least this many samples, so
# that at least 10 lie beyond a percentile of 90 or more.
TAIL_MIN_SAMPLES = 100
DECODE_FUNCTIONS = (
    "enumeration.elementary_paths",
    "enumeration.elementary_circuits",
    "enumeration.hamiltonian_paths",
    "enumeration.hamiltonian_circuits",
)
ORACLE_FUNCTIONS = (
    "bruteforce.enumerate_all_elementary",
    "bruteforce.dfs_elementary_paths",
    "bruteforce.dfs_elementary_circuits",
    "bruteforce.dfs_count_all_paths",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup(workload: str, seed: int, directory: Path):
    """Import latinpaths afresh and write the workload's graph files."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "latinpaths"]:
        del sys.modules[name]
    cli = importlib.import_module("latinpaths.cli")
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return cli, workloads.build(workload, seed, directory)


def run_query(cli, argv):
    """Run one query through cli.main: (seconds, exit code, stdout, stderr).

    The exit code is None when the query raised instead of returning."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a failed query; the run goes on
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


# The reference loop's vertices; see calibrate().
CAL_VERTICES = tuple(f"v{i}" for i in range(1, 9))
CAL_ROUNDS = 6
# The reference loop's time on an unloaded 2-vCPU cloud host.  set-up time
# is reported in seconds at that speed (see end_to_end).
CAL_NOMINAL_S = 0.016


def calibrate() -> float:
    """Seconds of a fixed loop of the kind of work latinpaths does: tuples
    of vertex names extended one vertex at a time, with set membership
    tests, up to the 6720 elementary words of length 5 over 8 vertices,
    CAL_ROUNDS times (about 15 ms on a 2-vCPU cloud host).

    A shared host's speed changes over seconds as other tenants load it.
    Timed around a query, the loop slows with it, so the query's time over
    the loop's time is steady where the raw time is not.
    Collection is off, so the heap latinpaths leaves cannot slow the loop."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(CAL_ROUNDS):
            words = {(v,) for v in CAL_VERTICES}
            for _ in range(4):
                words = {w + (v,) for w in words for v in CAL_VERTICES if v not in w}
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    assert len(words) == 6720
    return elapsed


def run_pass(cli, queries, on_query=None):
    """Run the query list once; one (seconds, code, digest, bytes, stderr,
    reference loop seconds) per query.  The reference loop runs between
    queries, and each query gets the mean of the runs on either side."""
    results = []
    gc.collect()
    before = calibrate()
    for index, query in enumerate(queries):
        if on_query is not None:
            on_query(index)
        # Each query starts from a collected heap, as in a fresh CLI process,
        # and is not charged for collecting what earlier queries left.
        gc.collect()
        elapsed, code, out, err = run_query(cli, query.argv)
        after = calibrate()
        data = out.encode()
        results.append((elapsed, code, hashlib.sha256(data).hexdigest(), len(data), err,
                        (before + after) / 2))
        before = after
    return results


def run_passes(cli, queries, seconds, on_query=None, on_pass=None):
    """Run whole passes for about `seconds`: at least one, and another only
    while it would end by `seconds` plus half the slowest pass so far."""
    passes, longest = [], 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + longest / 2 <= seconds:
        began = time.perf_counter()
        passes.append(run_pass(cli, queries, on_query))
        longest = max(longest, time.perf_counter() - began)
        if on_pass is not None:
            on_pass()
    return passes


def matrix_output(pkg, path: str, k: int, as_json: bool) -> str:
    """The `matrix` command's output, rendered from DFS oracle results in the
    format the CLI documents."""
    with open(path, encoding="utf-8") as handle:
        graph = pkg.graph.parse_graph(handle.read())
    oracle = pkg.bruteforce
    rows = []
    for u in graph.vertices:
        row = []
        for v in graph.vertices:
            if u == v:
                items = oracle.dfs_elementary_circuits(graph, u, k).items
            else:
                items = oracle.dfs_elementary_paths(graph, u, v, k).items
            words = ", ".join("-".join(p.vertices) for p in items)
            row.append("{" + words + "}" if words else "^")
        rows.append(row)
    if as_json:
        return json.dumps({"query": {"command": "matrix", "k": k}, "rows": rows}, indent=2) + "\n"
    widths = [max(len(row[j]) for row in rows) for j in range(graph.n)]
    return "".join(
        "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip() + "\n"
        for row in rows
    )


def record_expected(cli, pkg, queries):
    """Expected stdout digest of every query that must succeed, keyed by the
    query without its engine flag, and the oracle's time for each."""
    expected, oracle_s = {}, {}
    limit = sys.getrecursionlimit()
    # dfs_count_all_paths recurses once per step; the list's longest count
    # query needs more frames than the default limit allows.
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        for query in queries:
            ref = query.reference
            if query.code != 0 or ref in expected:
                continue
            if ref[0] == "matrix":
                text = matrix_output(pkg, ref[1], int(ref[ref.index("-k") + 1]), "json" in ref)
                expected[ref] = hashlib.sha256(text.encode()).hexdigest()
                continue
            elapsed, code, out, err = run_query(cli, ref + ("--engine", "oracle"))
            if code != 0 or err:
                print(f"error: oracle failed on {' '.join(ref)}: exit {code}\n{err}", file=sys.stderr)
                expected[ref] = None
                continue
            expected[ref] = hashlib.sha256(out.encode()).hexdigest()
            oracle_s[ref] = elapsed
    finally:
        sys.setrecursionlimit(limit)
    return expected, oracle_s


def check(queries, passes, expected) -> list[str]:
    """One message per query run whose exit code or output is wrong."""
    problems = []
    for results in passes:
        for query, (_, code, digest, size, err, _) in zip(queries, results):
            if query.code == 0:
                ok = code == 0 and not err and digest == expected[query.reference]
            else:
                ok = code == query.code and size == 0 and query.stderr_has in err
            if not ok:
                problems.append(f"{' '.join(query.argv)}: exit {code}, {size} bytes, stderr {err[-300:]!r}")
    return problems


def percentile_tail(latencies):
    """(value, percentile) at the highest percentile with at least 10
    samples beyond it, or None when there are too few samples."""
    n = len(latencies)
    if n < TAIL_MIN_SAMPLES:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes, setups, peak_rss_kb):
    """End-to-end metrics, and notes on how the tail was taken.  `setups`
    holds (seconds, reference loop seconds) per set-up."""
    latencies = [r[0] for results in passes for r in results]
    # Each query's latency is its median over the passes, in seconds and in
    # reference loops: its seconds over those of the loop around it (see
    # calibrate).  The list's time is their sum, its median latency their
    # median.
    by_query = list(zip(*passes))
    seconds = [statistics.median(r[0] for r in runs) for runs in by_query]
    relative = [statistics.median(r[0] / r[5] for r in runs) for runs in by_query]
    metrics = {
        "wall_cal": (sum(relative), "cal"),
        "query_p50_cal": (statistics.median(relative), "cal"),
        "wall_s": (sum(seconds), "s"),
        "query_p50_s": (statistics.median(seconds), "s"),
        "cal_s": (statistics.median(r[5] for results in passes for r in results), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        # Set-up time is gated in seconds.  To be as steady as the latencies
        # it is taken in reference loops too, then scaled by the loop's time
        # on an unloaded host.  setup_raw_s is as measured.
        "setup_s": (statistics.median(e / c for e, c in setups) * CAL_NOMINAL_S, "s"),
        "setup_raw_s": (statistics.median(e for e, _ in setups), "s"),
    }
    notes = {}
    tail = percentile_tail(latencies)
    if tail is not None:
        metrics["query_tail_s"] = (tail[0], "s")
        notes["query_tail_s"] = f"p{tail[1]:.2f} of {len(latencies)} queries"
    return metrics, notes


def layer_values(delta: dict, results, queries_per_pass: int) -> dict:
    """Per-layer values of one traced pass from the tracer's counter deltas."""
    def self_s(name):
        return delta.get(f"{name}.self_s", 0.0)

    def calls(name):
        return delta.get(f"{name}.calls", 0)

    attempts = delta.get("compose_attempts", 0)
    kept = delta.get("compose_kept", 0)
    values = {
        "cli.self_s": (self_s("cli.main"), "s"),
        "cli.output_bytes": (sum(r[3] for r in results), "bytes"),
        "graph.parse_graph_s": (self_s("graph.parse_graph"), "s"),
        "graph.latin_matrix_s": (self_s("graph.latin_matrix"), "s"),
        "graph.path_cost_s": (self_s("graph.path_cost"), "s"),
        "graph.path_cost_calls": (calls("graph.path_cost"), "count"),
        "enumeration.latin_powers_s": (self_s("enumeration.latin_powers"), "s"),
        "enumeration.powers_built": (delta.get("powers_built", 0) / queries_per_pass, "count"),
        "enumeration.words_stored": (delta.get("words_stored", 0), "count"),
        "enumeration.words_stored_max_power": (delta["words_stored_max_power"], "count"),
        "enumeration.decode_s": (sum(self_s(name) for name in DECODE_FUNCTIONS), "s"),
        "enumeration.optimal_select_s": (self_s("enumeration.optimal_hamiltonian"), "s"),
        "enumeration.candidates": (delta.get("enumeration.candidates", 0), "count"),
        "enumeration.count_paths_s": (self_s("enumeration.count_paths"), "s"),
        "semiring.mat_mul_s": (self_s("semiring.mat_mul"), "s"),
        "semiring.mat_mul_calls": (calls("semiring.mat_mul"), "count"),
        "semiring.mat_power_left_s": (self_s("semiring.mat_power_left"), "s"),
        "languages.lang_compose_s": (self_s("languages.lang_compose"), "s"),
        "languages.lang_compose_calls": (calls("languages.lang_compose"), "count"),
        "languages.lang_union_s": (self_s("languages.lang_union"), "s"),
        "languages.lang_union_calls": (calls("languages.lang_union"), "count"),
        "words.latin_compose_s": (self_s("words.latin_compose"), "s"),
        "words.latin_compose_calls": (attempts, "count"),
        "words.compose_collapse_share": (1 - kept / attempts if attempts else 0.0, "share"),
        "trace.wall_s": (sum(r[0] for r in results), "s"),
    }
    for name in ORACLE_FUNCTIONS:
        values[f"{name}_s"] = (self_s(name), "s")
    return values


def traced_run(cli, queries, seconds):
    """One untraced pass, traced passes for `seconds`, and one pass that
    measures latin_powers memory.  Returns every pass run, the untraced
    pass, and the per-layer metrics and spans."""
    pkg = sys.modules["latinpaths"]
    untraced = run_pass(cli, queries)

    trace = tracer.Tracer()
    deltas = []
    before = {}

    def on_query(index):
        trace.query = (len(deltas), index)  # (pass, position in the list)

    def on_pass():
        nonlocal before
        after = trace.totals()
        delta = {key: value - before.get(key, 0) for key, value in after.items()}
        delta["words_stored_max_power"] = trace.max_power_words
        deltas.append(delta)
        before, trace.max_power_words = after, 0

    with trace.installed(pkg):
        traced = run_passes(cli, queries, seconds, on_query, on_pass)

    memory = []
    peak_mb = tracer.latin_powers_peak_mb(pkg, lambda: memory.append(run_pass(cli, queries)))

    per_pass = [layer_values(delta, results, len(queries)) for delta, results in zip(deltas, traced)]
    # Integer counts repeat exactly from pass to pass and stay integers.
    metrics = {}
    for name, (first, unit) in per_pass[0].items():
        middle = statistics.median_low if isinstance(first, int) else statistics.median
        metrics[name] = (middle(values[name][0] for values in per_pass), unit)
    untraced_wall = sum(r[0] for r in untraced)
    metrics["enumeration.latin_powers_peak_mb"] = (peak_mb, "MB")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced_wall, "s")
    return [untraced, *traced, *memory], untraced, metrics, trace.spans


def lcdl_over_oracle(queries, untraced, oracle_s):
    """lcdl time over oracle time on the same queries, with both bases."""
    lcdl = oracle = 0.0
    for query, result in zip(queries, untraced):
        if query.engine == "lcdl" and query.reference in oracle_s:
            lcdl += result[0]
            oracle += oracle_s[query.reference]
    return {
        "enumeration.lcdl_base_s": (lcdl, "s"),
        "bruteforce.oracle_base_s": (oracle, "s"),
        "enumeration.lcdl_over_oracle": (lcdl / oracle, "ratio"),
    }


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(package: Path) -> str:
    """sha256 over the package's .py files, to tell code versions apart
    where no git history is available."""
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_one(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    # Compile latinpaths from source on every import, as in a fresh checkout.
    sys.pycache_prefix = str(OUT / "pycache-unused")
    work = OUT / f"work-{os.getpid()}"
    try:
        setups = []

        def set_up():
            before = calibrate()
            start = time.perf_counter()
            made = setup(args.workload, args.seed, work)
            elapsed = time.perf_counter() - start
            setups.append((elapsed, (before + calibrate()) / 2))
            return made

        for _ in range(SETUP_FIRST):
            cli, queries = set_up()

        spans, notes, self_check = None, {}, []
        if args.trace:
            passes, untraced, metrics, spans = traced_run(cli, queries, args.seconds)
            self_check = tracer.self_check(sys.modules["latinpaths"])
        else:
            # The passes keep this cli; the set-ups between them import
            # latinpaths again and write the same graph files again.
            passes = run_passes(cli, queries, args.seconds,
                                on_pass=lambda: [set_up() for _ in range(SETUP_PER_PASS)])
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics, notes = end_to_end(passes, setups, peak_rss_kb)
        expected, oracle_s = record_expected(cli, sys.modules["latinpaths"], queries)
        if args.trace:
            metrics.update(lcdl_over_oracle(queries, untraced, oracle_s))
        failures = check(queries, passes, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(results) for results in passes)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC / "latinpaths"),
        "passes": len(passes),
        "queries_per_pass": len(queries),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "metrics": metrics, "attempted": attempted,
         "failures": failures, "self_check": self_check}, indent=1))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps({"fields": tracer.SPAN_FIELDS, "spans": spans}))

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for message in self_check:
        print(f"COUNTER SELF-CHECK FAILED: {message}", file=sys.stderr)
    print("meta " + json.dumps(meta))
    for name, (value, unit) in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"failed_share {len(failures) / attempted:.6g} share ({len(failures)} of {attempted})")

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": not failures and not self_check,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is the workload's own."""
    status = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "latinpaths" / "cli.py").is_file():
        print(f"error: {SRC / 'latinpaths'} not found; run from a latinpaths checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
