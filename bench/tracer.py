"""Spans and counters for latinpaths, recorded from outside the program.

`Tracer.installed(pkg)` replaces each traced function by a wrapper in the
namespace its caller looks it up in (`enumeration.mat_mul`,
`semiring.lang_compose`, `languages.latin_compose`, ...) and restores the
originals on exit.  No program file is touched.

Three kinds of wrapper:

- SPAN: one record per call (name, start, end, parent, query, self time).
- AGGREGATE: per-name call count and self time, no record; used for
  functions called thousands of times per query.
- LEAF: call count and time only, for `latin_compose`, which runs about
  1.25 million times per K8 query and calls nothing traced.

Self time is a call's duration minus the time its traced callees cover;
every wrapper adds its duration to its caller's covered time, so the
self times of all names add up to the time spent inside traced calls.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from collections import Counter, defaultdict

SPAN, AGGREGATE, LEAF = "span", "aggregate", "leaf"

# (module, attribute its caller looks up, traced name, kind).  cli calls the
# enumeration and bruteforce functions through their module objects, so one
# patch of the module attribute covers cli and enumeration's own calls.
PATCHES = (
    ("cli", "main", "cli.main", SPAN),
    ("cli", "parse_graph", "graph.parse_graph", SPAN),
    ("cli", "path_cost", "graph.path_cost", AGGREGATE),
    ("enumeration", "path_cost", "graph.path_cost", AGGREGATE),
    ("enumeration", "latin_matrix", "graph.latin_matrix", SPAN),
    ("enumeration", "adjacency_matrix", "graph.adjacency_matrix", SPAN),
    ("enumeration", "latin_powers", "enumeration.latin_powers", SPAN),
    ("enumeration", "elementary_paths", "enumeration.elementary_paths", SPAN),
    ("enumeration", "elementary_circuits", "enumeration.elementary_circuits", SPAN),
    ("enumeration", "hamiltonian_paths", "enumeration.hamiltonian_paths", SPAN),
    ("enumeration", "hamiltonian_circuits", "enumeration.hamiltonian_circuits", SPAN),
    ("enumeration", "optimal_hamiltonian", "enumeration.optimal_hamiltonian", SPAN),
    ("enumeration", "count_paths", "enumeration.count_paths", SPAN),
    ("enumeration", "mat_mul", "semiring.mat_mul", SPAN),
    ("enumeration", "mat_power_left", "semiring.mat_power_left", SPAN),
    # language_semiring() reads these two when latin_matrix builds the
    # semiring, so the matrix product calls the wrappers.
    ("semiring", "lang_compose", "languages.lang_compose", AGGREGATE),
    ("semiring", "lang_union", "languages.lang_union", AGGREGATE),
    ("languages", "latin_compose", "words.latin_compose", LEAF),
    ("bruteforce", "enumerate_all_elementary", "bruteforce.enumerate_all_elementary", SPAN),
    ("bruteforce", "dfs_elementary_paths", "bruteforce.dfs_elementary_paths", SPAN),
    ("bruteforce", "dfs_elementary_circuits", "bruteforce.dfs_elementary_circuits", SPAN),
    ("bruteforce", "dfs_count_all_paths", "bruteforce.dfs_count_all_paths", SPAN),
)

SPAN_FIELDS = ("name", "start", "end", "parent", "query", "self_s")


def stored_words(power) -> int:
    """Words stored in one latin power (a matrix of languages)."""
    return sum(len(entry.words) for row in power.rows for entry in row)


@contextlib.contextmanager
def _patched(pkg, replacements):
    """Set module attributes for the duration of the block."""
    saved = []
    try:
        for module_name, attr, value in replacements:
            module = getattr(pkg, module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Tracer:
    """Records spans and counters while installed; one instance per run."""

    def __init__(self):
        self.spans: list = []
        self.query = None  # set by the caller before each query
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        # calls by (name, innermost enclosing span name)
        self.calls_under: Counter[tuple[str, str]] = Counter()
        self.counts: Counter[str] = Counter()
        self.max_power_words = 0
        self._covered = [0.0]  # time covered by callees, one slot per open call
        self._open = [(-1, "")]  # (index, name) of open spans
        self._leaf = defaultdict(lambda: [0.0, 0])

    def _after_latin_powers(self, args, result):
        per_power = [stored_words(power) for power in result.powers]
        self.counts["powers_built"] += len(per_power)
        self.counts["words_stored"] += sum(per_power)
        self.max_power_words = max(self.max_power_words, max(per_power))

    def _after_lang_compose(self, args, result):
        l1, l2 = args
        self.counts["compose_attempts"] += len(l1.words) * len(l2.words)
        self.counts["compose_kept"] += len(result.words)

    def _wrap(self, name, fn, record, after=None):
        covered, open_spans, spans = self._covered, self._open, self.spans
        self_s, calls, calls_under = self.self_s, self.calls, self.calls_under
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            if record:
                index = len(spans)
                spans.append(None)
                open_spans.append((index, name))
            covered.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                inner = covered.pop()
                covered[-1] += end - start
                self_s[name] += end - start - inner
                calls[name] += 1
                if record:
                    open_spans.pop()
                    spans[index] = (name, start, end, open_spans[-1][0], self.query, end - start - inner)
                calls_under[name, open_spans[-1][1]] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_leaf(self, name, fn):
        covered, total = self._covered, self._leaf[name]
        perf_counter = time.perf_counter

        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            spent = perf_counter() - start
            covered[-1] += spent
            total[0] += spent
            total[1] += 1
            return result

        return wrapper

    def installed(self, pkg):
        """Context manager that traces the modules of package `pkg`."""
        after = {
            "enumeration.latin_powers": self._after_latin_powers,
            "languages.lang_compose": self._after_lang_compose,
        }
        replacements = []
        for module_name, attr, name, kind in PATCHES:
            original = getattr(getattr(pkg, module_name), attr)
            if kind == LEAF:
                wrapper = self._wrap_leaf(name, original)
            else:
                wrapper = self._wrap(name, original, kind == SPAN, after.get(name))
            replacements.append((module_name, attr, wrapper))
        return _patched(pkg, replacements)

    def totals(self) -> dict[str, float]:
        """Flat snapshot of every counter, for differences between passes."""
        out = {f"{name}.self_s": value for name, value in self.self_s.items()}
        out.update({f"{name}.calls": value for name, value in self.calls.items()})
        for name, (spent, count) in self._leaf.items():
            out[f"{name}.self_s"] = spent
            out[f"{name}.calls"] = count
        out.update(self.counts)
        out["enumeration.candidates"] = self.calls_under[
            "graph.path_cost", "enumeration.optimal_hamiltonian"
        ]
        return out


def latin_powers_peak_mb(pkg, run):
    """Largest tracemalloc peak of one latin_powers call while `run()` runs.

    Allocation tracing is on only inside latin_powers, so the rest of each
    query runs at full speed.
    """
    original = pkg.enumeration.latin_powers
    peak = 0

    def wrapper(*args, **kwargs):
        nonlocal peak
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    with _patched(pkg, [("enumeration", "latin_powers", wrapper)]):
        run()
    return peak / 2**20


# The counts the latin-power reference gives on the complete digraph K8:
# every latin_compose attempt, the words stored in powers 1..8, and the
# words kept by the products that build powers 2..8.
K8_COMPOSE_ATTEMPTS = 1_252_048
K8_WORDS_STORED = 219_184
K8_WORDS_KEPT = 219_128


def self_check(pkg) -> list[str]:
    """Build all powers of K8 with the reference left recurrence
    `L^[k] = L (x) L^[k-1]` under a fresh tracer and compare its counters
    with the known counts.  Returns one message per mismatch."""
    names = " ".join(f"v{i}" for i in range(1, 9))
    arcs = "".join(f"v{i} v{j}\n" for i in range(1, 9) for j in range(1, 9) if i != j)
    graph = pkg.graph.parse_graph(f"vertices: {names}\n{arcs}")
    trace = Tracer()
    with trace.installed(pkg):
        base = pkg.enumeration.latin_matrix(graph)
        powers = [base]
        for _ in range(graph.n - 1):
            powers.append(pkg.enumeration.mat_mul(base, powers[-1]))
    totals = trace.totals()
    stored = sum(stored_words(power) for power in powers)
    checks = (
        ("latin_compose attempts at the lang_compose boundary", totals["compose_attempts"], K8_COMPOSE_ATTEMPTS),
        ("latin_compose calls", totals["words.latin_compose.calls"], K8_COMPOSE_ATTEMPTS),
        ("stored words", stored, K8_WORDS_STORED),
        ("words kept by lang_compose", totals["compose_kept"], K8_WORDS_KEPT),
    )
    return [
        f"K8 {label}: counted {got}, expected {want}"
        for label, got, want in checks
        if got != want
    ]
