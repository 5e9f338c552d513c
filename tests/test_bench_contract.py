"""What the benchmark (`bench/tracer.py`, `bench/run.py`) reads of latinpaths.

The tracer patches functions by module and attribute name, and the run
renders the oracle's `matrix` answers itself, so a rename or a move in the
package can break the benchmark while every other test passes.  These
tests only read `bench/`."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import latinpaths
from latinpaths.cli import main
from latinpaths.enumeration import power_entries
from latinpaths.graph import serialize_graph
from latinpaths.reference import reference_powers

from conftest import run_python

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER_PATH = BENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_run():
    """`bench/run.py` as a module.  It imports `tracer` and `workloads` by
    bare name and turns off bytecode writing at import; both are undone."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for name in ("tracer", "workloads"):
            sys.modules.pop(name, None)
    return module


def test_every_patch_resolves(tracer):
    # this module has loaded the reference itself; see the test below for
    # a process that loads only the CLI
    for module_name, attr, name, _ in tracer.PATCHES:
        module = getattr(latinpaths, module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({name})"


def test_trace_after_importing_only_the_cli():
    """What `bench/run.py --trace 1` does, in a fresh interpreter that
    imports `latinpaths.cli` alone: resolve every patch in order (the
    reference modules load as the enumeration entries are read), then run
    the K8 self-check."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import latinpaths.cli, tracer\n"
        "pkg = sys.modules['latinpaths']\n"
        "for module_name, attr, name, _ in tracer.PATCHES:\n"
        "    assert callable(getattr(getattr(pkg, module_name), attr, None)), name\n"
        "print(tracer.self_check(pkg))\n"
    )
    # -B: write no bytecode under bench/
    done = run_python("-B", "-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_stored_words_reads_kernel_and_reference_powers(
    tracer, four_vertex_graph, five_vertex_graph
):
    # The kernel no longer has a matrix-of-entries view for `stored_words`
    # to read (nothing in the package returns one); the reference's words
    # are counted against the kernel's entries instead.
    for g in (four_vertex_graph, five_vertex_graph):
        reference = reference_powers(g)
        for k in range(1, g.n + 1):
            expected = sum(len(words) for row in power_entries(g, k) for words in row)
            assert tracer.stored_words(reference[k - 1]) == expected


def test_k8_reference_counters(tracer):
    assert tracer.self_check(latinpaths) == []


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_matrix_output_is_the_oracle_matrix_command(
    bench_run, four_vertex_graph, five_vertex_graph, corpus, tmp_path, as_json
):
    """`matrix_output` reads the oracle's `EnumerationResult.items`; it
    must print what `matrix --engine oracle` prints.  Powers 1..n-1 only:
    at k = n it asks the oracle for n-arc paths, which the oracle refuses
    (the benchmark's matrix queries use k = 2)."""
    path = tmp_path / "graph.txt"
    for graph in (four_vertex_graph, five_vertex_graph, *corpus[:6]):
        path.write_text(serialize_graph(graph), encoding="utf-8")
        for k in range(1, graph.n):
            out = io.StringIO()
            argv = ["matrix", str(path), "-k", str(k), "--engine", "oracle"]
            with contextlib.redirect_stdout(out):
                assert main(argv + ["--format", "json"] * as_json) == 0
            expected = bench_run.matrix_output(latinpaths, str(path), k, as_json)
            assert out.getvalue() == expected, (graph, k)
