"""What the benchmark's tracer (`bench/tracer.py`) reads of latinpaths.

The tracer patches functions by module and attribute name, so a rename or
a move in the package can break the benchmark while every other test
passes.  These tests only read `bench/`."""

import importlib.util
from pathlib import Path

import pytest

import latinpaths
import latinpaths.cli  # noqa: F401  loads every module the tracer patches
from latinpaths.enumeration import latin_powers, reference_powers

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_resolves(tracer):
    for module_name, attr, name, _ in tracer.PATCHES:
        module = getattr(latinpaths, module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({name})"


def test_stored_words_reads_kernel_and_reference_powers(
    tracer, four_vertex_graph, five_vertex_graph
):
    for g in (four_vertex_graph, five_vertex_graph):
        powers = latin_powers(g)
        reference = reference_powers(g)
        for k in range(1, g.n + 1):
            expected = sum(len(powers.words(k, i, j)) for i in range(g.n) for j in range(g.n))
            assert tracer.stored_words(powers.powers[k - 1]) == expected
            assert tracer.stored_words(reference[k - 1]) == expected


def test_k8_reference_counters(tracer):
    assert tracer.self_check(latinpaths) == []
