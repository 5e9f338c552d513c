import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

import latinpaths
from latinpaths.enumeration import _language_matrix, power_entries
from latinpaths.graph import DirectedGraph, parse_graph

# 4-vertex unweighted graph: dominant upper-triangular shape with two
# self-loops; it has exactly one Hamiltonian path and no circuits of
# length >= 2.
FOUR_VERTEX_TEXT = """\
# four vertices, eight arcs
vertices: v1 v2 v3 v4
v1 v1
v1 v2
v1 v3
v1 v4
v2 v2
v2 v3
v2 v4
v3 v4
"""

# 5-vertex weighted graph whose Hamiltonian circuits form one rotation class.
FIVE_VERTEX_TEXT = """\
vertices: 1 2 3 4 5
1 2 4
1 3 2
1 5 6
2 1 3
2 5 3
3 2 1
4 3 5
4 5 4
5 1 6
5 2 1
5 3 2
5 4 1
"""

CORPUS_SEED = 982451653
CORPUS_SIZE = 200
CORPUS_DENSITIES = (0.2, 0.5, 0.8)


@pytest.fixture(scope="session")
def four_vertex_graph():
    return parse_graph(FOUR_VERTEX_TEXT)


@pytest.fixture(scope="session")
def five_vertex_graph():
    return parse_graph(FIVE_VERTEX_TEXT)


def as_word(indices) -> str:
    """The word of a sequence of vertex indices: chr(i) per index i, so
    that a literal such as (0, 1, 2) can stand for the word of v1 v2 v3."""
    return "".join(map(chr, indices))


def rendered_words(graph: DirectedGraph, words) -> list[str]:
    """Words as path texts, "v1-v2-v3", in the order given."""
    return ["-".join(graph.vertices[ord(c)] for c in w) for w in words]


def word_of(graph: DirectedGraph, text: str) -> str:
    """The word of the path written `text`, "v1-v2-v3"."""
    return as_word(graph.vertices.index(v) for v in text.split("-"))


def kernel_entries(graph: DirectedGraph) -> list:
    """Every entry of powers 1..n as the kernel gives them:
    `kernel_entries(g)[k - 1][i][j]` is `power_entries(g, k)[i][j]`."""
    return [power_entries(graph, k) for k in range(1, graph.n + 1)]


def language_power(graph: DirectedGraph, k: int):
    """The kernel's k-th power as a matrix of distinguished languages, the
    form of `reference_powers`, from what `power_entries` gives `matrix`."""
    return _language_matrix(graph.vertices, power_entries(graph, k))


def random_graph(rng: random.Random, n: int, density: float) -> DirectedGraph:
    names = tuple(f"v{i}" for i in range(1, n + 1))
    arcs = tuple(
        (u, v) for u in names for v in names if rng.random() < density
    )
    return DirectedGraph(names, arcs)


def graphs_with_loops(max_n: int):
    """Graphs on v0..v{n-1}, n in 1..max_n, with any arcs, self-loops too."""

    def build(shape):
        n, arcs = shape
        names = tuple(f"v{i}" for i in range(n))
        return DirectedGraph(names, tuple((names[u], names[v]) for u, v in sorted(arcs)))

    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
        )
    ).map(build)


def build_corpus() -> list[DirectedGraph]:
    rng = random.Random(CORPUS_SEED)
    graphs = []
    for _ in range(CORPUS_SIZE):
        n = rng.randint(2, 7)
        density = rng.choice(CORPUS_DENSITIES)
        graphs.append(random_graph(rng, n, density))
    return graphs


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


def source_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports latinpaths from
    this source tree."""
    source_root = str(Path(latinpaths.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source_root, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def run_python(*argv) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports latinpaths from this source tree."""
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=source_env(),
        timeout=60,
    )
