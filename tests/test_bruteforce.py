import contextlib
import io

import pytest
from hypothesis import given, settings

from latinpaths.bruteforce import (
    dfs_count_all_paths,
    dfs_elementary_circuits,
    dfs_elementary_paths,
    dfs_hamiltonian,
    dfs_power_row,
    enumerate_all_elementary,
)
from latinpaths.enumeration import (
    count_paths,
    hamiltonian_circuits,
    hamiltonian_paths,
)
from latinpaths.cli import main
from latinpaths.graph import DirectedGraph, serialize_graph
from latinpaths.reference import adjacency_matrix
from latinpaths.semiring import mat_power_left

from conftest import as_word, graphs_with_loops, kernel_entries, rendered_words

# Deeper than the interpreter's default recursion limit of 1000.  The lcdl
# kernel is O(n^3) here, so only the oracle answers these.
DEEP = 1050


@pytest.fixture
def triangle():
    # complete digraph on three vertices, no self-loops
    names = ("1", "2", "3")
    return DirectedGraph(
        names, tuple((u, v) for u in names for v in names if u != v)
    )


class TestElementaryPaths:
    def test_four_vertex(self, four_vertex_graph):
        result = dfs_elementary_paths(four_vertex_graph, "v1", "v4", 2)
        assert rendered_words(four_vertex_graph, result.words) == ["v1-v2-v4", "v1-v3-v4"]

    def test_no_arcs(self):
        g = DirectedGraph(("a", "b"), ())
        assert dfs_elementary_paths(g, "a", "b", 1).words == ()

    def test_results_validated_elementary(self, five_vertex_graph):
        succ = five_vertex_graph.successors
        for k in range(1, 5):
            result = dfs_elementary_paths(five_vertex_graph, "4", "1", k)
            for w in (list(map(ord, w)) for w in result.words):
                assert all(j in succ[i] for i, j in zip(w, w[1:]))
                assert len(set(w)) == len(w)
                assert len(w) - 1 == k

    def test_rejects_same_endpoints(self, four_vertex_graph):
        with pytest.raises(ValueError):
            dfs_elementary_paths(four_vertex_graph, "v1", "v1", 2)


class TestElementaryCircuits:
    def test_weighted_tour(self, five_vertex_graph):
        result = dfs_elementary_circuits(five_vertex_graph, "1", 5)
        assert rendered_words(five_vertex_graph, result.words) == ["1-5-4-3-2-1"]

    def test_self_loops_only_at_length_one(self, four_vertex_graph):
        result = dfs_elementary_circuits(four_vertex_graph, "v1", 1)
        assert rendered_words(four_vertex_graph, result.words) == ["v1-v1"]
        assert dfs_elementary_circuits(four_vertex_graph, "v3", 1).words == ()

    def test_triangle_three_circuits(self, triangle):
        result = dfs_elementary_circuits(triangle, "1", 3)
        assert rendered_words(triangle, result.words) == ["1-2-3-1", "1-3-2-1"]

    def test_results_validated(self, triangle):
        succ = triangle.successors
        for k in (2, 3):
            for w in (list(map(ord, w)) for w in dfs_elementary_circuits(triangle, "2", k).words):
                assert all(j in succ[i] for i, j in zip(w, w[1:]))
                assert w[0] == w[-1] and len(set(w[:-1])) == len(w) - 1
                assert len(w) - 1 == k


class TestPowerRow:
    def test_four_vertex(self, four_vertex_graph):
        row = dfs_power_row(four_vertex_graph, "v1", 2)
        # the self-loop at v1 makes no two-arc path or circuit
        assert [rendered_words(four_vertex_graph, words) for words in row] == [
            [], [], ["v1-v2-v3"], ["v1-v2-v4", "v1-v3-v4"]
        ]

    def test_power_out_of_range(self, triangle):
        for k in (0, 4):
            with pytest.raises(ValueError):
                dfs_power_row(triangle, "1", k)


class TestCountAllPaths:
    def test_four_vertex(self, four_vertex_graph):
        assert dfs_count_all_paths(four_vertex_graph, "v1", "v4", 3) == 5
        assert dfs_count_all_paths(four_vertex_graph, "v2", "v2", 3) == 1

    def test_arc_indicator(self, four_vertex_graph):
        assert dfs_count_all_paths(four_vertex_graph, "v3", "v4", 1) == 1
        assert dfs_count_all_paths(four_vertex_graph, "v4", "v1", 1) == 0

    def test_agrees_with_adjacency_powers(self, five_vertex_graph):
        g = five_vertex_graph
        adjacency = adjacency_matrix(g)
        for k in range(1, 7):
            power = mat_power_left(adjacency, k)
            for i, u in enumerate(g.vertices):
                for j, v in enumerate(g.vertices):
                    assert dfs_count_all_paths(g, u, v, k) == power.rows[i][j]

    def test_long_walks(self, triangle):
        # far beyond the interpreter's recursion limit
        for target in ("1", "2"):
            assert dfs_count_all_paths(triangle, "1", target, 2000) == count_paths(
                triangle, "1", target, 2000
            )


def ring(n: int, closed: bool) -> DirectedGraph:
    """The chain v0 -> v1 -> ... -> v(n-1), closed back to v0 if asked."""
    names = tuple(f"v{i}" for i in range(n))
    arcs = tuple(zip(names, names[1:]))
    if closed:
        arcs += ((names[-1], names[0]),)
    return DirectedGraph(names, arcs)


def run_oracle(tmp_path, graph, *query):
    path = tmp_path / "deep.txt"
    path.write_text(serialize_graph(graph))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([query[0], str(path), *query[1:], "--engine", "oracle"])
    return code, out.getvalue(), err.getvalue()


class TestDeepQueries:
    CHAIN = ring(DEEP, closed=False)
    CYCLE = ring(DEEP, closed=True)
    LAST = f"v{DEEP - 1}"

    def test_chain_path(self):
        result = dfs_elementary_paths(self.CHAIN, "v0", self.LAST, DEEP - 1)
        assert result.words == (as_word(range(DEEP)),)

    def test_chain_path_cli(self, tmp_path):
        code, out, err = run_oracle(
            tmp_path, self.CHAIN, "paths", "-i", "v0", "-j", self.LAST, "-k", str(DEEP - 1)
        )
        assert (code, out, err) == (0, "-".join(self.CHAIN.vertices) + "\n", "")

    def test_cycle_circuit(self):
        result = dfs_elementary_circuits(self.CYCLE, "v0", DEEP)
        assert result.words == (as_word([*range(DEEP), 0]),)

    def test_cycle_circuit_cli(self, tmp_path):
        code, out, err = run_oracle(tmp_path, self.CYCLE, "circuits", "-i", "v0", "-k", str(DEEP))
        assert (code, out, err) == (0, "-".join(self.CYCLE.vertices + ("v0",)) + "\n", "")


class TestHamiltonian:
    def test_matches_latin_powers(self, four_vertex_graph, five_vertex_graph, triangle, corpus):
        for g in (four_vertex_graph, five_vertex_graph, triangle, *corpus):
            assert dfs_hamiltonian(g, "path") == hamiltonian_paths(g)
            assert dfs_hamiltonian(g, "circuit") == hamiltonian_circuits(g)

    def test_single_vertex(self):
        g = DirectedGraph(("a",), (("a", "a"),))
        assert dfs_hamiltonian(g, "circuit") == [as_word((0, 0))]
        with pytest.raises(ValueError):
            dfs_hamiltonian(g, "path")


def assert_oracle_order_matches_kernel(g):
    """At every k and every pair of vertices that both engines answer, the
    oracle's words equal the kernel's as sequences: the walk yields them in
    canonical order, with no sort.  So does every row of every power, as
    `dfs_power_row` gives it."""
    powers = kernel_entries(g)
    for k in range(1, g.n + 1):
        for i, u in enumerate(g.vertices):
            row = dfs_power_row(g, u, k)
            assert list(map(tuple, row)) == list(map(tuple, powers[k - 1][i])), (g, k, i)
            for j, v in enumerate(g.vertices):
                if i == j:
                    words = dfs_elementary_circuits(g, u, k).words
                elif k < g.n:
                    words = dfs_elementary_paths(g, u, v, k).words
                else:
                    continue
                assert words == tuple(powers[k - 1][i][j]), (g, k, i, j)


class TestOrderAgainstKernel:
    def test_corpus(self, four_vertex_graph, five_vertex_graph, corpus):
        graphs = (four_vertex_graph, five_vertex_graph, *corpus)
        # k = 1 is read at vertices with a self-loop and at vertices without
        assert {i in g.successors[i] for g in graphs for i in range(g.n)} == {True, False}
        for g in graphs:
            assert_oracle_order_matches_kernel(g)

    @settings(max_examples=100, deadline=None)
    @given(graphs_with_loops(6))
    def test_random_graphs_with_loops(self, g):
        assert_oracle_order_matches_kernel(g)


class TestBulkEnumeration:
    def test_matches_single_queries(self, four_vertex_graph, five_vertex_graph, corpus):
        # the four-vertex graph has two self-loops, which close one-arc circuits
        graphs = (four_vertex_graph, five_vertex_graph, *corpus[:20])
        for g in graphs:
            # arc-length 0: the one-vertex word of each vertex
            expected = {(i, i, 0): {as_word((i,))} for i in range(g.n)}
            for i, u in enumerate(g.vertices):
                for j, v in enumerate(g.vertices):
                    for k in range(1, g.n + 1):
                        if u == v:
                            words = dfs_elementary_circuits(g, u, k).words
                        elif k <= g.n - 1:
                            words = dfs_elementary_paths(g, u, v, k).words
                        else:
                            continue
                        if words:
                            expected[i, j, k] = set(words)
            assert enumerate_all_elementary(g) == expected, g
