import random
import sys
import time
import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinpaths import enumeration
from latinpaths.bruteforce import dfs_count_all_paths, dfs_hamiltonian
from latinpaths.enumeration import (
    WordLimitError,
    _count_by_squaring,
    _count_by_steps,
    count_paths,
    elementary_circuits,
    elementary_paths,
    hamiltonian,
    hamiltonian_circuits,
    hamiltonian_paths,
    held_karp,
    latin_powers,
    max_length_elementary,
    optimal_hamiltonian,
    power_entries,
)
from latinpaths.graph import DirectedGraph
from latinpaths.reference import (
    adjacency_matrix,
    count_paths_reference,
    decode_word,
    encode_path,
    latin_matrix,
    reference_powers,
)
from latinpaths.semiring import mat_mul

from conftest import (
    as_word,
    graphs_with_loops,
    kernel_entries,
    language_power,
    rendered_words,
    word_of,
)


class TestPowersFourVertex:
    def test_square(self, four_vertex_graph):
        rendered = [[e.render() for e in row] for row in language_power(four_vertex_graph, 2).rows]
        assert rendered == [
            ["^", "^", "{v1-v2-v3}", "{v1-v2-v4, v1-v3-v4}"],
            ["^", "^", "^", "{v2-v3-v4}"],
            ["^", "^", "^", "^"],
            ["^", "^", "^", "^"],
        ]

    def test_cube(self, four_vertex_graph):
        cube = language_power(four_vertex_graph, 3)
        assert cube.rows[0][3].render() == "{v1-v2-v3-v4}"
        others = [
            cube.rows[i][j]
            for i in range(4)
            for j in range(4)
            if (i, j) != (0, 3)
        ]
        assert all(e.is_zero for e in others)

    def test_fourth_power_all_zero(self, four_vertex_graph):
        assert all(e.is_zero for row in language_power(four_vertex_graph, 4).rows for e in row)

    def test_power_beyond_n_is_zero(self, four_vertex_graph):
        beyond = mat_mul(latin_matrix(four_vertex_graph), language_power(four_vertex_graph, 4))
        assert all(e.is_zero for row in beyond.rows for e in row)


class TestElementaryPaths:
    def test_length_two(self, four_vertex_graph):
        result = elementary_paths(four_vertex_graph, "v1", "v4", 2)
        assert result == (as_word((0, 1, 3)), as_word((0, 2, 3)))
        assert rendered_words(four_vertex_graph, result) == ["v1-v2-v4", "v1-v3-v4"]

    def test_length_three(self, four_vertex_graph):
        result = elementary_paths(four_vertex_graph, "v1", "v4", 3)
        assert rendered_words(four_vertex_graph, result) == ["v1-v2-v3-v4"]

    def test_empty_entry(self, four_vertex_graph):
        assert elementary_paths(four_vertex_graph, "v3", "v2", 1) == ()

    def test_source_equals_target_rejected(self, four_vertex_graph):
        with pytest.raises(ValueError):
            elementary_paths(four_vertex_graph, "v1", "v1", 2)

    def test_length_out_of_range(self, four_vertex_graph):
        with pytest.raises(ValueError):
            elementary_paths(four_vertex_graph, "v1", "v4", 4)
        with pytest.raises(ValueError):
            elementary_paths(four_vertex_graph, "v1", "v4", 0)

    def test_unknown_vertex(self, four_vertex_graph):
        with pytest.raises(ValueError):
            elementary_paths(four_vertex_graph, "vx", "v4", 2)


class TestElementaryCircuits:
    def test_no_long_circuits(self, four_vertex_graph):
        for start in four_vertex_graph.vertices:
            for k in range(2, 5):
                assert elementary_circuits(four_vertex_graph, start, k) == ()

    def test_self_loop(self, four_vertex_graph):
        result = elementary_circuits(four_vertex_graph, "v1", 1)
        assert rendered_words(four_vertex_graph, result) == ["v1-v1"]

    def test_full_tour(self, five_vertex_graph):
        result = elementary_circuits(five_vertex_graph, "1", 5)
        assert rendered_words(five_vertex_graph, result) == ["1-5-4-3-2-1"]

    def test_length_out_of_range(self, four_vertex_graph):
        with pytest.raises(ValueError):
            elementary_circuits(four_vertex_graph, "v1", 5)


class TestHamiltonian:
    def test_single_path(self, four_vertex_graph):
        assert hamiltonian_paths(four_vertex_graph) == [as_word((0, 1, 2, 3))]

    def test_weighted_circuits_form_one_rotation_class(self, five_vertex_graph):
        # the paper's worked example prints only 4 of these and an empty
        # (3,3) entry in the 5th power; recomputation (and the brute-force
        # oracle) shows the rotation through vertex 3 exists as well
        g = five_vertex_graph
        circuits = rendered_words(g, hamiltonian_circuits(g))
        assert circuits == [
            "1-5-4-3-2-1",
            "2-1-5-4-3-2",
            "3-2-1-5-4-3",
            "4-3-2-1-5-4",
            "5-4-3-2-1-5",
        ]
        rotations = {tuple(c.split("-")[:-1]) for c in circuits}
        base = ("1", "5", "4", "3", "2")
        expected = {base[i:] + base[:i] for i in range(5)}
        assert rotations == expected

    def test_no_arcs(self):
        g = DirectedGraph(("a", "b"), ())
        assert hamiltonian_paths(g) == []
        assert hamiltonian_circuits(g) == []

    def test_single_vertex_self_loop_circuit(self):
        g = DirectedGraph(("a",), (("a", "a"),))
        assert hamiltonian_circuits(g) == [as_word((0, 0))]

    def test_paths_need_two_vertices(self):
        g = DirectedGraph(("a",), (("a", "a"),))
        with pytest.raises(ValueError):
            hamiltonian_paths(g)


class TestMaxLength:
    def test_paths(self, four_vertex_graph):
        k, result = max_length_elementary(four_vertex_graph, "v2", "v4")
        assert k == 2
        assert rendered_words(four_vertex_graph, result) == ["v2-v3-v4"]

    def test_circuits_capped_at_self_loops(self, four_vertex_graph):
        k, result = max_length_elementary(four_vertex_graph, "v1")
        assert k == 1
        assert rendered_words(four_vertex_graph, result) == ["v1-v1"]

    def test_none_when_unreachable(self, four_vertex_graph):
        assert max_length_elementary(four_vertex_graph, "v4", "v1") is None
        assert max_length_elementary(four_vertex_graph, "v4") is None


class TestCountPaths:
    def test_known_counts(self, four_vertex_graph):
        assert count_paths(four_vertex_graph, "v1", "v4", 3) == 5
        assert count_paths(four_vertex_graph, "v2", "v2", 3) == 1

    def test_single_arc_indicator(self, four_vertex_graph):
        assert count_paths(four_vertex_graph, "v3", "v4", 1) == 1
        assert count_paths(four_vertex_graph, "v4", "v3", 1) == 0

    def test_counts_at_least_elementary(self, four_vertex_graph):
        g = four_vertex_graph
        powers = kernel_entries(g)
        for i in g.vertices:
            for j in g.vertices:
                if i == j:
                    continue
                for k in range(1, g.n):
                    elem = powers[k - 1][g.index(i)][g.index(j)]
                    assert count_paths(g, i, j, k) >= len(elem)

    def test_exact_big_integers(self):
        # dense graph: entries overflow 64-bit quickly, ints must stay exact
        names = tuple(f"v{i}" for i in range(1, 8))
        g = DirectedGraph(names, tuple((u, v) for u in names for v in names))
        assert count_paths(g, "v1", "v1", 40) == 7**39

    def test_zero_length_rejected(self, four_vertex_graph):
        with pytest.raises(ValueError):
            count_paths(four_vertex_graph, "v1", "v4", 0)
        with pytest.raises(ValueError):
            count_paths_reference(four_vertex_graph, "v1", "v4", 0)

    @pytest.mark.parametrize("source, k, message", [
        ("v1", 0, "path length must be at least 1"),
        ("v1", -3, "path length must be at least 1"),
        ("nope", 1, "unknown vertex 'nope'"),
        ("nope", 0, "path length must be at least 1"),  # k before names
    ])
    def test_reference_and_oracle_refuse_alike(self, four_vertex_graph, source, k, message):
        for count in (count_paths, count_paths_reference, dfs_count_all_paths):
            with pytest.raises(ValueError) as refused:
                count(four_vertex_graph, source, "v4", k)
            assert str(refused.value) == message, count.__name__

    def test_matches_adjacency_powers_on_corpus(self, corpus):
        # one (source, target) pair per length, cycling through all pairs
        for g in corpus:
            pairs = [(i, j) for i in range(g.n) for j in range(g.n)]
            adjacency = adjacency_matrix(g)
            power = adjacency
            for k in range(1, 61):
                if k > 1:
                    power = mat_mul(adjacency, power)
                i, j = pairs[k % len(pairs)]
                u, v = g.vertices[i], g.vertices[j]
                assert count_paths(g, u, v, k) == power.rows[i][j], (g, u, v, k)

    def test_closed_form_on_k5(self):
        # walks of length k between two distinct vertices of K5
        g = complete_digraph(5)
        for k in (1, 2, 3, 7, 30):
            expected = (4**k - (-1) ** k) // 5
            assert count_paths(g, "v1", "v2", k) == expected
            assert count_paths_reference(g, "v1", "v2", k) == expected
        assert count_paths(g, "v1", "v2", 8000) == (4**8000 - 1) // 5

    def test_closed_form_on_k9_by_squaring(self, monkeypatch):
        # 15 squarings of 9^3 products against 30,000 steps of 72 additions
        monkeypatch.setattr(enumeration, "_count_by_steps", refuse)
        k = 30_000
        assert count_paths(complete_digraph(9), "v1", "v2", k) == (8**k - (-1) ** k) // 9

    def test_sparse_graph_at_moderate_length_by_squaring(self, monkeypatch):
        # 12 vertices, 24 arcs, k = 200: 6 squarings of 144 sum calls and 4
        # column products of 12, against 199 steps of 12 sum calls; counting
        # the sum calls decides it, as for the count queries of this shape
        names = tuple(f"v{i}" for i in range(12))
        g = DirectedGraph(
            names, tuple((u, names[(i + d) % 12]) for i, u in enumerate(names) for d in (1, 3))
        )
        expected = _count_by_steps(g, 0, 4, 200)
        monkeypatch.setattr(enumeration, "_count_by_steps", refuse)
        assert count_paths(g, "v0", "v4", 200) == expected > 0

    def test_long_chain_stays_on_steps(self, monkeypatch):
        # squaring 1,000 x 1,000 matrices would take about 10^9 products each
        monkeypatch.setattr(enumeration, "_count_by_squaring", refuse)
        names = tuple(f"v{i}" for i in range(1000))
        g = DirectedGraph(names, tuple(zip(names, names[1:])))
        assert count_paths(g, "v0", "v3", 3) == 1
        assert count_paths(g, "v0", "v999", 999) == 1


class TestOptimalHamiltonian:
    def test_max_path(self, five_vertex_graph):
        g = five_vertex_graph
        best = optimal_hamiltonian(g, "path", hamiltonian, "max", start="4", end="1")
        assert best == (word_of(g, "4-3-2-5-1"), 15)

    def test_min_path(self, five_vertex_graph):
        g = five_vertex_graph
        best = optimal_hamiltonian(g, "path", hamiltonian, "min", start="4", end="1")
        assert best == (word_of(g, "4-5-3-2-1"), 10)

    def test_circuit_from_vertex(self, five_vertex_graph):
        g = five_vertex_graph
        for objective in ("min", "max"):
            for ends in ({"start": "1"}, {"end": "1"}, {"start": "1", "end": "1"}):
                best = optimal_hamiltonian(g, "circuit", hamiltonian, objective, **ends)
                assert best == (word_of(g, "1-5-4-3-2-1"), 16)

    def test_no_candidates(self):
        g = DirectedGraph(("a", "b"), (("a", "b"),), (1.0,))
        assert optimal_hamiltonian(g, "circuit", hamiltonian) is None
        assert optimal_hamiltonian(g, "path", hamiltonian, start="b") is None

    def test_requires_costs(self, four_vertex_graph):
        with pytest.raises(ValueError, match="needs arc costs"):
            optimal_hamiltonian(four_vertex_graph, "path", hamiltonian)

    # two Hamiltonian paths of equal cost, a-b-c and a-c-b; the canonically
    # first wins under either objective
    TIED = DirectedGraph(
        ("a", "b", "c"),
        (("a", "b"), ("b", "c"), ("a", "c"), ("c", "b")),
        (1.0, 1.0, 1.0, 1.0),
    )

    def test_tie_breaks_canonically(self):
        g = self.TIED
        best = optimal_hamiltonian(g, "path", hamiltonian, "min")
        assert best == (as_word((0, 1, 2)), 2)

    def test_max_tie_breaks_canonically(self):
        g = self.TIED
        best = optimal_hamiltonian(g, "path", hamiltonian, "max")
        assert best == (as_word((0, 1, 2)), 2)


# Tie-heavy cost sets: many Hamiltonian paths share a cost, and with the
# decimals 0.1 + 0.2 ties 0.3 exactly but not in float sums.  The last set
# holds exact costs that no float holds, so ties and the rebuild's cost
# equalities are decided on large exact totals.
TIE_COSTS = (
    (1.0, 2.0, 3.0, 4.0),
    (-0.5, 0.0, 0.1, 0.2, 0.3, 1.5),
    (10**20, 10**20 + 1, -(10**20), 0, Decimal("0.1000000000000000000001")),
)


def assert_held_karp_matches_selection(g):
    """held_karp equals enumerate-then-select on g, both kinds and
    objectives, with no end given, each start, each end and three pairs.
    Each kind is enumerated once, for all its selections."""
    v = g.vertices
    shapes = [(None, None), (v[0], v[-1]), (v[-1], v[0]), (v[0], v[0])]
    shapes += [(x, None) for x in v] + [(None, x) for x in v]
    for kind in ("path", "circuit"):
        if kind == "path" and g.n < 2:
            continue
        listed = hamiltonian(g, kind)
        for objective in ("min", "max"):
            for start, end in shapes:
                expected = optimal_hamiltonian(
                    g, kind, lambda graph, kind: listed, objective, start, end
                )
                got = held_karp(g, kind, objective, start, end)
                assert got == expected, (g, kind, objective, start, end)


class TestHeldKarp:
    def test_corpus(self, corpus):
        rng = random.Random(1962)
        for g in corpus:
            for values in TIE_COSTS:
                costs = tuple(rng.choice(values) for _ in g.arcs)
                assert_held_karp_matches_selection(DirectedGraph(g.vertices, g.arcs, costs))

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(st.integers(1, 7), st.sampled_from(TIE_COSTS)).flatmap(
            lambda shape: st.lists(
                st.tuples(
                    st.integers(0, shape[0] - 1),
                    st.integers(0, shape[0] - 1),
                    st.sampled_from(shape[1]),
                ),
                unique_by=lambda arc: arc[:2],
            ).map(lambda arcs: (shape[0], arcs))
        )
    )
    def test_random_graphs(self, shape):
        n, arcs = shape
        names = tuple(f"v{i}" for i in range(n))
        assert_held_karp_matches_selection(DirectedGraph(
            names,
            tuple((names[u], names[v]) for u, v, _ in arcs),
            tuple(c for _, _, c in arcs),
        ))

    def test_exact_tie_goes_to_the_canonically_first(self):
        # a-b-c costs 0.1 + 0.2, a-c-b costs 0.3 + 0: equal in decimals, not
        # in floats; the cost returned is the exact sum, 3 tenths
        g = DirectedGraph(
            ("a", "b", "c"),
            (("a", "b"), ("b", "c"), ("a", "c"), ("c", "b")),
            (0.1, 0.2, 0.3, 0.0),
        )
        assert g.denominator == 10
        for objective in ("min", "max"):
            best = held_karp(g, "path", objective, start="a")
            assert best == (as_word((0, 1, 2)), 3)
            assert optimal_hamiltonian(g, "path", hamiltonian, objective, start="a") == best

    def test_circuits_of_one_and_two_vertices(self):
        # costs in tenths
        loop = DirectedGraph(("a",), (("a", "a"),), (2.5,))
        assert held_karp(loop, "circuit") == (as_word((0, 0)), 25)
        assert held_karp(DirectedGraph(("a",), (), ()), "circuit") is None
        pair = DirectedGraph(("a", "b"), (("a", "b"), ("b", "a"), ("b", "b")), (1.0, 2.0, 0.5))
        assert held_karp(pair, "circuit", "max", end="b") == (as_word((1, 0, 1)), 30)
        assert held_karp(pair, "circuit", start="a", end="b") is None

    def test_unknown_vertex(self, five_vertex_graph):
        g = five_vertex_graph
        for ends in ({"start": "zz"}, {"end": "zz"}):
            with pytest.raises(ValueError, match="unknown vertex 'zz'"):
                held_karp(g, "path", **ends)
            with pytest.raises(ValueError, match="unknown vertex 'zz'"):
                optimal_hamiltonian(g, "path", hamiltonian, **ends)

    def test_requires_costs(self, four_vertex_graph):
        with pytest.raises(ValueError, match="needs arc costs"):
            held_karp(four_vertex_graph, "path")

    def test_word_limit_counts_entries(self):
        # weighted K12: power k holds one entry per (first vertex, set of k
        # further vertices), 12 * C(11, k), at most 12 * 462 = 5544 for k = 5
        g = complete_digraph(12)
        g = DirectedGraph(g.vertices, g.arcs, tuple(float(a % 4 + 1) for a in range(len(g.arcs))))
        assert held_karp(g, "path", word_limit=5544) is not None
        with pytest.raises(WordLimitError) as exc:
            held_karp(g, "path", word_limit=5543)
        assert str(exc.value) == "latin power 5 holds more words than the limit of 5543"
        with pytest.raises(WordLimitError) as exc:
            held_karp(g, "path", word_limit=131)
        assert exc.value.k == 1

    def test_word_limit_stops_inside_the_power(self):
        # weighted K12's fourth power holds 12 * C(11, 4) = 3960 entries.
        # The guard fires at the word of power 3 whose successors take the
        # entries over 3000, before the rest of power 4 is built.
        g = complete_digraph(12)
        g = DirectedGraph(g.vertices, g.arcs, tuple(a % 4 + 1 for a in range(len(g.arcs))))
        with pytest.raises(WordLimitError) as exc:
            held_karp(g, "path", word_limit=3000)
        assert exc.value.k == 4
        built = exc.traceback[-1].locals
        assert 3000 < built["entries"] <= 3000 + 12 < 3960

    def test_guard_counts_the_entries_of_the_kernels_words(self, corpus):
        # Power k's entries are the distinct (first vertex, vertex set) over
        # the elementary paths of k arcs that end where the seed allows:
        # at `end`, a circuit's anchor, or anywhere.  At each limit L that
        # is such a count or one less, held_karp refuses exactly the first
        # power with more than L entries, or answers.
        for g in corpus:
            g = DirectedGraph(g.vertices, g.arcs, (1,) * len(g.arcs))
            powers = kernel_entries(g)
            for end in (None, *range(g.n)):
                counts = [
                    len({
                        (w[0], frozenset(w))
                        for j in (range(g.n) if end is None else (end,))
                        for i in range(g.n) if i != j
                        for w in powers[k - 1][i][j]
                    })
                    for k in range(1, g.n)
                ]
                name = None if end is None else g.vertices[end]
                seeds = [{"end": name}] if end is None else [{"end": name}, {"start": name}]
                for limit in sorted({c - d for c in counts for d in (0, 1) if c - d >= 1}):
                    over = next((k for k, c in enumerate(counts, start=1) if c > limit), None)
                    for kind, ends in zip(("path", "circuit"), seeds):
                        if over is None:
                            held_karp(g, kind, word_limit=limit, **ends)
                            continue
                        with pytest.raises(WordLimitError) as exc:
                            held_karp(g, kind, word_limit=limit, **ends)
                        assert exc.value.k == over, (g, kind, ends, limit, counts)

    @pytest.mark.parametrize("objective", ["min", "max"])
    def test_equal_costs_give_the_canonically_first_word(self, objective):
        # every entry of every power ties: each keeps its smallest next vertex
        g = complete_digraph(6)
        g = DirectedGraph(g.vertices, g.arcs, (1,) * len(g.arcs))
        assert held_karp(g, "path", objective) == (as_word((0, 1, 2, 3, 4, 5)), 5)
        assert held_karp(g, "circuit", objective) == (as_word((0, 1, 2, 3, 4, 5, 0)), 6)

    def test_inner_tie_goes_to_the_smaller_next_vertex(self):
        # The only Hamiltonian paths, a-b-c-d-e and a-b-d-c-e, both cost
        # 1 + 0.1 + 0.2 + 1 = 1 + 0.3 + 0.0 + 1 exactly.  They part in entry
        # (b, {b, c, d, e}) of power 3, whose candidates tie at 1.3.  Power 2
        # makes entry (d, {c, d, e}) before (c, {c, d, e}), since the masks
        # are read in the order they were made, so power 3 meets the
        # candidate through d first; the rebuild picks next vertex c.
        g = DirectedGraph(
            tuple("abcde"),
            (("a", "b"), ("b", "c"), ("b", "d"), ("c", "d"), ("d", "c"), ("c", "e"), ("d", "e")),
            (1, 0.1, 0.3, 0.2, 0.0, 1, 1),
        )
        for objective in ("min", "max"):
            best = held_karp(g, "path", objective)
            assert best == (as_word((0, 1, 2, 3, 4)), 23)
            assert optimal_hamiltonian(g, "path", hamiltonian, objective) == best

    def test_peak_memory(self):
        # weighted K14: one exact cost per entry, 14 * 2^13 entries over
        # its 13 powers, all kept for the rebuild
        g = complete_digraph(14)
        g = DirectedGraph(g.vertices, g.arcs, tuple(a % 4 + 1 for a in range(len(g.arcs))))
        # tracemalloc does not see tuples reused from the interpreter's free
        # lists, so the query runs once first to fill them
        expected = held_karp(g, "path")
        tracemalloc.start()
        try:
            assert held_karp(g, "path") == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, peak


class TestRoundTrip:
    def test_decoded_paths_reencode(self, five_vertex_graph):
        g = five_vertex_graph
        for k in range(1, g.n + 1):
            matrix = language_power(g, k)
            for i, u in enumerate(g.vertices):
                for j, v in enumerate(g.vertices):
                    entry = matrix.rows[i][j]
                    for word in entry.words:
                        path = decode_word(g, word)
                        assert encode_path(g, path) == word


class TestPowerCache:
    def test_matches_generic_left_powers(self, five_vertex_graph):
        from latinpaths.semiring import mat_power_left

        base = latin_matrix(five_vertex_graph)
        for k in range(1, 6):
            assert language_power(five_vertex_graph, k) == mat_power_left(base, k)

    def test_power_index_out_of_range(self, five_vertex_graph):
        with pytest.raises(ValueError):
            power_entries(five_vertex_graph, 0)
        with pytest.raises(ValueError):
            power_entries(five_vertex_graph, 6)


def complete_digraph(n: int) -> DirectedGraph:
    names = tuple(f"v{i}" for i in range(1, n + 1))
    return DirectedGraph(names, tuple((u, v) for u in names for v in names if u != v))


def stored_words(matrix) -> list[int]:
    return [len(entry.words) for row in matrix.rows for entry in row]


# 1, 2, 3 and 2^b - 1, 2^b, 2^b + 1 for b up to 12: every bit pattern
# edge of binary powering
COUNT_LENGTHS = tuple(sorted({1, 2, 3} | {2**b + d for b in range(2, 13) for d in (-1, 0, 1)}))


def refuse(*args):
    raise AssertionError("this evaluation should not be selected")


def assert_counts_match_oracle(g, source, target, lengths):
    u, v = g.vertices[source], g.vertices[target]
    for k in lengths:
        expected = dfs_count_all_paths(g, u, v, k)
        assert _count_by_steps(g, source, target, k) == expected, (g, u, v, k)
        assert _count_by_squaring(g, source, target, k) == expected, (g, u, v, k)


class TestCountEvaluations:
    """Both evaluations behind `count_paths`, each called directly, not
    through the selection."""

    def test_both_evaluations_match_reference_on_corpus(self, corpus):
        # one (source, target) pair per length, cycling through all pairs;
        # the powers follow the recurrence of `mat_power_left`, one product
        # per length, and the last is checked against the reference itself
        for g in corpus:
            pairs = [(i, j) for i in range(g.n) for j in range(g.n)]
            adjacency = adjacency_matrix(g)
            power = adjacency
            for k in range(1, 61):
                if k > 1:
                    power = mat_mul(adjacency, power)
                i, j = pairs[k % len(pairs)]
                expected = power.rows[i][j]
                assert _count_by_steps(g, i, j, k) == expected, (g, i, j, k)
                assert _count_by_squaring(g, i, j, k) == expected, (g, i, j, k)
            u, v = g.vertices[i], g.vertices[j]
            assert count_paths_reference(g, u, v, 60) == expected

    @pytest.mark.parametrize("n, arcs, source, target", [
        (3, (), 0, 0),  # no arcs
        (3, (), 0, 2),
        (1, ((0, 0),), 0, 0),  # one vertex, its self-loop
        (3, tuple((u, v) for u in range(3) for v in range(3)), 1, 1),
    ])
    def test_both_evaluations_match_oracle_on_small_graphs(self, n, arcs, source, target):
        names = tuple(f"v{i}" for i in range(n))
        g = DirectedGraph(names, tuple((names[u], names[v]) for u, v in arcs))
        assert_counts_match_oracle(g, source, target, COUNT_LENGTHS)

    @settings(max_examples=50, deadline=None)
    @given(st.data(), graphs_with_loops(6), st.integers(1, 5000))
    def test_both_evaluations_match_oracle(self, data, g, drawn):
        source, target = (data.draw(st.integers(0, g.n - 1)) for _ in range(2))
        assert_counts_match_oracle(g, source, target, (*COUNT_LENGTHS, drawn))


def assert_kernel_matches_reference(g):
    sparse = latin_powers(g)
    entries = kernel_entries(g)
    reference = reference_powers(g)
    assert len(entries) == len(reference) == g.n
    # power n is read off power n-1, not built
    assert len(sparse) == max(g.n - 1, 1)
    for k, expected in enumerate(reference, start=1):
        power = entries[k - 1]
        assert language_power(g, k) == expected, k
        assert [len(words) for row in power for words in row] == stored_words(expected), k
        # sparse columns: no empty and no diagonal entry is stored, and
        # each entry is in canonical order
        for j, column in enumerate(sparse[k - 1] if k < g.n else ()):
            assert all(column.values()), k
            assert j not in column, (k, j)
        again = power_entries(g, k)
        for i in range(g.n):
            for j in range(g.n):
                words = power[i][j]
                assert list(words) == sorted(words), (k, i, j)
            # the diagonal, derived on read, is the reference's, and fresh
            circuits = power[i][i]
            assert circuits == sorted(as_word(w.indices) for w in expected.rows[i][i].words), (k, i)
            assert circuits is not again[i][i]
    # power n is all diagonal: an n-arc path needs n+1 distinct vertices
    assert all(
        entries[-1][i][j] == () for i in range(g.n) for j in range(g.n) if i != j
    )
    assert_guard_matches_reference_counts(g, [sum(stored_words(p)) for p in reference])
    assert_circuits_match_reference(g, reference)


def assert_guard_matches_reference_counts(g, counts):
    """At each limit L that is a power's reference word count or one less,
    `latin_powers` refuses exactly the first power that holds more than L
    words, circuits included, or refuses none."""
    for limit in sorted({c - d for c in counts for d in (0, 1) if c - d >= 1}):
        over = next((k for k, c in enumerate(counts, start=1) if c > limit), None)
        if over is None:
            latin_powers(g, limit)
        else:
            with pytest.raises(WordLimitError) as exc:
                latin_powers(g, limit)
            assert exc.value.k == over, (g, limit, counts)


def assert_circuits_match_reference(g, reference):
    """`hamiltonian_circuits` lists the diagonal of the reference's power n,
    entry by entry, as the oracle does; at each limit L that is one of the
    counts below or one less, it refuses at the first of them over L:
    column 1 of the reference's powers 1..n-1, its circuit entry (1, 1)
    included, then the whole diagonal of power n."""
    n = g.n
    diagonal = [
        sorted(as_word(w.indices) for w in reference[-1].rows[i][i].words) for i in range(n)
    ]
    circuits = hamiltonian_circuits(g)
    assert circuits == [w for entry in diagonal for w in entry] == dfs_hamiltonian(g, "circuit")
    counts = [sum(len(row[0].words) for row in power.rows) for power in reference[: n - 1]]
    counts.append(len(circuits))
    for limit in sorted({c - d for c in counts for d in (0, 1) if c - d >= 0}):
        over = next((k for k, c in enumerate(counts, start=1) if c > limit), None)
        if over is None:
            assert hamiltonian_circuits(g, limit) == circuits
        else:
            with pytest.raises(WordLimitError) as exc:
                hamiltonian_circuits(g, limit)
            assert exc.value.k == over, (g, limit, counts)


class TestKernelAgainstReference:
    def test_corpus(self, corpus):
        assert any((u, u) in g.arcs for g in corpus for u in g.vertices)
        for g in corpus:
            assert_kernel_matches_reference(g)

    @pytest.mark.parametrize("arcs", [(), (("a", "a"),)])
    def test_single_vertex(self, arcs):
        assert_kernel_matches_reference(DirectedGraph(("a",), arcs))

    @settings(max_examples=150, deadline=None)
    @given(graphs_with_loops(6))
    def test_random_graphs(self, g):
        assert_kernel_matches_reference(g)


def assert_columns_match_all_columns(g):
    """Column j built alone by `_depths` equals column j of `latin_powers`
    at every power it builds.  At each limit L that is a power's or one
    column's word count, or one less, a column built alone is refused only
    where `latin_powers` is refused too, and not at an earlier power: it
    counts a part of the power's words."""
    powers = latin_powers(g)
    depths = len(powers)
    entries = kernel_entries(g)
    columns = [
        [sum(len(entries[k - 1][i][j]) for i in range(g.n)) for j in range(g.n)]
        for k in range(1, depths + 1)
    ]
    counts = {c for per_power in columns for c in (sum(per_power), *per_power)}
    for limit in sorted({c - d for c in counts for d in (0, 1) if c - d >= 0}):
        try:
            latin_powers(g, limit)
            refused = None
        except WordLimitError as exc:
            refused = exc.k
        for j in range(g.n):
            built = []
            try:
                for (column,) in enumeration._depths(g, (j,), depths, limit):
                    built.append(column)
            except WordLimitError as exc:
                assert refused is not None and refused <= exc.k, (g, limit, j)
            else:
                assert len(built) == depths, (g, limit, j)
            for k, column in enumerate(built, start=1):
                assert column == powers[k - 1][j], (g, limit, j, k)


class TestColumnsAgainstAllColumns:
    def test_corpus(self, corpus):
        for g in corpus:
            assert_columns_match_all_columns(g)

    @settings(max_examples=100, deadline=None)
    @given(graphs_with_loops(6))
    def test_random_graphs_with_loops(self, g):
        assert_columns_match_all_columns(g)


def _outcome(query, *args, **kwargs):
    """What a query returns, or the message of the `WordLimitError` it
    raises."""
    try:
        return query(*args, **kwargs)
    except WordLimitError as exc:
        return str(exc)


def _longest(entries, i, j):
    n = len(entries)
    for k in range(n if i == j else n - 1, 0, -1):
        if words := entries[k - 1][i][j]:
            return k, tuple(words)
    return None


def assert_queries_match_all_columns(g):
    """`_fits` holds only where `latin_powers` is not refused, and not one
    below the largest power's word count.  At each limit within 1 of a
    power's word count, every column query gives the words of the kernel's
    entries, or the message `latin_powers` is refused with: paths, circuits
    (k = 1 included), every power's entries (k = n included) and the
    longest enumeration."""
    n = g.n
    entries = kernel_entries(g)
    counts = [
        sum(len(words) for row in entries[k - 1] for words in row)
        for k in range(1, max(n - 1, 1) + 1)
    ]
    assert not enumeration._fits(g, max(counts) - 1), (g, counts)
    names = g.vertices
    for limit in sorted({c + d for c in counts for d in (-1, 0, 1) if c + d >= 1}):
        powers = _outcome(latin_powers, g, limit)
        refused = isinstance(powers, str)
        assert not (refused and enumeration._fits(g, limit)), (g, limit)

        # where `_fits` fails every query builds every column, so there one
        # power and one entry (i, j) are checked, all of them elsewhere
        fits = enumeration._fits(g, limit)
        pairs = [(i, j) for i in range(n) for j in range(n)]
        if not fits:
            pairs = [pairs[limit % len(pairs)]]

        def expect(read):
            return powers if refused else read(entries)

        for k in range(1, n + 1) if fits else [limit % n + 1]:
            assert _outcome(power_entries, g, k, limit) == expect(lambda e: e[k - 1]), (g, k)
            for i, j in pairs:
                if i == j:
                    expected = expect(lambda e: tuple(e[k - 1][i][i]))
                    assert _outcome(elementary_circuits, g, names[i], k, limit) == expected
                elif k < n:
                    expected = expect(lambda e: tuple(e[k - 1][i][j]))
                    assert _outcome(elementary_paths, g, names[i], names[j], k, limit) == expected
        for i, j in pairs:
            expected = expect(lambda e: _longest(e, i, j))
            got = _outcome(max_length_elementary, g, names[i], names[j], word_limit=limit)
            assert got == expected, (g, limit, i, j)


class TestColumnQueriesAgainstAllColumns:
    def test_corpus(self, corpus):
        for g in corpus:
            assert_queries_match_all_columns(g)

    @pytest.mark.parametrize("arcs", [(), (("a", "a"),)])
    def test_single_vertex(self, arcs):
        assert_queries_match_all_columns(DirectedGraph(("a",), arcs))

    @settings(max_examples=100, deadline=None)
    @given(graphs_with_loops(6))
    def test_random_graphs_with_loops(self, g):
        assert_queries_match_all_columns(g)

    def test_bound_on_complete_digraphs(self):
        # the bound on power k of K_n is the n (n-1) (n-2)^(k-1) walks that
        # never turn back, plus the n (n-1) 2-cycles at k = 2; it grows
        # with k, to 2,612,736 at K8's power 7, which holds 40,320 paths
        # and 35,280 circuits
        g = complete_digraph(8)
        assert 8 * 7 * 6**6 == 2_612_736
        assert [enumeration._fits(g, limit) for limit in (5000, 2_612_735, 2_612_736)] == [
            False, False, True
        ]

    def test_bound_stops_once_no_count_grows(self):
        # A chain's per-arc walk counts stop growing at power 2, so the
        # bound stops there rather than walking all n - 2 powers, which
        # on this chain took seconds.
        names = tuple(f"v{i}" for i in range(5000))
        g = DirectedGraph(names, tuple(zip(names, names[1:])))
        start = time.perf_counter()
        assert enumeration._fits(g, 4999)
        assert time.perf_counter() - start < 0.5
        assert not enumeration._fits(g, 4998)  # power 1 holds the 4,999 arcs


def _bytes_held(power) -> int:
    """What one power of `latin_powers` holds, by `sys.getsizeof`: its
    column list, its column dicts, their word lists and the words."""
    held = sys.getsizeof(power)
    for column in power:
        held += sys.getsizeof(column)
        for words in column.values():
            held += sys.getsizeof(words) + sum(map(sys.getsizeof, words))
    return held


class TestDepthsHeld:
    """A query that builds every column of K8 to depth 7 holds about its
    two deepest powers at once, not all seven: `hamiltonian_paths`, and
    the column queries where `_fits` fails but the build answers.  K8's
    powers hold at most 75,600 words (power 7: 40,320 paths and 35,280
    circuits) and the bound is 2,612,736, so the limit of 100,000 sends
    them to the full build."""

    @pytest.mark.parametrize(
        "query",
        [
            hamiltonian_paths,
            lambda g: elementary_paths(g, "v1", "v2", 2, 100_000),
            lambda g: power_entries(g, 2, 100_000),
        ],
        ids=["hamiltonian-path", "paths-k2", "matrix-k2"],
    )
    def test_peak_memory(self, query):
        g = complete_digraph(8)
        assert not enumeration._fits(g, 100_000)
        held = sorted(map(_bytes_held, latin_powers(g)))
        # tracemalloc does not see tuples reused from the interpreter's
        # free lists, so the query runs once first to fill them
        expected = query(g)
        tracemalloc.start()
        try:
            assert query(g) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two deepest powers and a quarter of the others: holding
        # every power takes about the sum of all seven
        assert peak < sum(held[-2:]) + sum(held[:-2]) / 4, (peak, held)


class TestCircuitsFromColumnOne:
    """On the corpus and on one vertex, `TestKernelAgainstReference` checks
    the circuits too, against the same reference powers."""

    @settings(max_examples=80, deadline=None)
    @given(graphs_with_loops(7))
    def test_random_graphs_with_loops(self, g):
        assert_circuits_match_reference(g, reference_powers(g))

    def test_peak_memory(self):
        # K8 minus the Hamiltonian cycle v0 -> v1 -> ... -> v7 -> v0
        names = tuple(f"v{i}" for i in range(8))
        g = DirectedGraph(
            names,
            tuple((u, v) for i, u in enumerate(names) for j, v in enumerate(names)
                  if i != j and (j - i) % 8 != 1),
        )
        peaks = []
        for build in (hamiltonian_circuits, latin_powers):
            # tracemalloc does not see tuples reused from the interpreter's
            # free lists, so each build runs once first to fill them alike
            build(g)
            tracemalloc.start()
            try:
                build(g)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1] / 2, peaks


def _refused_at(counts, limit):
    """The first power, from 1, whose word count is over `limit`, or None."""
    return next((k for k, c in enumerate(counts, start=1) if c > limit), None)


def assert_last_depth_matches_reference(g):
    """Depth n-1 of `_depths`, where each word takes the one vertex it
    misses, against the reference's power n-1: every column, and column 1
    built alone, hold the reference's paths.  At the limits c - 1
    and c, c the count of power n-1 over the columns a query builds (its
    paths and circuits), `hamiltonian_paths`, `hamiltonian_circuits`
    (column 1, then power n) and `elementary_paths` at k = n-1 are refused
    at the first power over the limit, power n-1 itself at c - 1 where no
    earlier power is over, and otherwise answer with the reference's
    words."""
    n = g.n
    if n < 2:
        return
    reference = reference_powers(g)
    last = reference[n - 2]
    expected = [
        {
            i: sorted(as_word(w.indices) for w in last.rows[i][j].words)
            for i in range(n)
            if i != j and last.rows[i][j].words
        }
        for j in range(n)
    ]
    *_, columns = enumeration._depths(g, range(n), n - 1, sys.maxsize)
    assert columns == expected, g
    *_, (column,) = enumeration._depths(g, (0,), n - 1, sys.maxsize)
    assert column == expected[0], g

    every = [sum(stored_words(p)) for p in reference[: n - 1]]
    first = [sum(len(row[0].words) for row in p.rows) for p in reference[: n - 1]]
    circuits = sorted(as_word(w.indices) for i in range(n) for w in reference[-1].rows[i][i].words)
    names = g.vertices
    queries = [
        (hamiltonian_paths, every, sorted(w for c in expected for ws in c.values() for w in ws)),
        (hamiltonian_circuits, [*first, len(circuits)], circuits),
    ]
    queries += [
        (
            lambda g, limit, u=u, v=v: elementary_paths(g, names[u], names[v], n - 1, limit),
            every,
            tuple(expected[v].get(u, ())),
        )
        for u in range(n)
        for v in range(n)
        if u != v
    ]
    for query, counts, answer in queries:
        for limit in (counts[n - 2] - 1, counts[n - 2]):
            if limit < 0:
                continue
            over = _refused_at(counts, limit)
            if over is None:
                assert query(g, limit) == answer, (g, limit)
            else:
                with pytest.raises(WordLimitError) as exc:
                    query(g, limit)
                assert exc.value.k == over, (g, limit, counts)


class TestLastDepth:
    """The last depth of `_depths` against the reference powers, on the
    paths it keeps and the words its guard counts."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_complete_digraphs(self, n):
        g = complete_digraph(n)
        counts = [sum(stored_words(p)) for p in reference_powers(g)[: n - 1]]
        # power n-1 holds the most words, so at one less it is refused itself
        assert _refused_at(counts, counts[-1] - 1) == n - 1
        assert_last_depth_matches_reference(g)

    @pytest.mark.parametrize(
        "names, arcs",
        [
            ("ab", ("aa", "ab", "ba", "bb")),
            ("ab", ("aa", "ab")),
            ("ab", ("ab", "bb")),
            ("ab", ("aa", "bb")),
            ("abc", tuple(u + v for u in "abc" for v in "abc")),
            ("abc", ("aa", "ab", "bc", "cc", "ca")),
            ("abc", ("bb", "ba", "ac", "cb")),
        ],
    )
    def test_small_graphs_with_self_loops(self, names, arcs):
        assert_last_depth_matches_reference(DirectedGraph(tuple(names), tuple(map(tuple, arcs))))

    @settings(max_examples=100, deadline=None)
    @given(graphs_with_loops(6))
    def test_random_graphs_with_loops(self, g):
        assert_last_depth_matches_reference(g)


def test_sparse_chain_powers():
    # A chain's powers hold n - k words each; a dense n x n grid per power
    # would cost O(n^3), about 280 MB at n = 180.
    names = tuple(f"v{i}" for i in range(180))
    g = DirectedGraph(names, tuple(zip(names, names[1:])))
    tracemalloc.start()
    try:
        paths = elementary_paths(g, "v0", "v2", 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    assert paths == (as_word((0, 1, 2)),)


class TestGuards:
    def test_word_limit(self, five_vertex_graph):
        # power 1 holds one word per arc, 12 here; it is guarded too
        with pytest.raises(WordLimitError) as exc:
            latin_powers(five_vertex_graph, word_limit=3)
        assert exc.value.k == 1
        assert str(exc.value) == "latin power 1 holds more words than the limit of 3"
        with pytest.raises(WordLimitError) as exc:
            latin_powers(five_vertex_graph, word_limit=12)
        assert exc.value.k == 2

    def test_word_limit_stops_inside_the_power(self):
        # K8's fourth power: 8*7*6*5*4 = 6,720 paths plus 8*7*6*5 = 1,680
        # circuits, 1,050 words in each of its 8 columns.  The guard fires at
        # the column that takes the count over the limit: the fifth, with
        # 5,250 words built, not all 8,400.
        with pytest.raises(WordLimitError) as exc:
            latin_powers(complete_digraph(8), word_limit=5000)
        assert exc.value.k == 4
        assert str(exc.value) == "latin power 4 holds more words than the limit of 5000"
        built = exc.traceback[-1].locals
        assert (len(built["columns"]), built["count"]) == (4, 5250)

    def test_single_vertex_no_arcs(self):
        g = DirectedGraph(("a",), ())
        assert language_power(g, 1).rows[0][0].is_zero
