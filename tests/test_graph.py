import json
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinpaths.graph import (
    MAX_VERTICES,
    DirectedGraph,
    GraphParseError,
    PathError,
    VertexPath,
    cost_text,
    parse_graph,
    path_cost,
    serialize_graph,
)
from latinpaths.reference import adjacency_matrix, latin_matrix

from conftest import as_word, word_of


class TestParse:
    def test_four_vertex(self, four_vertex_graph):
        g = four_vertex_graph
        assert g.n == 4
        assert len(g.arcs) == 8
        assert g.costs is None
        assert g.vertices == ("v1", "v2", "v3", "v4")

    def test_single_vertex(self):
        g = parse_graph("vertices: a\n")
        assert g.n == 1
        assert g.arcs == ()

    def test_weighted(self, five_vertex_graph):
        g = five_vertex_graph
        assert g.n == 5
        assert len(g.arcs) == 12
        index = g.vertex_index
        assert g.arc_cost[index["1"]][index["2"]] == 4
        assert g.arc_cost[index["5"]][index["4"]] == 1

    def test_duplicate_arc(self):
        with pytest.raises(GraphParseError, match="line 4"):
            parse_graph("vertices: a b\na b\nb a\na b\n")

    def test_unknown_vertex(self):
        with pytest.raises(GraphParseError, match="line 2.*'c'"):
            parse_graph("vertices: a b\na c\n")

    def test_malformed_line(self):
        with pytest.raises(GraphParseError, match="line 3"):
            parse_graph("vertices: a b\na b\na b c d\n")

    def test_partial_costs(self):
        with pytest.raises(GraphParseError, match="line 3"):
            parse_graph("vertices: a b\na b 1.5\nb a\n")

    def test_bad_cost(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("vertices: a b\na b oops\n")

    def test_duplicate_vertex(self):
        with pytest.raises(GraphParseError, match="line 1"):
            parse_graph("vertices: a a\n")

    def test_missing_header(self):
        with pytest.raises(GraphParseError):
            parse_graph("a b\n")
        with pytest.raises(GraphParseError):
            parse_graph("# only a comment\n")

    def test_comments_and_blanks_skipped(self):
        g = parse_graph("# c\n\nvertices: a b\n# arc\na b\n")
        assert g.arcs == (("a", "b"),)

    def test_lines_end_only_at_newlines(self):
        # str.splitlines() also ends a line at \x0c, \x85, U+2028 and more
        with pytest.raises(GraphParseError, match="^line 4: unknown vertex 'q'"):
            parse_graph("# page\x0cbreak\nvertices: a b\na b\na q\n")
        with pytest.raises(GraphParseError, match="^line 3: unknown vertex 'q'"):
            parse_graph("vertices: a b\n# x\x85y\na q\n")
        for sep in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
            assert parse_graph(f"vertices: a b\n# x{sep}y z\nb a\n").arcs == (("b", "a"),)
        with pytest.raises(GraphParseError, match="^line 4: unknown vertex 'q'"):
            parse_graph("vertices: a b\r\na b\rb a\na q\n")

    def test_vertex_name_starting_with_hash(self):
        # the arc line "#b c" would read as a comment
        with pytest.raises(GraphParseError, match="^line 2: vertex name '#b'"):
            parse_graph("# names\nvertices: a #b c\na #b\n#b c\n")
        assert parse_graph("vertices: a b#\na b#\n").arcs == (("a", "b#"),)

    def test_costs_whose_total_overflows(self):
        with pytest.raises(GraphParseError, match="^line 3: cost '-1e308'"):
            parse_graph("vertices: a b c\na b 1e308\nb c -1e308\nc a 1\n")
        big = parse_graph("vertices: a b\na b 1e308\nb a 7e307\n")
        assert big.costs == (Decimal("1e308"), Decimal("7e307"))
        assert (big.arc_cost[0][1], big.arc_cost[1][0]) == (10**308, 7 * 10**307)

    def test_cost_too_small_for_a_float(self):
        # read as a float it would be 0; exactly, its denominator would have
        # a billion digits
        with pytest.raises(
            GraphParseError, match="^line 3: cost '1e-999999999' is too close to 0 for a float$"
        ):
            parse_graph("vertices: a b\na b 1\nb a 1e-999999999\n")
        with pytest.raises(GraphParseError, match="^line 2: cost '-1e-400' is too close to 0"):
            parse_graph("vertices: a b\na b -1e-400\n")
        # zero with any exponent is zero, and the least subnormal is a float
        g = parse_graph("vertices: a b\na b 0e-999999999\nb a 5e-324\n")
        assert (g.arc_cost[0][1], g.arc_cost[1][0], g.denominator) == (0, 5, 10**324)

    def test_more_vertices_than_code_points(self):
        """A word holds one code point per vertex, and chr() stops at
        0x10FFFF, so 0x110001 names are refused on their line, and by
        `DirectedGraph` before it builds any index.  The names repeat, so
        the count is checked before their duplicates; 0x110000 of them
        pass the count and meet the duplicate check."""
        assert MAX_VERTICES == 0x110000 == 1_114_112
        names = "a " * (MAX_VERTICES + 1)
        with pytest.raises(GraphParseError, match="^line 3: more than 1114112 vertices$"):
            parse_graph(f"# a comment\n\nvertices: {names}\na a\n")
        with pytest.raises(GraphParseError, match="^line 1: duplicate vertex name$"):
            parse_graph(f"vertices: {names[2:]}\n")
        with pytest.raises(ValueError, match="^more than 1114112 vertices$"):
            DirectedGraph(("a",) * (MAX_VERTICES + 1), ())
        with pytest.raises(ValueError, match="^vertex names must be distinct$"):
            DirectedGraph(("a",) * MAX_VERTICES, ())

    def test_constructor_messages(self):
        # the cost count is checked before any arc
        for arcs, costs, message in [
            ((("a", "z"),), (1, 2), "every arc needs exactly one cost"),
            ((("a", "b"), ("a", "z")), None, "arc (a, z) references an undeclared vertex"),
            ((("a", "b"), ("a", "b")), (1, 2), "duplicate arc (a, b)"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                DirectedGraph(("a", "b"), arcs, costs)


class TestSerialize:
    def test_round_trip_unweighted(self, four_vertex_graph):
        text = serialize_graph(four_vertex_graph)
        assert parse_graph(text) == four_vertex_graph

    def test_round_trip_costs_exact(self, five_vertex_graph):
        again = parse_graph(serialize_graph(five_vertex_graph))
        assert again.arc_cost == five_vertex_graph.arc_cost
        # graphs compare by vertices, arcs and costs, and print all three
        assert again == five_vertex_graph
        cheaper = DirectedGraph(again.vertices, again.arcs, (1,) * len(again.arcs))
        assert cheaper != again and cheaper.arc_cost != again.arc_cost
        g = DirectedGraph(("a", "b"), (("a", "b"),), (Decimal("0.5"),))
        assert repr(g) == (
            "DirectedGraph(vertices=('a', 'b'), arcs=(('a', 'b'),), costs=(Decimal('0.5'),))"
        )

    def test_fractional_cost_round_trip(self):
        g = parse_graph("vertices: a b\na b 0.1\nb a 2.25\n")
        again = parse_graph(serialize_graph(g))
        assert again.arc_cost == g.arc_cost == ({1: 10}, {0: 225})
        assert again.denominator == g.denominator == 100

    def test_costs_beyond_a_float_round_trip(self):
        # the nearest float to each is 0.3, 1e+22 and 1.0
        text = (
            "vertices: a b c\na b 0.29999999999999999999\n"
            "b c 10000000000000000000001\nc a 1.00000000000000000000000000001\n"
        )
        assert serialize_graph(parse_graph(text)) == text

    def test_arc_order(self):
        g = parse_graph("vertices: a b\nb a\na b\n")
        assert serialize_graph(g) == "vertices: a b\na b\nb a\n"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-text cap"
    )
    def test_round_trip_beyond_the_int_text_cap(self):
        # a cost of 5,001 digits puts the denominator past the default cap
        # of 4,300 digits on int-to-text conversion
        text = "vertices: a b\na b 0." + "3" * 5000 + "\n"
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert serialize_graph(parse_graph(text)) == text
        finally:
            sys.set_int_max_str_digits(saved)


class TestCostText:
    def test_total_beyond_the_float_range(self):
        # parse_graph bounds the sum of |cost|; a graph built directly may not
        g = DirectedGraph(("a", "b", "c"), (("a", "b"), ("b", "c")), (1e308, 1e308))
        total = path_cost(g, word_of(g, "a-b-c"))
        assert total == 2 * 10**308
        assert cost_text(g, total) == str(total)
        assert json.loads(cost_text(g, total, as_json=True)) == total
        # not integral either: both modes print the exact decimal
        g = DirectedGraph(g.vertices, g.arcs, (1e308, Decimal("1" + "0" * 308 + ".5")))
        total = path_cost(g, word_of(g, "a-b-c"))
        text = cost_text(g, total, as_json=True)
        assert text == cost_text(g, total) == "2" + "0" * 308 + ".5"
        assert Fraction(json.loads(text, parse_float=Decimal)) == Fraction(total, g.denominator)


# Tokens of edge-list text: names, some of them starting with '#', and cost
# texts, valid or not, some of them large enough that their total overflows.
NAMES = st.one_of(
    st.sampled_from(["a", "b", "c", "#b", "#", "a#", "vertices:"]),
    st.text(alphabet="ab#:.-1e", min_size=1, max_size=3),
)
COSTS = st.one_of(
    st.integers(-5, 5).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0.1", "-0", "1_0", "1e308", "-1e308", "1e400", "NaN", "inf", "x"]),
)
SPACES = st.sampled_from([" ", "  ", "\t"])


@st.composite
def edge_list_texts(draw):
    """Edge-list text and the arcs its arc lines declare, in file order."""
    names = draw(st.lists(NAMES, max_size=4))
    pool = st.sampled_from(names) if names else NAMES
    lines, arcs = [], []
    if draw(st.booleans()):
        lines.append("# " + draw(st.text(alphabet="ab #:", max_size=5)))
    lines.append("vertices:" + "".join(draw(SPACES) + name for name in names))
    for _ in range(draw(st.integers(0, 6))):
        form = draw(st.sampled_from(["arc", "arc cost", "comment", "blank", "malformed"]))
        if form.startswith("arc"):
            tokens = [draw(pool), draw(pool)]
            arcs.append(tuple(tokens))
            if form == "arc cost":
                tokens.append(draw(COSTS))
        elif form == "comment":
            tokens = ["#" + draw(st.text(alphabet="ab #", max_size=4))]
        elif form == "blank":
            tokens = []
        else:  # one token, or four: never an arc
            tokens = [draw(pool) for _ in range(draw(st.sampled_from([1, 4])))]
        lines.append(draw(st.sampled_from(["", " "])) + "".join(
            (draw(SPACES) if t else "") + token for t, token in enumerate(tokens)
        ))
    return "\n".join(lines) + "\n", names, arcs


class TestTextProperty:
    @settings(max_examples=400)
    @given(edge_list_texts())
    def test_parses_losslessly_or_fails_on_a_line(self, case):
        """Edge-list text either parses to a graph holding every declared
        name and every arc line, which round-trips through serialize_graph
        (arcs come back in canonical order), or fails with a line number."""
        text, names, arcs = case
        try:
            graph = parse_graph(text)
        except GraphParseError as exc:
            found = re.match(r"line (\d+): ", str(exc))
            assert found, str(exc)
            assert 1 <= int(found.group(1)) <= len(text.splitlines())
            return
        assert graph.vertices == tuple(names)
        assert list(graph.arcs) == arcs
        again = parse_graph(serialize_graph(graph))
        assert again.vertices == graph.vertices
        assert again.arc_cost == graph.arc_cost


class TestIndex:
    @settings(max_examples=200)
    @given(st.data())
    def test_agrees_with_arcs_and_costs(self, data):
        """`successors` lists each vertex's arc targets by declaration
        index, and `arc_cost` maps each arc, per source index and then
        target index, to its cost, or to None, in arc order.  A float cost
        is the decimal of its repr, times `denominator`, the least power of
        ten that makes every cost an integer."""
        names = data.draw(st.permutations(["c", "a", "e", "b", "d"]))[: data.draw(st.integers(1, 5))]
        arcs = data.draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), unique=True))
        floats = st.floats(allow_nan=False, allow_infinity=False)
        costs = data.draw(st.none() | st.tuples(*(floats for _ in arcs)))
        graph = DirectedGraph(tuple(names), tuple(arcs), costs)
        for i, u in enumerate(names):
            assert graph.successors[i] == tuple(j for j, v in enumerate(names) if (u, v) in arcs)
        for i, u in enumerate(names):
            assert list(graph.arc_cost[i]) == [names.index(v) for w, v in arcs if w == u]
        for a, (u, v) in enumerate(arcs):
            cost = graph.arc_cost[names.index(u)][names.index(v)]
            if costs is None:
                assert cost is None
            else:
                assert Fraction(cost, graph.denominator) == Fraction(repr(costs[a]))
        places = [-Decimal(repr(c)).normalize().as_tuple().exponent for c in costs or ()]
        assert graph.denominator == 10 ** max([0, *places])
        # `letter_cost` is `arc_cost` by letter, built by the first
        # `path_cost`: from the start, each letter chr(i) costs 0 and leads
        # to v_i's row, whose letters lead on
        assert graph.letter_cost is None
        if costs is None:
            with pytest.raises(ValueError, match="graph has no arc costs"):
                path_cost(graph, chr(0))
            assert graph.letter_cost is None
            return
        assert path_cost(graph, chr(0)) == 0
        assert list(graph.letter_cost) == [chr(i) for i in range(len(names))]
        for i, row in enumerate(graph.arc_cost):
            zero, letters = graph.letter_cost[chr(i)]
            assert zero == 0
            assert {ord(c): cost for c, (cost, _) in letters.items()} == row
            assert all(after is graph.letter_cost[c][1] for c, (_, after) in letters.items())


# Code points where a string's width or kind changes: one byte to two at
# 0x100, two to four at 0x10000, and the surrogates 0xD800-0xDFFF between
BOUNDARY_INDICES = (0, 0xFF, 0x100, 0xD7FF, 0xD800, 0xDBFF, 0xDC00, 0xDFFF, 0xE000, 0xFFFF,
                    0x10000, 0x10FFFF)
indices = st.one_of(
    st.sampled_from(BOUNDARY_INDICES), st.integers(0xD800, 0xDFFF), st.integers(0, 0x10FFFF)
)


class TestWordOrder:
    @settings(max_examples=300)
    @given(st.lists(st.lists(indices, max_size=6).map(tuple), max_size=12), st.data())
    def test_code_point_order_is_tuple_order(self, tuples, data):
        """Words sort as their index tuples do, prefixes first, and `ord`
        gives each tuple back."""
        tuples += [t[: data.draw(st.integers(0, len(t)))] for t in tuples]
        words = [as_word(t) for t in tuples]
        assert [tuple(map(ord, w)) for w in words] == tuples
        assert sorted(words) == [as_word(t) for t in sorted(tuples)]


class TestAdjacencyMatrix:
    def test_four_vertex(self, four_vertex_graph):
        m = adjacency_matrix(four_vertex_graph)
        assert m.rows == (
            (1, 1, 1, 1),
            (0, 1, 1, 1),
            (0, 0, 0, 1),
            (0, 0, 0, 0),
        )

    def test_no_arcs(self):
        g = DirectedGraph(("a", "b"), ())
        assert adjacency_matrix(g).rows == ((0, 0), (0, 0))

    def test_single_self_loop(self):
        g = DirectedGraph(("a", "b"), (("a", "a"),))
        assert adjacency_matrix(g).rows == ((1, 0), (0, 0))


class TestLatinMatrix:
    def test_four_vertex(self, four_vertex_graph):
        m = latin_matrix(four_vertex_graph)
        rendered = [[e.render() for e in row] for row in m.rows]
        assert rendered == [
            ["{v1-v1}", "{v1-v2}", "{v1-v3}", "{v1-v4}"],
            ["^", "{v2-v2}", "{v2-v3}", "{v2-v4}"],
            ["^", "^", "^", "{v3-v4}"],
            ["^", "^", "^", "^"],
        ]

    def test_five_vertex(self, five_vertex_graph):
        m = latin_matrix(five_vertex_graph)
        rendered = [[e.render() for e in row] for row in m.rows]
        assert rendered == [
            ["^", "{1-2}", "{1-3}", "^", "{1-5}"],
            ["{2-1}", "^", "^", "^", "{2-5}"],
            ["^", "{3-2}", "^", "^", "^"],
            ["^", "^", "{4-3}", "^", "{4-5}"],
            ["{5-1}", "{5-2}", "{5-3}", "{5-4}", "^"],
        ]

    def test_no_arcs(self):
        g = DirectedGraph(("a", "b"), ())
        m = latin_matrix(g)
        assert all(e.is_zero for row in m.rows for e in row)

    def test_nonzero_iff_adjacent(self, five_vertex_graph):
        adj = adjacency_matrix(five_vertex_graph)
        lat = latin_matrix(five_vertex_graph)
        for i in range(5):
            for j in range(5):
                assert (adj.rows[i][j] == 1) == (not lat.rows[i][j].is_zero)


class TestPathCost:
    def test_sum_examples(self, five_vertex_graph):
        assert path_cost(five_vertex_graph, word_of(five_vertex_graph, "4-5-3-2-1")) == 10
        assert path_cost(five_vertex_graph, word_of(five_vertex_graph, "4-3-2-5-1")) == 15

    def test_single_arc(self, five_vertex_graph):
        assert path_cost(five_vertex_graph, word_of(five_vertex_graph, "5-4")) == 1

    def test_missing_costs(self, four_vertex_graph):
        with pytest.raises(ValueError):
            path_cost(four_vertex_graph, as_word((0, 1)))

    def test_invalid_path(self, five_vertex_graph):
        with pytest.raises(PathError, match=r"^\(2, 3\) is not an arc of the graph$"):
            path_cost(five_vertex_graph, word_of(five_vertex_graph, "2-3"))
        with pytest.raises(PathError, match=r"^\(3, 1\) is not an arc"):
            path_cost(five_vertex_graph, word_of(five_vertex_graph, "4-5-3-1"))

    def test_contract(self, four_vertex_graph):
        """The empty word and a one-vertex word price 0, the first missing
        arc of a word is the one named, wherever it falls, and a graph
        without costs is refused whatever the word."""
        g = DirectedGraph(tuple("abc"), (("a", "b"), ("b", "c"), ("c", "c")), (1.5, 2, 0.25))
        assert path_cost(g, as_word(())) == 0
        assert [path_cost(g, as_word((i,))) for i in range(3)] == [0, 0, 0]
        assert (path_cost(g, as_word((0, 1, 2, 2))), g.denominator) == (375, 100)
        for word, arc in [
            ((1, 0), "(b, a)"),
            ((0, 1, 0, 2), "(b, a)"),
            ((0, 1, 2, 1), "(c, b)"),
            ((0, 0, 1, 0), "(a, a)"),
        ]:
            with pytest.raises(PathError, match=rf"^{re.escape(arc)} is not an arc of the graph$"):
                path_cost(g, as_word(word))
        for word in [(), (0,), (0, 1), (1, 0)]:
            with pytest.raises(ValueError, match="^graph has no arc costs$"):
                path_cost(four_vertex_graph, as_word(word))

    def test_exact_in_any_order(self):
        # in floats, (0.1 + 0.2) + 0.3 is 0.6000000000000001 and a
        # compensated sum gives 0.6
        g = DirectedGraph(tuple("abcd"), (("a", "b"), ("b", "c"), ("c", "d")), (0.1, 0.2, 0.3))
        assert (path_cost(g, as_word((0, 1, 2, 3))), g.denominator) == (6, 10)

    def test_matches_the_cost_of_sum_on_the_corpus(self, corpus):
        rng = random.Random(20260)
        awkward = (0.1, 0.2, 0.3, -0.0, 0.0, 1e16, 1e-07, -2.5, 1e300, -1e300, 3.0)
        for plain in corpus:
            with pytest.raises(ValueError):
                path_cost(plain, as_word((0, 1)))
            if not plain.arcs:
                continue
            costs = tuple(
                rng.choice(awkward) if rng.random() < 0.5 else rng.uniform(-10, 10)
                for _ in plain.arcs
            )
            g = DirectedGraph(plain.vertices, plain.arcs, costs)
            # the expected side reads the arcs by name, not the index table,
            # and each cost as the Fraction of its repr
            named = {arc: Fraction(repr(c)) for arc, c in zip(g.arcs, costs)}
            successors = {v: [w for u, w in g.arcs if u == v] for v in g.vertices}
            for _ in range(20):
                walk = [rng.choice(g.arcs)[0]]
                while len(walk) < 2 or (successors[walk[-1]] and rng.random() < 0.8):
                    walk.append(rng.choice(successors[walk[-1]]))
                word = as_word(g.vertices.index(v) for v in walk)
                expected = sum(named[u, v] for u, v in zip(walk, walk[1:]))
                assert Fraction(path_cost(g, word), g.denominator) == expected
            missing = next(
                ((i, j) for i in range(g.n) for j in range(g.n)
                 if (g.vertices[i], g.vertices[j]) not in named),
                None,
            )
            if missing is not None:
                with pytest.raises(PathError):
                    path_cost(g, as_word(missing))


class TestExactCosts:
    def test_common_power_of_ten_denominator(self):
        costs = (0.1, 0.2, 0.3, -0.5, 2.0, 1e-05, 1e22, 0.0)
        g = DirectedGraph(
            tuple("abcdefghi"), tuple(zip("abcdefgh", "bcdefghi")), costs
        )
        assert g.denominator == 10**5
        assert [g.arc_cost[i][i + 1] for i in range(8)] == [
            10**4, 2 * 10**4, 3 * 10**4, -5 * 10**4, 2 * 10**5, 1, 10**27, 0,
        ]
        assert path_cost(g, as_word((0, 1, 2))) == path_cost(g, as_word((2, 3)))
        assert 0.1 + 0.2 != 0.3

    def test_parsed_text(self, five_vertex_graph):
        # integer costs need no denominator; the file's decimals are kept
        # whole, not rounded to a float
        assert five_vertex_graph.denominator == 1
        assert five_vertex_graph.arc_cost[0] == {1: 4, 2: 2, 4: 6}
        g = parse_graph("vertices: a b\na b 2.50\nb a -1e-3\n")
        assert (g.arc_cost, g.denominator) == (({1: 2500}, {0: -1}), 1000)
        g = parse_graph("vertices: a b\na b 0.29999999999999999999\nb a 12345678901234567890.5\n")
        assert g.denominator == 10**20
        assert g.arc_cost == ({1: 29999999999999999999}, {0: 123456789012345678905 * 10**19})

    def test_missing_costs(self, four_vertex_graph):
        with pytest.raises(ValueError):
            path_cost(four_vertex_graph, as_word((0, 1)))
        assert four_vertex_graph.denominator == 1
        assert all(c is None for row in four_vertex_graph.arc_cost for c in row.values())


class TestVertexPath:
    def test_too_short(self):
        with pytest.raises(PathError):
            VertexPath(("a",))
