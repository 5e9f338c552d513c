import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinpaths.enumeration import adjacency_matrix, latin_matrix
from latinpaths.graph import (
    DirectedGraph,
    GraphParseError,
    PathError,
    VertexPath,
    exact_costs,
    parse_graph,
    path_cost,
    serialize_graph,
)

from conftest import word_of


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
        assert g.cost_of("1", "2") == 4
        assert g.cost_of("5", "4") == 1

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
        assert big.costs == (1e308, 7e307)


class TestSerialize:
    def test_round_trip_unweighted(self, four_vertex_graph):
        text = serialize_graph(four_vertex_graph)
        assert parse_graph(text) == four_vertex_graph

    def test_round_trip_costs_exact(self, five_vertex_graph):
        again = parse_graph(serialize_graph(five_vertex_graph))
        for u, v in five_vertex_graph.arcs:
            assert again.cost_of(u, v) == five_vertex_graph.cost_of(u, v)

    def test_fractional_cost_round_trip(self):
        g = parse_graph("vertices: a b\na b 0.1\nb a 2.25\n")
        again = parse_graph(serialize_graph(g))
        assert again.cost_of("a", "b") == g.cost_of("a", "b")
        assert again.cost_of("b", "a") == 2.25

    def test_arc_order(self):
        g = parse_graph("vertices: a b\nb a\na b\n")
        assert serialize_graph(g) == "vertices: a b\na b\nb a\n"


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
        target index, to its cost, or to None, in arc order."""
        names = data.draw(st.permutations(["c", "a", "e", "b", "d"]))[: data.draw(st.integers(1, 5))]
        arcs = data.draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), unique=True))
        costs = data.draw(st.none() | st.tuples(*(st.floats(allow_nan=False) for _ in arcs)))
        graph = DirectedGraph(tuple(names), tuple(arcs), costs)
        for i, u in enumerate(names):
            assert graph.successors[i] == tuple(j for j, v in enumerate(names) if (u, v) in arcs)
        for i, u in enumerate(names):
            assert list(graph.arc_cost[i]) == [names.index(v) for w, v in arcs if w == u]
        for a, (u, v) in enumerate(arcs):
            cost = graph.arc_cost[names.index(u)][names.index(v)]
            assert cost is (None if costs is None else costs[a])


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
            path_cost(four_vertex_graph, (0, 1))

    def test_invalid_path(self, five_vertex_graph):
        with pytest.raises(PathError, match=r"^\(2, 3\) is not an arc of the graph$"):
            path_cost(five_vertex_graph, word_of(five_vertex_graph, "2-3"))
        with pytest.raises(PathError, match=r"^\(3, 1\) is not an arc"):
            path_cost(five_vertex_graph, word_of(five_vertex_graph, "4-5-3-1"))
        with pytest.raises(PathError):
            five_vertex_graph.cost_of("2", "3")

    def test_left_to_right_on_every_python(self):
        # (0.1 + 0.2) + 0.3; a compensated sum (sum() from Python 3.12) gives 0.6
        g = DirectedGraph(tuple("abcd"), (("a", "b"), ("b", "c"), ("c", "d")), (0.1, 0.2, 0.3))
        assert path_cost(g, (0, 1, 2, 3)).hex() == (0.6000000000000001).hex()

    def test_matches_the_cost_of_sum_on_the_corpus(self, corpus):
        rng = random.Random(20260)
        awkward = (0.1, 0.2, 0.3, -0.0, 0.0, 1e16, 1e-07, -2.5, 1e300, -1e300, 3.0)
        for plain in corpus:
            with pytest.raises(ValueError):
                path_cost(plain, (0, 1))
            if not plain.arcs:
                continue
            costs = tuple(
                rng.choice(awkward) if rng.random() < 0.5 else rng.uniform(-10, 10)
                for _ in plain.arcs
            )
            g = DirectedGraph(plain.vertices, plain.arcs, costs)
            # the expected side reads the arcs by name, not the index table
            named = dict(zip(g.arcs, costs))
            successors = {v: [w for u, w in g.arcs if u == v] for v in g.vertices}
            for _ in range(20):
                walk = [rng.choice(g.arcs)[0]]
                while len(walk) < 2 or (successors[walk[-1]] and rng.random() < 0.8):
                    walk.append(rng.choice(successors[walk[-1]]))
                word = tuple(g.vertices.index(v) for v in walk)
                terms = [named[u, v] for u, v in zip(walk, walk[1:])]
                expected = 0
                for term in terms:
                    expected = expected + term
                assert path_cost(g, word).hex() == float(expected).hex()
                if sys.version_info < (3, 12):  # the former sum(), uncompensated there
                    assert path_cost(g, word).hex() == float(sum(terms)).hex()
            missing = next(
                ((i, j) for i in range(g.n) for j in range(g.n)
                 if (g.vertices[i], g.vertices[j]) not in named),
                None,
            )
            if missing is not None:
                with pytest.raises(PathError):
                    path_cost(g, missing)


class TestExactCosts:
    def test_common_power_of_ten_denominator(self):
        costs = (0.1, 0.2, 0.3, -0.5, 2.0, 1e-05, 1e22, 0.0)
        g = DirectedGraph(
            tuple("abcdefghi"), tuple(zip("abcdefgh", "bcdefghi")), costs
        )
        assert exact_costs(g) == (
            10**4, 2 * 10**4, 3 * 10**4, -5 * 10**4, 2 * 10**5, 1, 10**27, 0,
        )
        tenth, fifth, three_tenths = exact_costs(g)[:3]
        assert tenth + fifth == three_tenths and 0.1 + 0.2 != 0.3

    def test_parsed_text(self, five_vertex_graph):
        # repr(4.0) is '4.0': one decimal place
        assert exact_costs(five_vertex_graph) == tuple(10 * int(c) for c in five_vertex_graph.costs)
        g = parse_graph("vertices: a b\na b 2.50\nb a -1e-3\n")
        assert exact_costs(g) == (2500, -1)

    def test_missing_costs(self, four_vertex_graph):
        with pytest.raises(ValueError):
            exact_costs(four_vertex_graph)


class TestVertexPath:
    def test_too_short(self):
        with pytest.raises(PathError):
            VertexPath(("a",))
