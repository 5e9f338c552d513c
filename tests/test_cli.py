import contextlib
import decimal
import io
import itertools
import json
import random
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinpaths import bruteforce, cli, enumeration
from latinpaths.cli import _BATCH, _emit_result, _load_graph, _run_words, build_parser, main
from latinpaths.enumeration import WordLimitError, latin_powers
from latinpaths.graph import DirectedGraph, VertexPath, parse_graph, path_cost, serialize_graph
from latinpaths.words import Alphabet, enumerate_distinguished

from conftest import FIVE_VERTEX_TEXT, FOUR_VERTEX_TEXT, as_word, kernel_entries


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


@pytest.fixture(scope="module")
def four_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "four.txt"
    path.write_text(FOUR_VERTEX_TEXT)
    return str(path)


@pytest.fixture(scope="module")
def five_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "five.txt"
    path.write_text(FIVE_VERTEX_TEXT)
    return str(path)


@pytest.fixture(scope="module")
def decimal_file(tmp_path_factory):
    """K8 minus the Hamiltonian cycle v0 -> v1 -> ... -> v7 -> v0, with
    costs 0.1..0.7, whose sums do not round-trip (0.1 + 0.2)."""
    names = [f"v{i}" for i in range(8)]
    arcs = "".join(
        f"{u} {v} 0.{(3 * i + 5 * j) % 7 + 1}\n"
        for i, u in enumerate(names)
        for j, v in enumerate(names)
        if i != j and (j - i) % 8 != 1
    )
    path = tmp_path_factory.mktemp("graphs") / "decimal.txt"
    path.write_text("vertices: " + " ".join(names) + "\n" + arcs)
    return str(path)


class TestPaths:
    def test_two_paths_json(self, four_file):
        payload = run_json("paths", four_file, "-i", "v1", "-j", "v4", "-k", "2")
        assert payload["count"] == 2
        assert [item["vertices"] for item in payload["items"]] == [
            ["v1", "v2", "v4"],
            ["v1", "v3", "v4"],
        ]
        assert all(item["length"] == 2 for item in payload["items"])
        assert all(item["cost"] is None for item in payload["items"])

    def test_text_output(self, four_file):
        code, out, _ = run_cli("paths", four_file, "-i", "v1", "-j", "v4", "-k", "2")
        assert code == 0
        assert out == "v1-v2-v4\nv1-v3-v4\n"

    def test_empty_is_success(self, four_file):
        code, out, _ = run_cli("paths", four_file, "-i", "v3", "-j", "v2", "-k", "1")
        assert code == 0
        assert out == ""

    def test_length_too_large_is_usage_error(self, four_file):
        code, _, err = run_cli("paths", four_file, "-i", "v1", "-j", "v4", "-k", "4")
        assert code == 2
        assert "error" in err

    def test_unknown_vertex(self, four_file):
        code, _, _ = run_cli("paths", four_file, "-i", "nope", "-j", "v4", "-k", "2")
        assert code == 2

    def test_same_endpoints_fail_alike_on_both_engines(self, four_file):
        query = ("paths", four_file, "-i", "v2", "-j", "v2", "-k", "2")
        code, out, err = run_cli(*query)
        assert (code, out) == (2, "")
        assert err == "error: source equals target; a path needs distinct endpoints\n"
        assert run_cli(*query, "--engine", "oracle") == (code, out, err)


class TestCircuits:
    def test_full_tour(self, five_file):
        payload = run_json("circuits", five_file, "-i", "1", "-k", "5")
        assert payload["count"] == 1
        assert payload["items"][0]["vertices"] == ["1", "5", "4", "3", "2", "1"]
        assert payload["items"][0]["cost"] == 16

    def test_out_of_range(self, five_file):
        code, _, _ = run_cli("circuits", five_file, "-i", "1", "-k", "6")
        assert code == 2


class TestHamiltonian:
    def test_circuits_with_costs(self, five_file):
        payload = run_json("hamiltonian", five_file, "--kind", "circuit")
        assert payload["count"] == 5
        assert all(item["cost"] == 16 for item in payload["items"])

    def test_single_path(self, four_file):
        payload = run_json("hamiltonian", four_file, "--kind", "path")
        assert payload["count"] == 1
        assert payload["items"][0]["vertices"] == ["v1", "v2", "v3", "v4"]


def _power_words(graph) -> list[int]:
    """Words in each power 1..n, as the guard counts them: paths and
    circuits, though the kernel stores only the paths."""
    return [sum(len(words) for row in power for words in row) for power in kernel_entries(graph)]


class TestPowersBuilt:
    """What each command builds, recorded as every `_depths` call and its
    (targets, depth).  Where `_fits` proves that no power 1..n-1 goes over
    the limit, `paths`, `circuits` and `matrix` build only the columns and
    depths they read: column J to depth K, column I to depth K-1, every
    column to depth min(K, n-1).  Under a lower limit they build every
    column to depth n-1, whose guard decides the outcome, and keep the
    columns and depths they read.  `hamiltonian --kind path` builds every
    column to depth n-1 and reads power n-1 alone; `hamiltonian --kind
    circuit` builds column 1 alone.  No command calls `latin_powers`
    (`TestOptimal.test_builds_no_latin_powers`)."""

    def test_depth_per_command(self, five_file, tmp_path, monkeypatch):
        built = []
        depths = enumeration._depths

        def recording_depths(graph, targets, depth, word_limit):
            built.append((tuple(targets), depth))
            return depths(graph, targets, depth, word_limit)

        monkeypatch.setattr(enumeration, "_depths", recording_depths)
        one = tmp_path / "one.txt"
        one.write_text("vertices: a\na a\n")
        every = tuple(range(5))
        # the five-vertex graph's powers hold 12, 29, 34, 23 and 5 words;
        # `_fits` holds from a limit of 59 up
        full = [(every, 4)]
        queries = {
            ("hamiltonian", five_file, "--kind", "path"): full,
            ("hamiltonian", five_file, "--kind", "circuit"): [((0,), 4)],
            ("paths", five_file, "-i", "1", "-j", "2", "-k", "3"): [((1,), 3)],
            ("paths", five_file, "-i", "1", "-j", "2", "-k", "3", "--limit", "59"): [((1,), 3)],
            ("paths", five_file, "-i", "1", "-j", "2", "-k", "3", "--limit", "58"): full,
            ("circuits", five_file, "-i", "1", "-k", "5"): [((0,), 4)],
            ("circuits", five_file, "-i", "3", "-k", "2", "--limit", "34"): full,
            ("matrix", five_file, "-k", "2"): [(every, 2)],
            ("matrix", five_file, "-k", "4"): [(every, 4)],
            ("matrix", five_file, "-k", "5"): [(every, 4)],
            ("matrix", five_file, "-k", "5", "--limit", "34"): full,
            ("hamiltonian", str(one), "--kind", "circuit"): [((0,), 0)],
            ("circuits", str(one), "-i", "a", "-k", "1"): [((0,), 0)],
            ("circuits", str(one), "-i", "a", "-k", "1", "--limit", "1"): [((0,), 0)],
            ("matrix", str(one), "-k", "1"): [((0,), 0)],
        }
        for query, expected in queries.items():
            built.clear()
            code, _, err = run_cli(*query)
            assert code == 0, err
            assert built == expected, query
        # under a limit that a power goes over, the full build refuses
        built.clear()
        code, _, err = run_cli("paths", five_file, "-i", "1", "-j", "2", "-k", "1", "--limit", "33")
        assert (code, err) == (3, "error: latin power 3 holds more words than the limit of 33\n")
        assert built == full

    def test_one_vertex_path_query_is_refused(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("vertices: a\na a\n")
        for engine in ("lcdl", "oracle"):
            code, out, err = run_cli("hamiltonian", str(path), "--kind", "path", "--engine", engine)
            error = "error: Hamiltonian paths need at least 2 vertices\n"
            assert (code, out, err) == (2, "", error)


def assert_path_guard_matches_full_powers(graph, path):
    """At each limit L that is a power's word count or one less, the path
    query exits 3 exactly when building all n powers under L fails, with
    the same message, and power n holds no more words than power n-1."""
    path.write_text(serialize_graph(graph))
    counts = _power_words(graph)
    assert counts[-1] <= counts[-2], counts
    for limit in sorted({c - d for c in counts for d in (0, 1) if c - d >= 1}):
        code, out, err = run_cli("hamiltonian", str(path), "--kind", "path", "--limit", str(limit))
        try:
            latin_powers(graph, limit)
        except WordLimitError as exc:
            assert (code, out, err) == (3, "", f"error: {exc}\n"), (graph, limit)
        else:
            assert (code, err) == (0, ""), (graph, limit)


class TestPathDepthGuard:
    def test_corpus(self, corpus, tmp_path):
        for graph in corpus:
            assert_path_guard_matches_full_powers(graph, tmp_path / "graph.txt")

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
            )
        )
    )
    def test_random_graphs_with_loops(self, tmp_path_factory, shape):
        n, arcs = shape
        names = tuple(f"v{i}" for i in range(n))
        graph = DirectedGraph(names, tuple((names[u], names[v]) for u, v in sorted(arcs)))
        path = tmp_path_factory.mktemp("guard") / "graph.txt"
        assert_path_guard_matches_full_powers(graph, path)


def assert_circuit_guard_refuses_no_more(graph, path) -> int:
    """At each limit L that is a power's word count or one less, the circuit
    query exits 3 only where building the powers under L fails, with stdout
    empty; where it answers, it answers as under the default limit.
    Returns how many of these limits the powers refuse and it answers."""
    path.write_text(serialize_graph(graph))
    query = ("hamiltonian", str(path), "--kind", "circuit")
    code, full, err = run_cli(*query)
    assert (code, err) == (0, "")
    answered = 0
    counts = _power_words(graph)
    for limit in sorted({c - d for c in counts for d in (0, 1) if c - d >= 1}):
        code, out, err = run_cli(*query, "--limit", str(limit))
        try:
            latin_powers(graph, limit)
        except WordLimitError:
            refused = True
        else:
            refused = False
        if code == 3:
            assert refused, (graph, limit)
            assert out == "" and err.startswith("error: latin power "), (graph, limit)
            assert err.endswith(f" holds more words than the limit of {limit}\n"), err
        else:
            assert (code, out, err) == (0, full, ""), (graph, limit)
            answered += refused
    return answered


class TestCircuitGuard:
    def test_corpus(self, corpus, tmp_path):
        answered = sum(assert_circuit_guard_refuses_no_more(g, tmp_path / "g.txt") for g in corpus)
        # column 1 holds fewer words than the whole power
        assert answered > 0

    def test_complete_digraph_seven(self, tmp_path):
        # K7's power 5 holds 7*6*5*4*3*2 = 5,040 paths and 7*6*5*4*3 = 2,520
        # circuits; column 1 peaks at 720 + 720 words at depth 6, and
        # power 7 holds the 7 rotations of 6! = 720 circuits: 5,040 words.
        path = tmp_path / "k7.txt"
        names = [f"v{i}" for i in range(1, 8)]
        arcs = "".join(f"{u} {v}\n" for u in names for v in names if u != v)
        path.write_text(f"vertices: {' '.join(names)}\n{arcs}")
        with pytest.raises(WordLimitError, match="^latin power 5 "):
            latin_powers(parse_graph(path.read_text()), 5040)
        query = ("hamiltonian", str(path), "--kind", "circuit")
        code, out, err = run_cli(*query, "--limit", "5040")
        assert (code, err) == (0, "")
        assert out == run_cli(*query)[1]
        assert len(out.splitlines()) == 5040
        error = "error: latin power 7 holds more words than the limit of 5039\n"
        assert run_cli(*query, "--limit", "5039") == (3, "", error)


class TestCount:
    def test_count_value(self, four_file):
        code, out, _ = run_cli("count", four_file, "-i", "v1", "-j", "v4", "-k", "3")
        assert code == 0
        assert out == "5\n"

    def test_count_json(self, four_file):
        payload = run_json("count", four_file, "-i", "v1", "-j", "v4", "-k", "3")
        assert payload["value"] == 5

    @pytest.mark.parametrize("engine", ["lcdl", "oracle"])
    def test_counts_beyond_the_int_text_cap(self, tmp_path, engine):
        # more than the 4,300 digits Python 3.11 converts to text by default
        path = tmp_path / "k5.txt"
        names = [f"v{i}" for i in range(5)]
        arcs = "".join(f"{u} {v}\n" for u in names for v in names if u != v)
        path.write_text(f"vertices: {' '.join(names)}\n{arcs}")
        query = ("count", str(path), "-i", "v0", "-j", "v1", "-k", "8000", "--engine", engine)
        expected = (4**8000 - (-1) ** 8000) // 5
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run_cli(*query)
        assert code == 0, err
        json_code, json_out, err = run_cli(*query, "--format", "json")
        assert json_code == 0, err
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit  # restored by the CLI
            sys.set_int_max_str_digits(0)  # to parse the output here
        try:
            assert int(out) == expected
            assert json.loads(json_out)["value"] == expected
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)


class TestOptimal:
    def test_min_path(self, five_file):
        payload = run_json(
            "optimal", five_file, "--kind", "path",
            "--from", "4", "--to", "1", "--objective", "min",
        )
        assert payload["items"][0]["vertices"] == ["4", "5", "3", "2", "1"]
        assert payload["items"][0]["cost"] == 10

    def test_max_path(self, five_file):
        payload = run_json(
            "optimal", five_file, "--kind", "path",
            "--from", "4", "--to", "1", "--objective", "max",
        )
        assert payload["items"][0]["vertices"] == ["4", "3", "2", "5", "1"]
        assert payload["items"][0]["cost"] == 15

    def test_without_costs_fails(self, four_file):
        for engine in ("lcdl", "oracle"):
            code, _, err = run_cli("optimal", four_file, "--kind", "path", "--engine", engine)
            assert code == 2
            assert "needs arc costs" in err

    @pytest.mark.parametrize("engine", ["lcdl", "oracle"])
    def test_circuit_to_is_from(self, five_file, engine):
        # a circuit ends where it starts; the first circuit overall starts at 1
        query = ("optimal", five_file, "--kind", "circuit", "--engine", engine)
        to_3 = run_json(*query, "--to", "3")
        assert to_3["items"] == run_json(*query, "--from", "3")["items"]
        assert to_3["items"][0]["vertices"] == ["3", "2", "1", "5", "4", "3"]

    def test_no_candidates(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("vertices: a b\na b 1\n")
        code, out, _ = run_cli("optimal", str(path), "--kind", "circuit")
        assert code == 0
        assert out == "none\n"

    @pytest.mark.parametrize("flag", ["--from", "--to"])
    @pytest.mark.parametrize("engine", ["lcdl", "oracle"])
    def test_unknown_vertex(self, tmp_path, engine, flag):
        path = tmp_path / "tri.txt"
        path.write_text("vertices: a b c\na b 1\nb c 1\nc a 1\n")
        for kind in ("path", "circuit"):
            code, out, err = run_cli(
                "optimal", str(path), "--kind", kind, flag, "zz", "--engine", engine
            )
            assert (code, out) == (2, "")
            assert "unknown vertex 'zz'" in err

    @pytest.mark.parametrize("engine", ["lcdl", "oracle"])
    def test_exact_tie(self, tmp_path, engine):
        # a-b-c and a-c-b both cost 0.3 in decimals; the first in canonical
        # order wins, printed with its exact sum, which every path prints
        path = tmp_path / "tie.txt"
        path.write_text("vertices: a b c\na b 0.1\nb c 0.2\na c 0.3\nc b 0\n")
        query = ("--kind", "path", "--engine", engine)
        assert run_cli("optimal", str(path), *query, "--from", "a")[:2] == (0, "a-b-c cost=0.3\n")
        assert run_cli("optimal", str(path), *query)[:2] == (0, "a-b-c cost=0.3\n")
        assert run_cli("hamiltonian", str(path), *query)[:2] == (
            0, "a-b-c cost=0.3\na-c-b cost=0.3\n"
        )
        # a-c-b is cheaper by 1e-20, below a float's resolution at 0.3
        path.write_text("vertices: a b c\na b 0.1\nb c 0.2\na c 0.29999999999999999999\nc b 0\n")
        code, out, _ = run_cli("optimal", str(path), *query, "--from", "a")
        assert (code, out) == (0, "a-c-b cost=0.29999999999999999999\n")
        code, out, _ = run_cli("optimal", str(path), *query, "--from", "a", "--format", "json")
        assert code == 0 and '"cost": 0.29999999999999999999\n' in out
        assert json.loads(out, parse_float=Decimal)["items"][0]["cost"] == Decimal(
            "0.29999999999999999999"
        )

    def test_feasible_where_enumeration_is_not(self, tmp_path):
        names = [f"v{i}" for i in range(1, 13)]
        arcs = [(u, v) for u in names for v in names if u != v]
        path = tmp_path / "k12.txt"
        path.write_text(
            "vertices: " + " ".join(names) + "\n"
            + "".join(f"{u} {v} {a % 4 + 1}\n" for a, (u, v) in enumerate(arcs))
        )
        code, out, _ = run_cli("optimal", str(path), "--kind", "path")
        assert code == 0 and out.count("-") == 11
        # the recurrence's largest power holds 12 * C(11, 5) = 5544 entries;
        # the third latin power holds 12*11*10*9 paths and 12*11*10 circuits
        limit = ("--limit", "5544")
        assert run_cli("optimal", str(path), "--kind", "path", *limit)[:2] == (0, out)
        code, out, err = run_cli("hamiltonian", str(path), "--kind", "path", *limit)
        assert (code, out) == (3, "")
        assert "latin power 3 holds more words than the limit of 5544" in err

    def test_builds_no_latin_powers(self, five_file, monkeypatch):
        # No command calls `latin_powers`, on either side of `_fits`.  The
        # five-vertex graph's powers hold 12, 29, 34, 23 and 5 words:
        # `_fits` holds at a limit of 59 and fails at 58, where the column
        # queries build every column to depth 4 and answer alike; at 33
        # that build refuses power 3.
        def refuse(*args, **kwargs):
            raise AssertionError("latin_powers called")

        monkeypatch.setattr(enumeration, "latin_powers", refuse)
        graph = parse_graph(FIVE_VERTEX_TEXT)
        assert enumeration._fits(graph, 59) and not enumeration._fits(graph, 58)
        refused = "error: latin power 3 holds more words than the limit of 33\n"
        for query, refusal in {
            ("hamiltonian", "--kind", "path"): refused,
            ("hamiltonian", "--kind", "circuit"): None,
            ("paths", "-i", "1", "-j", "2", "-k", "3"): refused,
            ("circuits", "-i", "3", "-k", "2"): refused,
            ("circuits", "-i", "1", "-k", "5"): refused,
            ("matrix", "-k", "2"): refused,
            ("matrix", "-k", "5"): refused,
            ("optimal", "--kind", "path"): None,
            ("optimal", "--kind", "circuit"): None,
        }.items():
            command, *rest = query
            code, out, err = run_cli(command, five_file, *rest, "--limit", "59")
            assert (code, err) == (0, ""), query
            assert run_cli(command, five_file, *rest, "--limit", "58") == (0, out, ""), query
            if refusal is not None:
                assert run_cli(command, five_file, *rest, "--limit", "33") == (3, "", refusal)
        assert run_cli("count", five_file, "-i", "1", "-j", "2", "-k", "3")[0] == 0
        assert run_cli("optimal", five_file, "--kind", "path", "--limit", "3")[0] == 3


class TestMatrix:
    def test_square_table(self, four_file):
        code, out, _ = run_cli("matrix", four_file, "-k", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("  ")[-1].strip() == "{v1-v2-v4, v1-v3-v4}"
        assert "{v2-v3-v4}" in lines[1]

    def test_json_rows(self, four_file):
        payload = run_json("matrix", four_file, "-k", "3")
        assert payload["rows"][0][3] == "{v1-v2-v3-v4}"
        assert payload["rows"][3] == ["^", "^", "^", "^"]

    def test_out_of_range(self, four_file):
        code, _, _ = run_cli("matrix", four_file, "-k", "5")
        assert code == 2
        code, _, _ = run_cli("matrix", four_file, "-k", "5", "--engine", "oracle")
        assert code == 2

    def test_oracle_ignores_word_limit(self, five_file):
        code, _, _ = run_cli("matrix", five_file, "-k", "2", "--limit", "1")
        assert code == 3
        code, out, err = run_cli("matrix", five_file, "-k", "2", "--limit", "1", "--engine", "oracle")
        assert code == 0, err
        assert out == run_cli("matrix", five_file, "-k", "2")[1]

    def test_engines_agree_on_the_corpus(self, corpus, tmp_path):
        """Every power of the graphs the golden digests pin the lcdl table
        on: the oracle's table is the same, byte for byte."""
        path = tmp_path / "graph.txt"
        for graph in corpus[:20]:
            path.write_text(serialize_graph(graph))
            for k in range(1, graph.n + 1):
                for fmt in ("text", "json"):
                    query = ("matrix", str(path), "-k", str(k), "--format", fmt)
                    code, lcdl_out, err = run_cli(*query)
                    assert code == 0, err
                    assert run_cli(*query, "--engine", "oracle") == (0, lcdl_out, ""), (graph, k)


class TestWideLetters:
    """A graph of 300 vertices: the words through v256 and above are
    strings of two bytes per letter.  Both engines give the same bytes.
    Its arcs run from level v % 3 to the next, so that no path is longer
    than two arcs but through the three triangles."""

    N = 300

    @pytest.fixture(scope="class")
    def wide_file(self, tmp_path_factory):
        rng = random.Random(300)
        names = [f"v{i}" for i in range(self.N)]
        arcs = {
            (u, v)
            for u in range(self.N)
            if u % 3 < 2
            for v in rng.sample(range(u % 3 + 1, self.N, 3), 3)
        }
        # triangles across the one-byte and two-byte letters
        for a, b, c in ((256, 280, 299), (10, 260, 255), (299, 0, 257)):
            arcs |= {(a, b), (b, c), (c, a)}
        lines = ["vertices: " + " ".join(names)]
        lines += [f"{names[u]} {names[v]} {(u * 7 + v) % 5 + 0.5}" for u, v in sorted(arcs)]
        path = tmp_path_factory.mktemp("wide") / "wide.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_engines_agree(self, wide_file):
        graph = _load_graph(wide_file)
        succ = graph.successors
        queries = [("matrix", "-k", "2")]
        for u in (0, 10, 255, 256, 257, 280, 299):
            ends = sorted({w for m in succ[u] for w in succ[m] if w != u})
            queries += [("paths", "-i", f"v{u}", "-j", f"v{w}", "-k", "2") for w in ends]
            queries.append(("circuits", "-i", f"v{u}", "-k", "3"))
        wide = 0  # answers through a letter of two bytes
        for command, *rest in queries:
            for fmt in ("json", "text"):
                argv = (command, wide_file, *rest, "--format", fmt)
                code, lcdl_out, err = run_cli(*argv)
                assert code == 0, err
                assert run_cli(*argv, "--engine", "oracle") == (0, lcdl_out, ""), argv
            if command != "matrix":
                for line in lcdl_out.splitlines():
                    wide += max(int(v[1:]) for v in line.split()[0].split("-")) > 0xFF
        assert len(queries) > 30 and wide > 20, (len(queries), wide)


class TestWords:
    def test_count_only(self):
        code, out, _ = run_cli("words", "-n", "4", "--count-only")
        assert code == 0
        assert out == "129\n"

    def test_listing(self):
        code, out, _ = run_cli("words", "--alphabet", "a,b")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sigma: 9"
        assert set(lines[1:]) == {
            "^", "a", "b", "a-a", "a-b", "b-a", "b-b", "a-b-a", "b-a-b"
        }

    def test_json(self):
        payload = run_json("words", "--alphabet", "a,b")
        assert payload["sigma"] == 9
        assert len(payload["words"]) == 9

    def test_cap(self):
        code, _, _ = run_cli("words", "-n", "9")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_listing_is_streamed(self, fmt):
        """`words -n 7`, 27,399 words, is the sorted census in the layout of
        one `json.dumps(indent=2)` (or a line per word), written a batch at
        a time: neither the words nor the text are held whole."""
        alphabet = Alphabet(tuple("1234567"))
        census = sorted(enumerate_distinguished(alphabet), key=lambda w: (len(w.indices), w.indices))
        listing = [w.render(alphabet) for w in census]
        if fmt == "json":
            query = {"command": "words", "alphabet": list(alphabet.symbols)}
            payload = {"query": query, "sigma": len(listing), "words": listing}
            expected = json.dumps(payload, indent=2) + "\n"
        else:
            expected = f"sigma: {len(listing)}\n" + "".join(w + "\n" for w in listing)
        args = build_parser().parse_args(["words", "-n", "7", "--format", fmt])
        assert "".join(_run_words(args)) == expected
        tracemalloc.start()
        try:
            size = sum(map(len, _run_words(args)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size == len(expected) > 350_000
        assert peak < 2_000_000

    def test_census_beyond_the_int_text_cap(self):
        # sigma(1600) has 4,435 digits, over the 4,300 Python 3.11 converts
        code, out, _ = run_cli("words", "-n", "1600", "--count-only")
        assert code == 0 and len(out) == 4436
        code, json_out, _ = run_cli("words", "-n", "1600", "--count-only", "--format", "json")
        assert code == 0 and f'"sigma": {out.strip()}' in json_out


class TestErrorsAndGuards:
    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("vertices: a b\na q\n")
        code, _, err = run_cli("paths", str(path), "-i", "a", "-j", "b", "-k", "1")
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self):
        code, _, _ = run_cli("paths", "/nonexistent", "-i", "a", "-j", "b", "-k", "1")
        assert code == 2

    def test_usage_error(self):
        code, _, _ = run_cli("paths")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("count", "FILE", "-i", "v1", "-j", "v4", "-k", "1", "--dot", "DOT"),
        ("count", "FILE", "-i", "v1", "-j", "v4", "-k", "1", "--limit", "5"),
        ("matrix", "FILE", "-k", "1", "--dot", "DOT"),
        ("words", "-n", "2", "--dot", "DOT"),
        ("words", "-n", "2", "--engine", "oracle"),
        ("words", "-n", "2", "--limit", "5"),
    ])
    def test_flags_a_command_does_not_honour(self, four_file, tmp_path, argv):
        dot = tmp_path / "out.dot"
        names = {"FILE": four_file, "DOT": str(dot)}
        code, out, err = run_cli(*(names.get(a, a) for a in argv))
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {argv[-2]} " in err
        assert not dot.exists()

    @pytest.mark.parametrize("engine", ["lcdl", "oracle"])
    @pytest.mark.parametrize("graph, argv, message", [
        pytest.param("four", ("paths", "-i", "v1", "-j", "nope", "-k", "2"),
                     "unknown vertex 'nope'", id="paths-unknown-vertex"),
        pytest.param("four", ("paths", "-i", "v1", "-j", "v1", "-k", "2"),
                     "source equals target; a path needs distinct endpoints", id="paths-same-ends"),
        pytest.param("four", ("paths", "-i", "v1", "-j", "v2", "-k", "99"),
                     "path length 99 out of range 1..3", id="paths-k"),
        pytest.param("four", ("circuits", "-i", "nope", "-k", "3"),
                     "unknown vertex 'nope'", id="circuits-unknown-vertex"),
        pytest.param("four", ("circuits", "-i", "v1", "-k", "99"),
                     "circuit length 99 out of range 1..4", id="circuits-k"),
        pytest.param("four", ("matrix", "-k", "99"), "power 99 out of range 1..4", id="matrix-k"),
        pytest.param("one", ("hamiltonian", "--kind", "path"),
                     "Hamiltonian paths need at least 2 vertices", id="hamiltonian-one-vertex"),
        pytest.param("one", ("optimal", "--kind", "path"),
                     "Hamiltonian paths need at least 2 vertices", id="optimal-one-vertex"),
        pytest.param("four", ("optimal", "--kind", "path"),
                     "optimal selection needs arc costs", id="optimal-path-no-costs"),
        pytest.param("four", ("optimal", "--kind", "circuit"),
                     "optimal selection needs arc costs", id="optimal-circuit-no-costs"),
        pytest.param("five", ("optimal", "--kind", "path", "--from", "nope"),
                     "unknown vertex 'nope'", id="optimal-unknown-from"),
        pytest.param("five", ("optimal", "--kind", "circuit", "--to", "nope"),
                     "unknown vertex 'nope'", id="optimal-unknown-to"),
        pytest.param("four", ("count", "-i", "v1", "-j", "v2", "-k", "0"),
                     "path length must be at least 1", id="count-k"),
        pytest.param("four", ("count", "-i", "nope", "-j", "v2", "-k", "1"),
                     "unknown vertex 'nope'", id="count-unknown-vertex"),
        pytest.param("four", ("count", "-i", "nope", "-j", "v2", "-k", "0"),
                     "path length must be at least 1", id="count-k-before-names"),
    ])
    def test_arguments_are_checked_before_any_build(
        self, four_file, five_file, tmp_path, monkeypatch, engine, graph, argv, message
    ):
        # A query refuses bad arguments before it builds a power, runs the
        # optimal recurrence or lists the oracle's candidates, so no guard
        # can fire first.  held_karp and dfs_hamiltonian are themselves the
        # queries of lcdl `optimal` and oracle `hamiltonian`, and check
        # their arguments before any work; those two calls stay unpatched.
        def refuse(*args, **kwargs):
            raise AssertionError("built before the arguments were checked")

        command, *rest = argv
        query = {("optimal", "lcdl"): "held_karp", ("hamiltonian", "oracle"): "dfs_hamiltonian"}
        for module, name in (
            (enumeration, "latin_powers"),
            (enumeration, "_depths"),
            (enumeration, "held_karp"),
            (bruteforce, "dfs_hamiltonian"),
        ):
            if name != query.get((command, engine)):
                monkeypatch.setattr(module, name, refuse)
        one = tmp_path / "one.txt"
        one.write_text("vertices: a\na a 1\n")
        path = {"four": four_file, "five": five_file, "one": str(one)}[graph]
        # count takes no --limit
        limit = () if command == "count" else ("--limit", "1")
        result = run_cli(command, path, *rest, *limit, "--engine", engine)
        assert result == (2, "", f"error: {message}\n")

    def test_resource_guard(self, five_file):
        code, _, err = run_cli(
            "hamiltonian", five_file, "--kind", "circuit", "--limit", "3"
        )
        assert code == 3
        assert "limit" in err

    def test_resource_guard_optimal(self, five_file):
        code, _, err = run_cli("optimal", five_file, "--kind", "path", "--limit", "3")
        assert code == 3
        assert "limit" in err

    def test_limit_counts_the_first_power(self, tmp_path):
        path = tmp_path / "match.txt"
        path.write_text("vertices: a b c d\na b\nc d\n")
        query = ("paths", str(path), "-i", "a", "-j", "b", "-k", "1")
        code, out, err = run_cli(*query, "--limit", "1")
        assert (code, out) == (3, "")
        assert "latin power 1 holds more words than the limit of 1" in err
        assert run_cli(*query, "--limit", "2")[:2] == (0, "a-b\n")

    def test_limit_refuses_where_powers_one_to_n_minus_one_go_over(self, tmp_path):
        # Column v2 of K8 holds 42 words at depth 2, but the query is
        # refused where building powers 1..7 is: at power 4, 8,400 words
        path = tmp_path / "k8.txt"
        names = [f"v{i}" for i in range(1, 9)]
        arcs = "".join(f"{u} {v}\n" for u in names for v in names if u != v)
        path.write_text(f"vertices: {' '.join(names)}\n{arcs}")
        result = run_cli("paths", str(path), "-i", "v1", "-j", "v2", "-k", "2", "--limit", "5000")
        assert result == (3, "", "error: latin power 4 holds more words than the limit of 5000\n")

    def test_shallow_chain_query_builds_one_column(self, tmp_path):
        # A 360-vertex chain's powers 1..359 hold 64,620 paths of up to 360
        # vertices; column v3 holds one path at depth 2
        path = tmp_path / "chain.txt"
        names = [f"v{i}" for i in range(1, 361)]
        arcs = "".join(f"{u} {v}\n" for u, v in zip(names, names[1:]))
        path.write_text(f"vertices: {' '.join(names)}\n{arcs}")
        tracemalloc.start()
        try:
            result = run_cli("paths", str(path), "-i", "v1", "-j", "v3", "-k", "2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (0, "v1-v2-v3\n", "")
        assert peak < 2_000_000, peak

    @pytest.mark.parametrize("limit", ["0", "-1", "x"])
    def test_limit_must_be_positive(self, five_file, limit):
        for engine in ("lcdl", "oracle"):
            code, out, err = run_cli(
                "hamiltonian", five_file, "--kind", "path", "--limit", limit, "--engine", engine
            )
            assert (code, out) == (2, "")
            assert "argument --limit" in err

    @pytest.mark.parametrize("cost", ["NaN", "sNaN", "Infinity", "1e400"])
    def test_non_finite_cost(self, tmp_path, cost):
        path = tmp_path / "costs.txt"
        path.write_text(f"vertices: a b\na b {cost}\nb a {cost}\n")
        code, _, err = run_cli("paths", str(path), "-i", "a", "-j", "b", "-k", "1")
        assert code == 2
        assert "line 2:" in err

    def test_costs_whose_total_overflows(self, tmp_path):
        # each cost is finite, but a path over both would cost inf
        path = tmp_path / "costs.txt"
        path.write_text("vertices: a b c\na b 1e308\nb c 1e308\n")
        code, out, err = run_cli("optimal", str(path), "--kind", "path", "--format", "json")
        assert (code, out) == (2, "")
        assert "line 3:" in err

    def test_vertex_name_starting_with_hash(self, tmp_path):
        path = tmp_path / "hash.txt"
        path.write_text("vertices: a #b c\na #b\n#b c\n")
        code, out, err = run_cli("hamiltonian", str(path), "--kind", "path")
        assert (code, out) == (2, "")
        assert "line 1:" in err


    def test_more_vertices_than_code_points(self, tmp_path):
        # the names repeat: the count is checked first
        path = tmp_path / "huge.txt"
        path.write_text("# one letter per vertex\nvertices:" + " a" * 0x110001 + "\n")
        code, out, err = run_cli("paths", str(path), "-i", "a", "-j", "a", "-k", "1")
        assert (code, out, err) == (2, "", "error: line 2: more than 1114112 vertices\n")


class TestGraphEncoding:
    QUERY = ("hamiltonian", "FILE", "--kind", "circuit", "--format", "json")

    def run(self, tmp_path, data: bytes, engine: str):
        path = tmp_path / "graph.txt"
        path.write_bytes(data)
        return run_cli(*(str(path) if a == "FILE" else a for a in self.QUERY), "--engine", engine)

    @pytest.mark.parametrize("engine", ["lcdl", "oracle"])
    def test_byte_order_mark_is_skipped(self, tmp_path, engine):
        plain = FIVE_VERTEX_TEXT.encode()
        code, out, err = self.run(tmp_path, b"\xef\xbb\xbf" + plain, engine)
        assert code == 0, err
        assert out == self.run(tmp_path, plain, engine)[1]
        assert json.loads(out)["count"] == 5

    @pytest.mark.parametrize("engine", ["lcdl", "oracle"])
    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_undecodable_byte_names_its_line(self, tmp_path, engine, end):
        data = end.join([b"vertices: a b c", b"a b", b"b \xff c", b""])
        code, out, err = self.run(tmp_path, data, engine)
        assert (code, out) == (2, "")
        assert err == "error: line 3: byte 0xff is not UTF-8\n"

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_bad_byte_reported_in_line_order(self, tmp_path, end):
        in_comment = end.join([b"vertices: a b c", b"# caf\xe9", b"a b", b""])
        code, _, err = self.run(tmp_path, in_comment, "lcdl")
        assert (code, err) == (2, "error: line 2: byte 0xe9 is not UTF-8\n")
        after_malformed = end.join(
            [b"vertices: a b c", b"a b", b"b c a d", b"c a", b"c \xff b", b""]
        )
        code, _, err = self.run(tmp_path, after_malformed, "lcdl")
        assert code == 2
        assert err.startswith("error: line 3: malformed arc line")

    def test_line_count_after_a_byte_order_mark(self, tmp_path):
        code, _, err = self.run(tmp_path, b"\xef\xbb\xbfvertices: a\n\xc3(\n", "lcdl")
        assert code == 2
        assert err == "error: line 2: byte 0xc3 is not UTF-8\n"


class TestDot:
    def test_highlights_result_arcs(self, five_file, tmp_path):
        dot = tmp_path / "out.gv"
        code, _, _ = run_cli(
            "optimal", five_file, "--kind", "path",
            "--from", "4", "--to", "1", "--objective", "min",
            "--dot", str(dot),
        )
        assert code == 0
        text = dot.read_text()
        assert text.startswith("digraph")
        assert '"4" -> "5" [label="4", color="red", penwidth=2];' in text
        assert '"1" -> "2" [label="4"];' in text

    def test_highlights_hamiltonian_arcs_on_both_engines(self, five_file, tmp_path):
        # the five Hamiltonian circuits are the rotations of 1-5-4-3-2-1
        texts = []
        for engine in ("lcdl", "oracle"):
            dot = tmp_path / f"{engine}.gv"
            code, _, _ = run_cli(
                "hamiltonian", five_file, "--kind", "circuit", "--engine", engine, "--dot", str(dot)
            )
            assert code == 0
            texts.append(dot.read_text())
        assert texts[0] == texts[1]
        lines = texts[0].splitlines()
        red = [line for line in lines if 'color="red"' in line]
        assert red == [
            '  "1" -> "5" [label="6", color="red", penwidth=2];',
            '  "2" -> "1" [label="3", color="red", penwidth=2];',
            '  "3" -> "2" [label="1", color="red", penwidth=2];',
            '  "4" -> "3" [label="5", color="red", penwidth=2];',
            '  "5" -> "4" [label="1", color="red", penwidth=2];',
        ]
        assert '  "1" -> "2" [label="4"];' in lines

    def test_escapes_quotes_and_backslashes(self, tmp_path):
        graph = tmp_path / "names.txt"
        graph.write_text('vertices: a"x b\\y\na"x b\\y 1.5\n')
        dot = tmp_path / "out.gv"
        code, _, _ = run_cli(
            "paths", str(graph), "-i", 'a"x', "-j", "b\\y", "-k", "1", "--dot", str(dot)
        )
        assert code == 0
        lines = dot.read_text().splitlines()
        assert '  "a\\"x";' in lines
        assert '  "b\\\\y";' in lines
        assert '  "a\\"x" -> "b\\\\y" [label="1.5", color="red", penwidth=2];' in lines


class TestOracle:
    QUERIES = (
        ("paths", "-i", "4", "-j", "1", "-k", "3"),
        ("circuits", "-i", "1", "-k", "5"),
        ("hamiltonian", "--kind", "path"),
        ("hamiltonian", "--kind", "circuit"),
        ("optimal", "--kind", "path"),
        ("optimal", "--kind", "circuit"),
        *(("matrix", "-k", str(k)) for k in range(1, 6)),
    )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_builds_no_vertex_path(self, five_file, monkeypatch, fmt):
        """The oracle answers with words from the walk to the output."""
        queries = [
            (command, five_file, *rest, "--engine", "oracle", "--format", fmt)
            for command, *rest in self.QUERIES
        ]
        expected = [run_cli(*query) for query in queries]

        def refuse(self, *args):
            raise AssertionError("VertexPath built")

        monkeypatch.setattr(VertexPath, "__init__", refuse)
        with pytest.raises(AssertionError):
            VertexPath(("1", "2"))
        for query, (code, out, err) in zip(queries, expected):
            assert code == 0 and out, (query, err)
            assert run_cli(*query) == (code, out, err), query


# Decimals that tie (0.1 + 0.2 is 0.3), kept as they are or nudged by a few
# units of 1e-24, far below a float's resolution, to 24 to 34 significant
# digits.
LONG_COSTS = st.builds(
    lambda base, nudge: str(decimal.Context(prec=60).add(Decimal(base), Decimal(nudge) / 10**24)),
    st.sampled_from(["0.1", "0.2", "0.3", "1", "-0.5", "1234567890.1"]),
    st.integers(-2, 2),
)


@st.composite
def long_cost_graphs(draw):
    """Edge-list text of up to five vertices with a long cost on every arc,
    and its arcs as (i, j) -> the exact cost."""
    n = draw(st.integers(2, 5))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), unique=True, min_size=1
    ))
    texts = [draw(LONG_COSTS) for _ in pairs]
    lines = ["vertices: " + " ".join(f"v{i}" for i in range(n))]
    lines += [f"v{i} v{j} {c}" for (i, j), c in zip(pairs, texts)]
    return "\n".join(lines) + "\n", n, {p: Fraction(c) for p, c in zip(pairs, texts)}


def _brute_force(n, exact, kind, objective, start, end):
    """The best Hamiltonian path or circuit by trying every vertex order in
    canonical order, priced in Fractions; the first of equal cost wins."""
    best = None
    for order in itertools.permutations(range(n)):
        word = order + order[:1] if kind == "circuit" else order
        arcs = list(zip(word, word[1:]))
        if any(arc not in exact for arc in arcs):
            continue
        if (start is not None and word[0] != start) or (end is not None and word[-1] != end):
            continue
        cost = sum(exact[arc] for arc in arcs)
        if best is None or (cost < best[1] if objective == "min" else cost > best[1]):
            best = (word, cost)
    return best


class TestExactCosts:
    @settings(max_examples=150, deadline=None)
    @given(case=long_cost_graphs())
    def test_selection_matches_a_fraction_brute_force(self, tmp_path_factory, case):
        text, n, exact = case
        path = tmp_path_factory.mktemp("exact") / "graph.txt"
        path.write_text(text)
        graph = parse_graph(text)
        ends = [(None, None), (0, None), (None, n - 1), (n - 1, 0)]
        shapes = itertools.product(("path", "circuit"), ("min", "max"), ends)
        for kind, objective, (s, t) in shapes:
            if kind == "circuit" and s is not None and t is not None:
                s = t  # a circuit ends where it starts
            expected = _brute_force(n, exact, kind, objective, s, t)
            names = [None if x is None else f"v{x}" for x in (s, t)]
            got = [enumeration.held_karp(graph, kind, objective, *names)] + [
                enumeration.optimal_hamiltonian(graph, kind, candidates, objective, *names)
                for candidates in (enumeration.hamiltonian, bruteforce.dfs_hamiltonian)
            ]
            for best in got:
                if expected is None:
                    assert best is None
                else:  # priced in units of 1/graph.denominator
                    word, cost = expected
                    assert (best[0], Fraction(best[1], graph.denominator)) == (as_word(word), cost)
            flags = [f for flag, x in zip(("--from", "--to"), names) if x for f in (flag, x)]
            for engine in ("lcdl", "oracle"):
                code, out, _ = run_cli(
                    "optimal", str(path), "--kind", kind, "--objective", objective,
                    *flags, "--engine", engine, "--format", "json",
                )
                items = json.loads(out)["items"]  # every cost text is a JSON number
                assert code == 0 and len(items) == (expected is not None)
                if expected is not None:
                    assert Decimal(_cost_of(out)[0]) == expected[1]

    @settings(max_examples=60, deadline=None)
    @given(case=long_cost_graphs())
    def test_every_json_cost_is_the_exact_sum(self, tmp_path_factory, case):
        text, _, exact = case
        path = tmp_path_factory.mktemp("exact") / "graph.txt"
        path.write_text(text)
        for kind, engine in itertools.product(("path", "circuit"), ("lcdl", "oracle")):
            code, out, _ = run_cli(
                "hamiltonian", str(path), "--kind", kind, "--engine", engine, "--format", "json"
            )
            items = json.loads(out)["items"]
            assert code == 0
            for item, cost in zip(items, _cost_of(out), strict=True):
                word = [int(v[1:]) for v in item["vertices"]]
                assert Decimal(cost) == sum(exact[arc] for arc in zip(word, word[1:]))


def _cost_of(out: str) -> list[str]:
    """The text of each item's cost in JSON output."""
    return [line.split(": ")[1] for line in out.splitlines() if line.startswith('      "cost": ')]


class TestJsonContract:
    def test_round_trip_byte_identical(self, five_file):
        _, out, _ = run_cli(
            "hamiltonian", five_file, "--kind", "circuit", "--format", "json"
        )
        reparsed = json.dumps(json.loads(out), indent=2) + "\n"
        assert reparsed == out

    def test_engine_agreement_on_examples(self, four_file, five_file, decimal_file):
        queries = [
            ("paths", four_file, "-i", "v1", "-j", "v4", "-k", "2"),
            ("paths", four_file, "-i", "v1", "-j", "v4", "-k", "3"),
            ("circuits", five_file, "-i", "1", "-k", "5"),
            ("circuits", four_file, "-i", "v1", "-k", "1"),
            ("hamiltonian", five_file, "--kind", "circuit"),
            ("hamiltonian", five_file, "--kind", "path"),
            ("count", four_file, "-i", "v1", "-j", "v4", "-k", "3"),
            ("optimal", five_file, "--kind", "path", "--from", "4", "--to", "1"),
            ("optimal", five_file, "--kind", "path", "--objective", "max"),
            ("optimal", five_file, "--kind", "circuit"),
            ("optimal", five_file, "--kind", "circuit", "--from", "3", "--objective", "max"),
            ("optimal", five_file, "--kind", "circuit", "--to", "3"),
            ("matrix", four_file, "-k", "1"),
            ("matrix", four_file, "-k", "2"),
            ("matrix", five_file, "-k", "3"),
            ("matrix", five_file, "-k", "5"),
            ("hamiltonian", decimal_file, "--kind", "path"),
            ("hamiltonian", decimal_file, "--kind", "circuit"),
            ("paths", decimal_file, "-i", "v0", "-j", "v5", "-k", "4"),
            ("circuits", decimal_file, "-i", "v0", "-k", "5"),
            ("matrix", decimal_file, "-k", "3"),
            ("optimal", decimal_file, "--kind", "path"),
            ("optimal", decimal_file, "--kind", "circuit"),
        ]
        for query in queries:
            for fmt in ("json", "text"):
                _, lcdl_out, _ = run_cli(*query, "--format", fmt, "--engine", "lcdl")
                _, oracle_out, _ = run_cli(*query, "--format", fmt, "--engine", "oracle")
                assert lcdl_out == oracle_out, (query, fmt)
                if fmt == "json":
                    json.loads(lcdl_out)


def _named_cost(graph, names):
    """The exact cost of a path of vertex names: the Fraction of each arc
    cost's repr, looked up by name, added up.  Independent of `path_cost`."""
    named = dict(zip(graph.arcs, graph.costs))
    return sum(Fraction(repr(named[arc])) for arc in zip(names, names[1:]))


def _cost_text(cost: Fraction, as_json: bool) -> str:
    """The text of an exact cost: the digits of an integral cost in text;
    else the repr of the nearest float when it stands for the cost exactly;
    else the exact decimal.  Independent of `graph.cost_text`."""
    if cost.denominator == 1 and not as_json:
        return str(cost.numerator)
    text = repr(float(cost))
    if Fraction(text) == cost:
        return text
    with decimal.localcontext() as context:
        context.prec, context.traps[decimal.Inexact] = 1000, True
        return format(Decimal(cost.numerator) / cost.denominator, "f")


def _item_json(names, cost):
    """One item of the enumeration schema, as a dict for `json.dumps`."""
    return {"vertices": list(names), "length": len(names) - 1, "cost": cost}


# Vertex names the parser would refuse or never produce, and costs whose
# JSON text is easy to get wrong; sums of 0.1 and 0.2 do not round-trip.
AWKWARD_NAMES = st.text(
    alphabet=st.sampled_from(
        ["a", "é", "中", "😀", '"', "\\", "\x00", "\x1f", "\n", "\t", " ", "\u2028", "#", "-"]
    ),
    min_size=1,
    max_size=4,
)
AWKWARD_COSTS = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, -0.0, 0.0, 1e16, 1e-07, 1e300, -1e300, -2.5, 4.0, 5e-324]),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
)


@st.composite
def emitted_answers(draw):
    """A graph built directly, walks along its arcs as words, and a
    query head."""
    names = draw(st.lists(AWKWARD_NAMES, min_size=1, max_size=5, unique=True))
    pairs = [(i, j) for i in range(len(names)) for j in range(len(names))]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    costs = None
    if draw(st.booleans()):
        costs = tuple(draw(AWKWARD_COSTS) for _ in arcs)
    graph = DirectedGraph(tuple(names), tuple((names[i], names[j]) for i, j in arcs), costs)
    items = []
    for _ in range(draw(st.integers(0, 4)) if arcs else 0):
        walk = list(draw(st.sampled_from(arcs)))
        for _ in range(draw(st.integers(0, 4))):
            successors = [j for i, j in arcs if i == walk[-1]]
            if not successors:
                break
            walk.append(draw(st.sampled_from(successors)))
        items.append(as_word(walk))
    name_or_none = st.one_of(st.none(), st.sampled_from(names))
    query = draw(st.sampled_from([
        {"command": "paths", "source": draw(AWKWARD_NAMES), "target": names[0],
         "length": draw(st.integers(-3, 9))},
        {"command": "hamiltonian", "kind": "circuit"},
        {"command": "optimal", "kind": "path", "objective": "max",
         "from": draw(name_or_none), "to": draw(name_or_none)},
    ]))
    return graph, query, items


class TestEmitter:
    @settings(max_examples=300, deadline=None)
    @given(answer=emitted_answers())
    def test_json_is_the_indented_dump(self, answer):
        """The output of `json.dumps(payload, indent=2)`, byte for byte,
        with each cost's text in place of a marker."""
        graph, query, items = answer
        paths = [[graph.vertices[ord(c)] for c in w] for w in items]
        costs = [
            None if graph.costs is None else _cost_text(_named_cost(graph, p), True)
            for p in paths
        ]
        payload = {
            "query": query,
            "items": [
                _item_json(p, None if c is None else f"@cost{k}@")
                for k, (p, c) in enumerate(zip(paths, costs))
            ],
            "count": len(items),
        }
        expected = json.dumps(payload, indent=2) + "\n"
        for k, cost in enumerate(costs):
            expected = expected.replace(f'"@cost{k}@"', str(cost))
        out = "".join(_emit_result(graph, query, items, "json", ""))
        assert out == expected
        parsed = json.loads(out, parse_float=Decimal)["items"]
        for p, item in zip(paths, parsed):
            if graph.costs is not None:
                assert Decimal(item["cost"]) == _named_cost(graph, p)

    @settings(max_examples=300, deadline=None)
    @given(answer=emitted_answers())
    def test_text_lines(self, answer):
        graph, query, items = answer
        paths = [[graph.vertices[ord(c)] for c in w] for w in items]
        if graph.costs is not None:
            lines = [
                f"{'-'.join(p)} cost={_cost_text(_named_cost(graph, p), False)}" for p in paths
            ]
        else:
            lines = ["-".join(p) for p in paths]
        expected = "".join(line + "\n" for line in lines) if items else "none\n"
        assert "".join(_emit_result(graph, query, items, "text", "none\n")) == expected

    def test_cost_is_the_exact_sum(self, tmp_path):
        # in floats, (0.1 + 0.2) + 0.3 is 0.6000000000000001 and a
        # compensated sum gives 0.6; the exact sum is 0.6 in any order
        path = tmp_path / "chain.txt"
        path.write_text("vertices: a b c d\na b 0.1\nb c 0.2\nc d 0.3\n")
        for engine in ("lcdl", "oracle"):
            for command in ("hamiltonian", "optimal"):
                query = (command, str(path), "--kind", "path", "--engine", engine)
                assert run_cli(*query) == (0, "a-b-c-d cost=0.6\n", "")
                code, out, _ = run_cli(*query, "--format", "json")
                assert code == 0 and '"cost": 0.6\n' in out

    def test_costs_no_float_holds(self, tmp_path):
        # 2**53 + 1, 2**60 + 1 and 2**60 + 2**53 print as digits, in JSON
        # as well, since the repr of their nearest float stands for another
        # number; 1 + 1e-20 needs 21 digits
        path = tmp_path / "big.txt"
        path.write_text(
            "vertices: a b c\na b 9007199254740992\nb c 1\nc a 1152921504606846976\n"
            "a c 0.00000000000000000001\nc b 1\n"
        )
        for engine in ("lcdl", "oracle"):
            query = ("hamiltonian", str(path), "--kind", "path", "--engine", engine)
            assert run_cli(*query) == (0, (
                "a-b-c cost=9007199254740993\n"
                "a-c-b cost=1.00000000000000000001\n"
                "b-c-a cost=1152921504606846977\n"
                "c-a-b cost=1161928703861587968\n"
            ), "")
            code, out, _ = run_cli(*query, "--format", "json")
            costs = [item["cost"] for item in json.loads(out, parse_float=Decimal)["items"]]
            assert code == 0 and costs == [
                9007199254740993, Decimal("1.00000000000000000001"),
                1152921504606846977, 1161928703861587968,
            ]
            assert '"cost": 9007199254740993\n' in out

    def test_negative_zero_costs_print_as_zero(self, tmp_path):
        # the sum starts from int 0, and 0 + -0.0 is 0.0
        path = tmp_path / "zeros.txt"
        path.write_text("vertices: a b c\na b -0\nb c -0.0\n")
        for engine in ("lcdl", "oracle"):
            for command in ("hamiltonian", "optimal"):
                query = (command, str(path), "--kind", "path", "--engine", engine)
                assert run_cli(*query) == (0, "a-b-c cost=0\n", "")
                code, out, _ = run_cli(*query, "--format", "json")
                assert code == 0 and '"cost": 0.0\n' in out
                assert json.loads(out)["items"][0]["cost"].hex() == (0.0).hex()

    def test_empty_answers(self):
        graph = DirectedGraph(("é", "\x1f"), (("é", "\x1f"),), (1.5,))
        query = {"command": "optimal", "kind": "circuit", "objective": "min",
                 "from": None, "to": None}
        expected = json.dumps({"query": query, "items": [], "count": 0}, indent=2) + "\n"
        assert "".join(_emit_result(graph, query, [], "json", "none\n")) == expected
        assert "".join(_emit_result(graph, query, [], "text", "none\n")) == "none\n"
        assert "".join(_emit_result(graph, query, [], "text", "")) == ""

    def test_names_beyond_ascii(self):
        graph = DirectedGraph(("é", "\x1f", "中"), (("é", "\x1f"), ("\x1f", "中")), (1.5, -0.0))
        query = {"command": "hamiltonian", "kind": "path"}
        items = [as_word((0, 1, 2))]
        assert "".join(_emit_result(graph, query, items, "text", "")) == "é-\x1f-中 cost=1.5\n"
        payload = {
            "query": query,
            "items": [{"vertices": ["é", "\x1f", "中"], "length": 2, "cost": 1.5}],
            "count": 1,
        }
        expected = json.dumps(payload, indent=2) + "\n"
        assert "".join(_emit_result(graph, query, items, "json", "")) == expected

    def test_answers_beyond_one_batch(self):
        """Weighted K7's 5,040 Hamiltonian paths are rendered over several
        chunks; joined, they are the text of one dump."""
        names = tuple(f"v{i}" for i in range(1, 8))
        arcs = tuple((u, v) for u in names for v in names if u != v)
        graph = DirectedGraph(names, arcs, tuple(range(1, len(arcs) + 1)))
        items = enumeration.hamiltonian(graph, "path")
        paths = [[names[ord(c)] for c in w] for w in items]
        query = {"command": "hamiltonian", "kind": "path"}
        chunks = list(_emit_result(graph, query, items, "json", ""))
        payload = {
            "query": query,
            "items": [_item_json(p, float(_named_cost(graph, p))) for p in paths],
            "count": len(items),
        }
        assert len(chunks) > 3
        assert "".join(chunks) == json.dumps(payload, indent=2) + "\n"
        lines = [f"{'-'.join(p)} cost={_named_cost(graph, p)}\n" for p in paths]
        chunks = list(_emit_result(graph, query, items, "text", ""))
        assert len(chunks) > 3
        assert "".join(chunks) == "".join(lines)

    # The complete digraph with self-loops on a, b, c; the decimal costs give
    # totals written both as a float's repr and as an exact decimal.
    LOOPED = (("a", "b", "c"), tuple((u, v) for u in "abc" for v in "abc"))
    WEIGHTS = (0.1, 0.2, 1e16, 2.5, 0.3, -0.5, 1e-07, 4.0, 3.0)

    @staticmethod
    def _dump(graph, query, items, fmt):
        """The emitter's output built independently: in JSON the text of
        `json.dumps`, with each cost's text in place of a marker string."""
        paths = [[graph.vertices[ord(c)] for c in w] for w in items]
        exact = [None if graph.costs is None else _named_cost(graph, p) for p in paths]
        if fmt == "text":
            return "".join(
                "-".join(p) + ("" if c is None else " cost=" + _cost_text(c, False)) + "\n"
                for p, c in zip(paths, exact)
            )
        payload = {
            "query": query,
            "items": [
                _item_json(p, None if c is None else f"@cost{k}@")
                for k, (p, c) in enumerate(zip(paths, exact))
            ],
            "count": len(items),
        }
        expected = json.dumps(payload, indent=2) + "\n"
        for k, c in enumerate(exact if graph.costs is not None else ()):
            expected = expected.replace(f'"@cost{k}@"', _cost_text(c, True), 1)
        return expected

    @pytest.mark.parametrize("costs", ["decimal", None])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_batch_edges(self, costs, extra):
        """Exactly `_BATCH` and `_BATCH + 1` walks of one length are one and
        two chunks of items; joined, text and JSON are those of one dump."""
        graph = DirectedGraph(*self.LOOPED, self.WEIGHTS if costs else None)
        items = list(map(as_word, itertools.product(range(3), repeat=7)))[: _BATCH + extra]
        query = {"command": "paths", "source": "a", "target": "c", "length": 6}
        if costs:
            exact = [_named_cost(graph, [graph.vertices[ord(c)] for c in w]) for w in items]
            as_repr = [Fraction(repr(float(c))) == c for c in exact]
            assert any(as_repr) and not all(as_repr)
        for fmt in ("text", "json"):
            chunks = list(_emit_result(graph, query, items, fmt, ""))
            # one chunk per batch of items, between JSON's head and tail
            assert len(chunks) == {"text": 1, "json": 3}[fmt] + extra, fmt
            assert "".join(chunks) == self._dump(graph, query, items, fmt), fmt

    @staticmethod
    def _mixed_walks():
        """`_BATCH + 1` walks on LOOPED whose lengths cycle through 2..7
        vertices, so that words of several lengths share each batch and
        the first batch ends on a word of a length other than the last."""
        return [
            as_word([(k // 3**t) % 3 for t in range(2 + k % 6)]) for k in range(_BATCH + 1)
        ]

    @pytest.mark.parametrize("costs", ["decimal", None])
    def test_mixed_lengths_across_a_batch(self, costs):
        graph = DirectedGraph(*self.LOOPED, self.WEIGHTS if costs else None)
        items = self._mixed_walks()
        assert {len(w) for w in items[:_BATCH]} == set(range(2, 8))
        assert len(items[_BATCH - 1]) != len(items[_BATCH])
        query = {"command": "hamiltonian", "kind": "path"}
        for fmt in ("text", "json"):
            chunks = list(_emit_result(graph, query, items, fmt, ""))
            assert len(chunks) == {"text": 2, "json": 4}[fmt], fmt
            assert "".join(chunks) == self._dump(graph, query, items, fmt), fmt

    @pytest.mark.parametrize("costs", ["decimal", None])
    def test_prices_through_the_module_name(self, monkeypatch, costs):
        """Each item is priced by one call of `cli.path_cost`, the name a
        caller can wrap to count or time pricing; an uncosted graph makes
        no call."""
        graph = DirectedGraph(*self.LOOPED, self.WEIGHTS if costs else None)
        items = self._mixed_walks()
        priced = []

        def counting(g, word):
            priced.append(word)
            return path_cost(g, word)

        monkeypatch.setattr(cli, "path_cost", counting)
        query = {"command": "hamiltonian", "kind": "path"}
        for fmt in ("text", "json"):
            priced.clear()
            "".join(_emit_result(graph, query, items, fmt, ""))
            assert priced == (items if costs else []), fmt

    def test_json_is_never_held_whole(self):
        """K8's 40,320 Hamiltonian paths come to 7.7 MB of JSON; drained a
        chunk at a time, the emitter's memory stays far below that."""
        names = tuple(f"v{i}" for i in range(1, 9))
        graph = DirectedGraph(names, tuple((u, v) for u in names for v in names if u != v))
        items = enumeration.hamiltonian(graph, "path")
        query = {"command": "hamiltonian", "kind": "path"}
        tracemalloc.start()
        try:
            size = sum(map(len, _emit_result(graph, query, items, "json", "")))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 7_500_000
        assert peak < 2_000_000


# Argument vocabulary of the fuzz test: known and unknown vertex names,
# and lengths and limits that are zero, negative, in and out of range.
# Valid values are listed more than once so that most queries get an answer.
NAMES = st.sampled_from(["v1", "v2", "v3", "v1", "v2", "v5", "zz", "#v1"])
NUMBERS = st.sampled_from(["1", "2", "3", "1", "2", "3", "4", "5", "6", "0", "-1", "x"])
COUNT_LENGTHS = st.sampled_from(["1", "2", "7", "50", "0", "-1"])
KINDS = st.sampled_from(["path", "circuit"])


@st.composite
def graph_texts(draw) -> str:
    """Edge-list text with up to five vertices, costs on all arcs, none or
    some, and sometimes one malformed line."""
    n = draw(st.integers(1, 5))
    names = [f"v{i}" for i in range(1, n + 1)]
    arcs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), unique=True))
    costs = draw(st.sampled_from(["none", "all", "all", "some"]))
    lines = ["vertices: " + " ".join(names)]
    for a, (u, v) in enumerate(arcs):
        cost = draw(st.sampled_from(["1", "2.5", "-0.5", "0.1"]))
        with_cost = costs == "all" or costs == "some" and a % 2 == 0
        lines.append(f"{u} {v} {cost}" if with_cost else f"{u} {v}")
    bad = draw(st.sampled_from(
        [None] * 5 + ["v1", "v1 zz", "v1 v1 NaN", "v1 v2 3 4", "vertices: a"]
    ))
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines) + "\n"


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(
        ["paths", "circuits", "hamiltonian", "count", "optimal", "matrix", "words"]
    ))
    argv = [command]
    if command != "words":
        argv.append("GRAPH")
    if command in ("paths", "count"):
        argv += ["-i", draw(NAMES), "-j", draw(NAMES), "-k"]
        argv.append(draw(COUNT_LENGTHS if command == "count" else NUMBERS))
    elif command == "circuits":
        argv += ["-i", draw(NAMES), "-k", draw(NUMBERS)]
    elif command in ("hamiltonian", "optimal"):
        argv += ["--kind", draw(KINDS)]
    elif command == "matrix":
        argv += ["-k", draw(NUMBERS)]
    if command == "optimal":
        argv += draw(st.sampled_from([[], ["--objective", "min"], ["--objective", "max"]]))
        for flag in draw(st.sampled_from([(), ("--from",), ("--to",), ("--from", "--to")])):
            argv += [flag, draw(NAMES)]
    if command == "words":
        argv += draw(st.sampled_from([["-n", draw(NUMBERS)], ["--alphabet", "a,b,c"], ["--alphabet", ","]]))
        argv += draw(st.sampled_from([[], ["--count-only"]]))
    # each command with the flags it takes
    argv += draw(st.sampled_from([[], ["--format", "json"], ["--format", "text"]]))
    if command != "words":
        argv += draw(st.sampled_from([[], ["--engine", "lcdl"], ["--engine", "oracle"]]))
    if command not in ("count", "words"):
        argv += draw(st.sampled_from([[], [], ["--limit", draw(NUMBERS)], ["--limit", "1000000"]]))
    return argv


class TestFuzz:
    @pytest.fixture(scope="class")
    def graph_file(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "graph.txt"

    @settings(max_examples=400, deadline=None)
    @given(text=graph_texts(), argv=argvs())
    def test_main_answers_or_fails_cleanly(self, graph_file, text, argv):
        graph_file.write_text(text)
        code, out, _ = run_cli(*(str(graph_file) if a == "GRAPH" else a for a in argv))
        assert code in (0, 2, 3)
        assert code == 0 or out == ""
