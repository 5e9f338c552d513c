import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinpaths import enumeration
from latinpaths.cli import _emit_result, main
from latinpaths.enumeration import WordLimitError, latin_powers
from latinpaths.graph import DirectedGraph, VertexPath, format_cost, serialize_graph

from conftest import FIVE_VERTEX_TEXT, FOUR_VERTEX_TEXT


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


def _stored_words(powers) -> list[int]:
    """Words stored in each power of a `LatinPowerSequence`."""
    return [sum(len(words) for row in power for words in row.values()) for power in powers.sparse]


class TestPowersBuilt:
    """`hamiltonian --kind path` reads power n-1 and builds no deeper; every
    other command that reads latin powers builds all n."""

    def test_depth_per_command(self, five_file, monkeypatch):
        built = []

        def recording(*args, **kwargs):
            powers = latin_powers(*args, **kwargs)
            built.append(len(powers.sparse))
            return powers

        monkeypatch.setattr(enumeration, "latin_powers", recording)
        queries = {
            ("hamiltonian", "--kind", "path"): 4,
            ("hamiltonian", "--kind", "circuit"): 5,
            ("paths", "-i", "1", "-j", "2", "-k", "3"): 5,
            ("circuits", "-i", "1", "-k", "5"): 5,
            ("matrix", "-k", "4"): 5,
        }
        for (command, *rest), depth in queries.items():
            built.clear()
            code, _, err = run_cli(command, five_file, *rest)
            assert code == 0, err
            assert built == [depth], command

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
    counts = _stored_words(latin_powers(graph))
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
        # order wins, printed with its float sum
        path = tmp_path / "tie.txt"
        path.write_text("vertices: a b c\na b 0.1\nb c 0.2\na c 0.3\nc b 0\n")
        code, out, _ = run_cli(
            "optimal", str(path), "--kind", "path", "--from", "a", "--engine", engine
        )
        assert (code, out) == (0, "a-b-c cost=0.30000000000000004\n")

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
        assert "latin power 3 holds 13200 words" in err

    def test_builds_no_latin_powers(self, five_file, monkeypatch):
        from latinpaths import enumeration

        def refuse(*args, **kwargs):
            raise AssertionError("latin_powers called")

        monkeypatch.setattr(enumeration, "latin_powers", refuse)
        for kind in ("path", "circuit"):
            assert run_cli("optimal", five_file, "--kind", kind)[0] == 0
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
        assert "latin power 1 holds 2 words, over the limit of 1" in err
        assert run_cli(*query, "--limit", "2")[:2] == (0, "a-b\n")

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
        """The oracle answers with index words from the walk to the output."""
        queries = [
            (command, five_file, *rest, "--engine", "oracle", "--format", fmt)
            for command, *rest in self.QUERIES
        ]
        expected = [run_cli(*query) for query in queries]

        def refuse(self):
            raise AssertionError("VertexPath built")

        monkeypatch.setattr(VertexPath, "__post_init__", refuse)
        with pytest.raises(AssertionError):
            VertexPath(("1", "2"))
        for query, (code, out, err) in zip(queries, expected):
            assert code == 0 and out, (query, err)
            assert run_cli(*query) == (code, out, err), query


class TestJsonContract:
    def test_round_trip_byte_identical(self, five_file):
        _, out, _ = run_cli(
            "hamiltonian", five_file, "--kind", "circuit", "--format", "json"
        )
        reparsed = json.dumps(json.loads(out), indent=2) + "\n"
        assert reparsed == out

    def test_engine_agreement_on_examples(self, four_file, five_file):
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
        ]
        for query in queries:
            for fmt in ("json", "text"):
                _, lcdl_out, _ = run_cli(*query, "--format", fmt, "--engine", "lcdl")
                _, oracle_out, _ = run_cli(*query, "--format", fmt, "--engine", "oracle")
                assert lcdl_out == oracle_out, (query, fmt)


def _named_cost(graph, names):
    """The arc costs along a path of vertex names, added left to right from
    int 0, with the arcs looked up by name: independent of `path_cost`."""
    named = dict(zip(graph.arcs, graph.costs))
    total = 0
    for arc in zip(names, names[1:]):
        total = total + named[arc]
    return total


def _item_json(graph, names):
    """One item of the enumeration schema, as a dict for `json.dumps`."""
    cost = _named_cost(graph, names) if graph.costs is not None else None
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
    """A graph built directly, walks along its arcs as index words, and a
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
        items.append(tuple(walk))
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
        graph, query, items = answer
        payload = {
            "query": query,
            "items": [_item_json(graph, [graph.vertices[i] for i in w]) for w in items],
            "count": len(items),
        }
        expected = json.dumps(payload, indent=2) + "\n"
        assert _emit_result(graph, query, items, "json", "") == expected

    @settings(max_examples=300, deadline=None)
    @given(answer=emitted_answers())
    def test_text_lines(self, answer):
        graph, query, items = answer
        paths = [[graph.vertices[i] for i in w] for w in items]
        if graph.costs is not None:
            lines = [f"{'-'.join(p)} cost={format_cost(_named_cost(graph, p))}" for p in paths]
        else:
            lines = ["-".join(p) for p in paths]
        expected = "".join(line + "\n" for line in lines) if items else "none\n"
        assert _emit_result(graph, query, items, "text", "none\n") == expected

    def test_cost_is_the_left_to_right_sum(self, tmp_path):
        # (0.1 + 0.2) + 0.3; a compensated sum (sum() from Python 3.12) gives 0.6
        path = tmp_path / "chain.txt"
        path.write_text("vertices: a b c d\na b 0.1\nb c 0.2\nc d 0.3\n")
        for engine in ("lcdl", "oracle"):
            for command in ("hamiltonian", "optimal"):
                query = (command, str(path), "--kind", "path", "--engine", engine)
                assert run_cli(*query) == (0, "a-b-c-d cost=0.6000000000000001\n", "")
                code, out, _ = run_cli(*query, "--format", "json")
                assert code == 0 and '"cost": 0.6000000000000001\n' in out
                assert json.loads(out)["items"][0]["cost"].hex() == (0.6000000000000001).hex()

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
        assert _emit_result(graph, query, [], "json", "none\n") == expected
        assert _emit_result(graph, query, [], "text", "none\n") == "none\n"
        assert _emit_result(graph, query, [], "text", "") == ""

    def test_names_beyond_ascii(self):
        graph = DirectedGraph(("é", "\x1f", "中"), (("é", "\x1f"), ("\x1f", "中")), (1.5, -0.0))
        query = {"command": "hamiltonian", "kind": "path"}
        items = [(0, 1, 2)]
        assert _emit_result(graph, query, items, "text", "") == "é-\x1f-中 cost=1.5\n"
        payload = {
            "query": query,
            "items": [{"vertices": ["é", "\x1f", "中"], "length": 2, "cost": 1.5}],
            "count": 1,
        }
        assert _emit_result(graph, query, items, "json", "") == json.dumps(payload, indent=2) + "\n"


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
