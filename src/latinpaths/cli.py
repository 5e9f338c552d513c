"""Command-line front end.

Commands: paths, circuits, hamiltonian, count, optimal, matrix, words.
Exit codes: 0 success (an empty enumeration is an answer), 2 usage or
parse error, 3 resource-guard abort.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import bruteforce, enumeration
from .graph import (
    DirectedGraph,
    format_cost,
    parse_graph,
    path_cost,
)
from .words import (
    EMPTY_RENDERING,
    Alphabet,
    enumerate_distinguished,
    sigma_count,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _flag(*names, **options) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **options)
    return parent


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the flags it honours, so argparse rejects the
    # others.
    fmt = _flag("--format", choices=("text", "json"), default="text", help="output format")
    engine = _flag(
        "--engine",
        choices=("lcdl", "oracle"),
        default="lcdl",
        help="lcdl: latin-matrix powers; oracle: brute-force DFS reference",
    )
    limit = _flag(
        "--limit",
        type=_positive_int,
        default=enumeration.DEFAULT_WORD_LIMIT,
        help="stored-word guard on each latin power, or on the entries of each "
        "power of the optimal recurrence (lcdl engine only)",
    )
    dot = _flag("--dot", metavar="PATH", help="write a DOT rendering with results highlighted")
    enumerating = [fmt, engine, limit, dot]

    parser = argparse.ArgumentParser(
        prog="latinpaths",
        description="Enumerate elementary paths and circuits of a directed graph",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paths", parents=enumerating, help="elementary paths of a given length")
    p.add_argument("file")
    p.add_argument("-i", required=True, metavar="SOURCE")
    p.add_argument("-j", required=True, metavar="TARGET")
    p.add_argument("-k", required=True, type=int, metavar="LENGTH")

    p = sub.add_parser("circuits", parents=enumerating, help="elementary circuits of a given length")
    p.add_argument("file")
    p.add_argument("-i", required=True, metavar="START")
    p.add_argument("-k", required=True, type=int, metavar="LENGTH")

    p = sub.add_parser("hamiltonian", parents=enumerating, help="all Hamiltonian paths or circuits")
    p.add_argument("file")
    p.add_argument("--kind", choices=("path", "circuit"), required=True)

    p = sub.add_parser("count", parents=[fmt, engine], help="count all paths of a given length")
    p.add_argument("file")
    p.add_argument("-i", required=True, metavar="SOURCE")
    p.add_argument("-j", required=True, metavar="TARGET")
    p.add_argument("-k", required=True, type=int, metavar="LENGTH")

    p = sub.add_parser("optimal", parents=enumerating, help="cost-optimal Hamiltonian path or circuit")
    p.add_argument("file")
    p.add_argument("--kind", choices=("path", "circuit"), required=True)
    p.add_argument("--objective", choices=("min", "max"), default="min")
    p.add_argument("--from", dest="start", metavar="VERTEX")
    p.add_argument("--to", dest="end", metavar="VERTEX")

    p = sub.add_parser("matrix", parents=[fmt, engine, limit], help="print a latin-matrix power")
    p.add_argument("file")
    p.add_argument("-k", required=True, type=int, metavar="POWER")

    p = sub.add_parser("words", parents=[fmt], help="distinguished words over an alphabet")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-n", type=int, help="alphabet size; symbols are 1..n")
    group.add_argument("--alphabet", help="comma-separated symbols")
    p.add_argument("--count-only", action="store_true")

    return parser


def _load_graph(path: str) -> DirectedGraph:
    """Parse a UTF-8 graph file; a leading byte order mark is skipped, and
    `parse_graph` reports a byte that is not UTF-8 on its line."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as handle:
        return parse_graph(handle.read())


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _query(command: str, fields, args) -> dict:
    return {"command": command, **{key: getattr(args, name) for key, name in fields}}


def _emit_result(graph, query: dict, items, fmt: str, none_text: str) -> str:
    """The answer of an enumeration command; `items` are index words in
    canonical order.  JSON is written as text in the layout of
    `json.dumps(payload, indent=2)`, byte for byte, with names encoded once
    per vertex; `path_cost` prices each item once."""
    costed = graph.costs is not None
    if fmt == "json":
        quoted = [
            "        " + json.encoder.encode_basestring_ascii(v) for v in graph.vertices
        ].__getitem__
        parts = []
        for w in items:
            cost = repr(path_cost(graph, w)) if costed else "null"
            parts.append(
                '    {\n      "vertices": [\n'
                + ",\n".join(map(quoted, w))
                + '\n      ],\n      "length": '
                + str(len(w) - 1)
                + ',\n      "cost": '
                + cost
                + "\n    }"
            )
        body = "[\n" + ",\n".join(parts) + "\n  ]" if parts else "[]"
        head = json.dumps(query, indent=2).replace("\n", "\n  ")
        return (
            '{\n  "query": ' + head + ',\n  "items": ' + body
            + ',\n  "count": ' + str(len(parts)) + "\n}\n"
        )
    if not items:
        return none_text
    name = graph.vertices.__getitem__
    if costed:
        lines = [
            "-".join(map(name, w)) + " cost=" + format_cost(path_cost(graph, w)) for w in items
        ]
    else:
        lines = ["-".join(map(name, w)) for w in items]
    return "\n".join(lines) + "\n"


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_dot(path: str, graph: DirectedGraph, items):
    highlighted = set()
    for w in items:
        highlighted.update(zip(w, w[1:]))
    index = graph.vertex_index
    lines = ["digraph G {"]
    for v in graph.vertices:
        lines.append(f"  {_dot_quote(v)};")
    for u, v in graph.arcs:
        attrs = []
        cost = graph.arc_cost[index[u]][index[v]]
        if cost is not None:
            attrs.append(f"label={_dot_quote(format_cost(cost))}")
        if (index[u], index[v]) in highlighted:
            attrs.append('color="red"')
            attrs.append("penwidth=2")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_dot_quote(u)} -> {_dot_quote(v)}{suffix};")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _powers(graph: DirectedGraph, args, depth=None) -> enumeration.LatinPowerSequence:
    return enumeration.latin_powers(graph, args.limit, depth)


def _hamiltonian(graph: DirectedGraph, args) -> list[enumeration.Word]:
    if args.kind == "circuit":
        return enumeration.hamiltonian_circuits(graph, _powers(graph, args))
    # Paths read power n-1 only, and power n never holds more words than
    # power n-1, so stopping there changes no guard outcome.  A graph of
    # one vertex has no power 0; hamiltonian_paths refuses it.
    return enumeration.hamiltonian_paths(graph, _powers(graph, args, max(graph.n - 1, 1)))


def _optimal(best) -> list[enumeration.Word]:
    return [best[0]] if best is not None else []


def _oracle_paths(
    graph: DirectedGraph, source: str, target: str, k: int
) -> tuple[enumeration.Word, ...]:
    return bruteforce.dfs_elementary_paths(graph, source, target, k).words


def _oracle_circuits(graph: DirectedGraph, start: str, k: int) -> tuple[enumeration.Word, ...]:
    return bruteforce.dfs_elementary_circuits(graph, start, k).words


_PAIR_FIELDS = (("source", "i"), ("target", "j"), ("length", "k"))

# Commands that answer with a list of paths: (lcdl call, oracle call, query
# fields as (JSON key, argument name) pairs, text output when nothing is
# found).  Both calls return the paths as index words in canonical order.
_ENUMERATIONS = {
    "paths": (
        lambda g, a: enumeration.elementary_paths(g, a.i, a.j, a.k, _powers(g, a)),
        lambda g, a: _oracle_paths(g, a.i, a.j, a.k),
        _PAIR_FIELDS,
        "",
    ),
    "circuits": (
        lambda g, a: enumeration.elementary_circuits(g, a.i, a.k, _powers(g, a)),
        lambda g, a: _oracle_circuits(g, a.i, a.k),
        (("start", "i"), ("length", "k")),
        "",
    ),
    "hamiltonian": (
        _hamiltonian,
        lambda g, a: bruteforce.dfs_hamiltonian(g, a.kind),
        (("kind", "kind"),),
        "",
    ),
    "optimal": (
        lambda g, a: _optimal(enumeration.held_karp(
            g, a.kind, a.objective, a.start, a.end, a.limit)),
        lambda g, a: _optimal(enumeration.optimal_hamiltonian(
            g, bruteforce.dfs_hamiltonian(g, a.kind), a.objective, a.start, a.end)),
        (("kind", "kind"), ("objective", "objective"), ("from", "start"), ("to", "end")),
        "none\n",
    ),
}


def _run_enumeration(args) -> str:
    lcdl, oracle, fields, none_text = _ENUMERATIONS[args.command]
    graph = _load_graph(args.file)
    items = (oracle if args.engine == "oracle" else lcdl)(graph, args)
    if args.dot:
        _write_dot(args.dot, graph, items)
    return _emit_result(graph, _query(args.command, fields, args), items, args.format, none_text)


@contextlib.contextmanager
def _any_int_length():
    """Lift the interpreter's cap on the digits of an int converted to
    text (Python 3.11+; 4,300 digits by default) for the block."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _run_count(args) -> str:
    graph = _load_graph(args.file)
    if args.engine == "oracle":
        value = bruteforce.dfs_count_all_paths(graph, args.i, args.j, args.k)
    else:
        value = enumeration.count_paths(graph, args.i, args.j, args.k)
    if args.format == "json":
        return _json({"query": _query("count", _PAIR_FIELDS, args), "value": value})
    return f"{value}\n"


def _render_entry(graph: DirectedGraph, words) -> str:
    """One entry of the `matrix` table: its index words, in canonical order."""
    if not words:
        return EMPTY_RENDERING
    name = graph.vertices.__getitem__
    return "{" + ", ".join("-".join(map(name, w)) for w in words) + "}"


def _run_matrix(args) -> str:
    graph = _load_graph(args.file)
    n, k, names = graph.n, args.k, graph.vertices
    if not 1 <= k <= n:
        raise ValueError(f"power {k} out of range 1..{n}")
    if args.engine == "oracle":
        circuits, paths = _oracle_circuits, _oracle_paths
    else:
        powers = _powers(graph, args)
        circuits = functools.partial(enumeration.elementary_circuits, powers=powers)
        paths = functools.partial(enumeration.elementary_paths, powers=powers)

    def entry(i, j):
        if i == j:
            return circuits(graph, names[i], k)
        if k == n:  # an n-arc path needs n+1 distinct vertices
            return ()
        return paths(graph, names[i], names[j], k)

    rendered = [[_render_entry(graph, entry(i, j)) for j in range(n)] for i in range(n)]
    if args.format == "json":
        return _json({"query": {"command": "matrix", "k": k}, "rows": rendered})
    widths = [max(len(r[j]) for r in rendered) for j in range(n)]
    lines = [
        "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip()
        for row in rendered
    ]
    return "".join(line + "\n" for line in lines)


def _run_words(args) -> str:
    if args.n is not None:
        if args.n < 1:
            raise ValueError("alphabet size must be positive")
        symbols = tuple(str(i) for i in range(1, args.n + 1))
    else:
        symbols = tuple(s for s in args.alphabet.split(",") if s)
    alphabet = Alphabet(symbols)
    sigma = sigma_count(alphabet.n)
    rendered = None
    if not args.count_only:
        all_words = enumerate_distinguished(alphabet)
        rendered = [
            w.render(alphabet)
            for w in sorted(all_words, key=lambda w: (len(w.indices), w.indices))
        ]
    if args.format == "json":
        payload = {"query": {"command": "words", "alphabet": list(symbols)}, "sigma": sigma}
        if rendered is not None:
            payload["words"] = rendered
        return _json(payload)
    if args.count_only:
        return f"{sigma}\n"
    return f"sigma: {sigma}\n" + "".join(w + "\n" for w in rendered)


_RUNNERS = {
    **dict.fromkeys(_ENUMERATIONS, _run_enumeration),
    "count": _run_count,
    "matrix": _run_matrix,
    "words": _run_words,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        # counts and word censuses can run to any number of digits
        with _any_int_length():
            output = _RUNNERS[args.command](args)
    except enumeration.WordLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:  # parse, path and alphabet errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
