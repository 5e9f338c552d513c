"""Command-line front end.

Commands: paths, circuits, hamiltonian, count, optimal, matrix, words.
Exit codes: 0 success (an empty enumeration is an answer), 2 usage or
parse error, 3 resource-guard abort.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import operator
import os
import sys
from collections.abc import Callable, Iterator

from . import bruteforce, enumeration
from .graph import (
    EMPTY_RENDERING,
    DirectedGraph,
    cost_text,
    parse_graph,
    path_cost,
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
        help="word guard on each latin power 1..n-1, its paths and circuits (on "
        "column 1 and then power n for Hamiltonian circuits), or on the "
        "entries of each power of the optimal recurrence (lcdl engine only)",
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


# Items (or matrix rows) rendered into each chunk of output: few writes,
# and no answer held whole as one string.
_BATCH = 1024


def _chunks(head: str, pieces, separator: str, tail: str) -> Iterator[str]:
    """`head`, the `pieces` joined by `separator`, then `tail`, as a stream of
    chunks of at most `_BATCH` pieces each."""
    yield head
    pieces = iter(pieces)
    joiner = ""
    while batch := list(itertools.islice(pieces, _BATCH)):
        yield joiner + separator.join(batch)
        joiner = separator
    yield tail


def _letter_table(names) -> dict[str, str]:
    """The text of each letter chr(i) of a word: names[i]."""
    return dict(zip(map(chr, range(len(names))), names))


# What opens a JSON item, and what follows an item that is not the last.
_JSON_OPEN = '    {\n      "vertices": [\n'
_JSON_NEXT = ",\n" + _JSON_OPEN


def _emit_result(graph, query: dict, items, fmt: str, none_text: str) -> Iterator[str]:
    """The answer of an enumeration command, as chunks of text; `items` are
    words of at least one arc, in canonical order, rendered `_BATCH` per
    chunk by one join.  The batch's letters are looked up as names at
    once, into a list with the name separator after each.  At the end of
    each word, found by the running sum of the word lengths, the separator
    gives way to the word's tail: its cost and newline in text; in JSON its
    closing lines, then the next item's opening.  A tail depends only on
    the word's length and exact total, so each is rendered once;
    `path_cost` prices each item once.  JSON has the layout of
    `json.dumps(payload, indent=2)`, with names encoded once per vertex."""
    costed = graph.costs is not None
    if fmt == "json":
        names = ["        " + json.encoder.encode_basestring_ascii(v) for v in graph.vertices]
        separator, follows = ",\n", _JSON_NEXT

        @functools.cache
        def tail(length: int, total: int | None) -> str:
            cost = "null" if total is None else cost_text(graph, total, as_json=True)
            return (
                '\n      ],\n      "length": ' + str(length - 1)
                + ',\n      "cost": ' + cost + "\n    }" + _JSON_NEXT
            )

        head = json.dumps(query, indent=2).replace("\n", "\n  ")
        yield '{\n  "query": ' + head + ',\n  "items": ' + ("[\n" + _JSON_OPEN if items else "[]")
    elif not items:
        yield none_text
        return
    else:
        names, separator, follows = graph.vertices, "-", ""

        @functools.cache
        def tail(length: int, total: int | None) -> str:
            return "\n" if total is None else " cost=" + cost_text(graph, total) + "\n"

    table = _letter_table(names)
    for s in range(0, len(items), _BATCH):
        batch = items[s : s + _BATCH]
        letters = "".join(batch)
        out = [separator] * (2 * len(letters))
        # one tuple made at its full size, where a list grown name by name
        # raised the peak RSS; a word has two letters or more, so the
        # getter never returns one bare name
        out[::2] = operator.itemgetter(*letters)(table)
        for end, w in zip(itertools.accumulate(map(len, batch)), batch):
            out[2 * end - 1] = tail(len(w), path_cost(graph, w) if costed else None)
        if s + _BATCH >= len(items):
            # nothing follows the last item
            out[-1] = out[-1].removesuffix(follows)
        yield "".join(out)
        # free this batch's list before the next is built
        del out
    if fmt == "json":
        yield ("\n  ]" if items else "") + ',\n  "count": ' + str(len(items)) + "\n}\n"


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
            attrs.append(f"label={_dot_quote(cost_text(graph, cost))}")
        if (chr(index[u]), chr(index[v])) in highlighted:
            attrs.append('color="red"')
            attrs.append("penwidth=2")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_dot_quote(u)} -> {_dot_quote(v)}{suffix};")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _optimal(best) -> list[enumeration.Word]:
    return [best[0]] if best is not None else []


_PAIR_FIELDS = (("source", "i"), ("target", "j"), ("length", "k"))

# Commands that answer with a list of paths: (lcdl call, oracle call, query
# fields as (JSON key, argument name) pairs, text output when nothing is
# found).  Both calls return the paths as words in canonical order.
_ENUMERATIONS = {
    "paths": (
        lambda g, a: enumeration.elementary_paths(g, a.i, a.j, a.k, a.limit),
        lambda g, a: bruteforce.dfs_elementary_paths(g, a.i, a.j, a.k).words,
        _PAIR_FIELDS,
        "",
    ),
    "circuits": (
        lambda g, a: enumeration.elementary_circuits(g, a.i, a.k, a.limit),
        lambda g, a: bruteforce.dfs_elementary_circuits(g, a.i, a.k).words,
        (("start", "i"), ("length", "k")),
        "",
    ),
    "hamiltonian": (
        lambda g, a: enumeration.hamiltonian(g, a.kind, a.limit),
        lambda g, a: bruteforce.dfs_hamiltonian(g, a.kind),
        (("kind", "kind"),),
        "",
    ),
    "optimal": (
        lambda g, a: _optimal(enumeration.held_karp(
            g, a.kind, a.objective, a.start, a.end, a.limit)),
        lambda g, a: _optimal(enumeration.optimal_hamiltonian(
            g, a.kind, bruteforce.dfs_hamiltonian, a.objective, a.start, a.end)),
        (("kind", "kind"), ("objective", "objective"), ("from", "start"), ("to", "end")),
        "none\n",
    ),
}


def _run_enumeration(args) -> Iterator[str]:
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


def _run_count(args) -> list[str]:
    graph = _load_graph(args.file)
    if args.engine == "oracle":
        value = bruteforce.dfs_count_all_paths(graph, args.i, args.j, args.k)
    else:
        value = enumeration.count_paths(graph, args.i, args.j, args.k)
    if args.format == "json":
        return [_json({"query": _query("count", _PAIR_FIELDS, args), "value": value})]
    return [f"{value}\n"]


def _render_entry(name: Callable[[str], str], words) -> str:
    """One entry of the `matrix` table: its words, in canonical order, each
    letter written as `name` gives it."""
    if not words:
        return EMPTY_RENDERING
    return "{" + ", ".join("-".join(map(name, w)) for w in words) + "}"


def _run_matrix(args) -> Iterator[str]:
    graph = _load_graph(args.file)
    n, k, names = graph.n, args.k, graph.vertices
    if args.engine == "oracle":
        graph.check_power(k)
        entries = [bruteforce.dfs_power_row(graph, u, k) for u in names]
    else:
        entries = enumeration.power_entries(graph, k, args.limit)
    name = _letter_table(names).__getitem__
    rendered = [[_render_entry(name, words) for words in row] for row in entries]
    if args.format == "json":
        # the layout of json.dumps(payload, indent=2), a row at a time
        head = json.dumps({"command": "matrix", "k": k}, indent=2).replace("\n", "\n  ")
        rows = ("    " + json.dumps(row, indent=2).replace("\n", "\n    ") for row in rendered)
        return _chunks('{\n  "query": ' + head + ',\n  "rows": [\n', rows, ",\n", "\n  ]\n}\n")
    widths = [max(len(r[j]) for r in rendered) for j in range(n)]
    lines = (
        "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip()
        for row in rendered
    )
    return _chunks("", lines, "\n", "\n")


def _run_words(args) -> Iterator[str]:
    # the only command that runs the word algebra, so the only one to load it
    from .words import Alphabet, distinguished_in_order, sigma_count

    if args.n is not None:
        if args.n < 1:
            raise ValueError("alphabet size must be positive")
        symbols = tuple(str(i) for i in range(1, args.n + 1))
    else:
        symbols = tuple(s for s in args.alphabet.split(",") if s)
    alphabet = Alphabet(symbols)
    sigma = sigma_count(alphabet.n)
    payload = {"query": {"command": "words", "alphabet": list(symbols)}, "sigma": sigma}
    if args.count_only:
        return [_json(payload) if args.format == "json" else f"{sigma}\n"]
    symbol = symbols.__getitem__
    rendered = (
        "-".join(map(symbol, w)) if w else EMPTY_RENDERING
        for w in distinguished_in_order(alphabet)
    )
    if args.format == "json":
        # the layout of json.dumps(payload, indent=2) with a "words" list,
        # never empty, as it holds the empty word
        head = json.dumps(payload, indent=2).removesuffix("\n}") + ',\n  "words": [\n'
        words = ("    " + json.dumps(w) for w in rendered)
        return _chunks(head, words, ",\n", "\n  ]\n}\n")
    return _chunks(f"sigma: {sigma}\n", rendered, "\n", "\n")


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
            # a runner checks its arguments, applies the guard and computes
            # the whole answer before it returns; the chunks it returns only
            # render that answer (`words` makes its words as they are
            # written, as nothing can fail after its checks), so stdout
            # stays empty unless the run succeeds
            sys.stdout.writelines(_RUNNERS[args.command](args))
            # a closed pipe is met here, not in the flush at exit
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader has closed the pipe (`latinpaths ... | head`): point
        # stdout at devnull, so the flush at exit writes nowhere and stays
        # quiet, as Python's notes on SIGPIPE show
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except enumeration.WordLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:  # parse, path and alphabet errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
