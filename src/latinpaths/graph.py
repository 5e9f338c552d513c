"""Directed graphs with optional arc costs, their text format and path costs.

The edge-list text format: comment lines start with '#'; the first
non-comment line is "vertices: v1 v2 ... vn"; every following line is
"u v" or "u v cost".  Vertex declaration order fixes matrix indices.

A word (`Word`) is a path or circuit as a string over the alphabet of
vertices: its t-th code point is the index of its t-th vertex, `chr(i)`
for v_i.  Code-point order is the order of the index tuples, so sorted
words are in canonical order.
"""

from __future__ import annotations

import contextlib
import math
import re
from decimal import Decimal, InvalidOperation


# A byte that is not UTF-8, as decoding with errors="surrogateescape" leaves it
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")

# One code point per vertex: chr() stops at 0x10FFFF
MAX_VERTICES = 0x110000
Word = str

# How an empty entry or the empty word is written (`matrix`, `words`)
EMPTY_RENDERING = "^"


class GraphParseError(ValueError):
    """Malformed graph input; message carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class PathError(ValueError):
    """A vertex sequence is not a valid path in the graph."""


class DirectedGraph:
    """A graph and the tables built once from it.  costs runs parallel to
    arcs: decimals, or floats, each read as its repr (None: no costs).
    vertex_index maps each vertex name to its index in vertices.
    successors holds, per vertex, its successor indices, ascending,
    self-loops included.  arc_cost maps, per vertex v_i, each successor
    index j to the cost of arc (v_i, v_j), exactly, as an integer number
    of 1/denominator, in arc order (None on a graph without costs);
    denominator is the least power of ten that makes costs whole.
    letter_cost, where pricing a word starts, is built by the first
    `path_cost` call on a graph with costs (None until then).  It maps
    each letter chr(i) to 0 and the row of v_i: chr(j) -> the cost of arc
    (v_i, v_j) and the row of v_j, one dict lookup per letter of a word.
    Graphs compare by vertices, arcs and costs."""

    __slots__ = (
        "vertices", "arcs", "costs",
        "vertex_index", "successors", "arc_cost", "letter_cost", "denominator",
    )

    def __init__(
        self,
        vertices: tuple[str, ...],
        arcs: tuple[tuple[str, str], ...],
        costs: tuple[Decimal | int | float, ...] | None = None,
    ):
        if len(vertices) > MAX_VERTICES:
            raise ValueError(f"more than {MAX_VERTICES} vertices")
        vertex_index = {v: i for i, v in enumerate(vertices)}
        if len(vertex_index) != len(vertices):
            raise ValueError("vertex names must be distinct")
        denominator, scaled = 1, (None,) * len(arcs)
        if costs is not None:
            if len(costs) != len(arcs):
                raise ValueError("every arc needs exactly one cost")
            ratios = [
                Decimal(repr(c) if isinstance(c, float) else c).as_integer_ratio()
                for c in costs
            ]
            for _, q in ratios:
                while denominator % q:
                    denominator *= 10
            scaled = [p * (denominator // q) for p, q in ratios]
        arc_cost: tuple[dict[int, int | None], ...] = tuple({} for _ in vertices)
        for (u, v), cost in zip(arcs, scaled):
            if u not in vertex_index or v not in vertex_index:
                raise ValueError(f"arc ({u}, {v}) references an undeclared vertex")
            row, j = arc_cost[vertex_index[u]], vertex_index[v]
            if j in row:
                raise ValueError(f"duplicate arc ({u}, {v})")
            row[j] = cost
        self.vertices, self.arcs, self.costs = vertices, arcs, costs
        self.vertex_index = vertex_index
        self.successors = tuple(tuple(sorted(row)) for row in arc_cost)
        self.arc_cost = arc_cost
        self.letter_cost: dict[str, tuple[int, dict]] | None = None
        self.denominator = denominator

    def __eq__(self, other):
        if other.__class__ is not DirectedGraph:
            return NotImplemented
        return (self.vertices, self.arcs, self.costs) == (other.vertices, other.arcs, other.costs)

    def __repr__(self) -> str:
        return f"DirectedGraph(vertices={self.vertices!r}, arcs={self.arcs!r}, costs={self.costs!r})"

    @property
    def n(self) -> int:
        return len(self.vertices)

    # Every query's argument rules, for both engines; each is raised here only.
    def index(self, name: str) -> int:
        try:
            return self.vertex_index[name]
        except KeyError:
            raise ValueError(f"unknown vertex {name!r}") from None

    def path_ends(self, source: str, target: str, k: int) -> tuple[int, int]:
        """The ends of an elementary path of arc-length k, names first."""
        i, j = self.index(source), self.index(target)
        if i == j:
            raise ValueError("source equals target; a path needs distinct endpoints")
        if not 1 <= k <= self.n - 1:
            raise ValueError(f"path length {k} out of range 1..{self.n - 1}")
        return i, j

    def circuit_start(self, start: str, k: int) -> int:
        """The start of an elementary circuit of arc-length k, name first."""
        i = self.index(start)
        if not 1 <= k <= self.n:
            raise ValueError(f"circuit length {k} out of range 1..{self.n}")
        return i

    def check_power(self, k: int) -> None:
        if not 1 <= k <= self.n:
            raise ValueError(f"power {k} out of range 1..{self.n}")

    def check_hamiltonian_paths(self) -> None:
        if self.n < 2:
            raise ValueError("Hamiltonian paths need at least 2 vertices")

    def walk_ends(self, source: str, target: str, k: int) -> tuple[int, int]:
        """The ends of a walk of length k, k first."""
        if k < 1:
            raise ValueError("path length must be at least 1")
        return self.index(source), self.index(target)


class VertexPath:
    """Sequence of at least two vertices; arc-length is one less than the
    vertex count."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[str, ...]):
        if len(vertices) < 2:
            raise PathError("a path needs at least two vertices")
        self.vertices = vertices


def parse_graph(text: str) -> DirectedGraph:
    """Parse the edge-list format.  Text decoded with
    errors="surrogateescape" may hold bytes that are not UTF-8; each is a
    parse error on its line, comments included."""
    vertices: tuple[str, ...] | None = None
    arcs: list[tuple[str, str]] = []
    costs: list[Decimal | None] = []
    arc_lines: dict[tuple[str, str], int] = {}
    magnitude = 0.0  # sum of |cost|, a bound on every path cost
    # Lines end at "\n", "\r\n" or "\r" only: splitlines() would also
    # break a comment at a form feed, NEL or U+2028.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        if not raw.isascii() and (bad := _ESCAPED_BYTE.search(raw)):
            raise GraphParseError(line_no, f"byte 0x{ord(bad[0]) - 0xDC00:02x} is not UTF-8")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if vertices is None:
            if not line.startswith("vertices:"):
                raise GraphParseError(line_no, "expected a 'vertices:' declaration")
            names = line[len("vertices:"):].split()
            if not names:
                raise GraphParseError(line_no, "vertex list is empty")
            if len(names) > MAX_VERTICES:
                raise GraphParseError(line_no, f"more than {MAX_VERTICES} vertices")
            declared = set(names)
            if len(declared) != len(names):
                raise GraphParseError(line_no, "duplicate vertex name")
            for name in names:
                # its arc lines would read as comments
                if name.startswith("#"):
                    raise GraphParseError(line_no, f"vertex name {name!r} starts with '#'")
            vertices = tuple(names)
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphParseError(line_no, f"malformed arc line {line!r}")
        u, v = parts[0], parts[1]
        for name in (u, v):
            if name not in declared:
                raise GraphParseError(line_no, f"unknown vertex {name!r}")
        if (u, v) in arc_lines:
            raise GraphParseError(
                line_no, f"duplicate arc ({u}, {v}), first seen on line {arc_lines[(u, v)]}"
            )
        arc_lines[(u, v)] = line_no
        arcs.append((u, v))
        if len(parts) == 3:
            try:
                cost = Decimal(parts[2])
                value = float(cost)
            except (InvalidOperation, ValueError):  # ValueError: signaling NaN
                raise GraphParseError(line_no, f"invalid cost {parts[2]!r}") from None
            if not math.isfinite(value):
                raise GraphParseError(line_no, f"cost {parts[2]!r} is not finite")
            if not value and cost:
                raise GraphParseError(line_no, f"cost {parts[2]!r} is too close to 0 for a float")
            magnitude += abs(value)
            if math.isinf(magnitude):
                raise GraphParseError(
                    line_no, f"cost {parts[2]!r} takes the sum of |cost| beyond the float range"
                )
            costs.append(cost)
        else:
            costs.append(None)
    if vertices is None:
        raise GraphParseError(1, "missing 'vertices:' declaration")
    with_cost = [c for c in costs if c is not None]
    if with_cost and len(with_cost) != len(arcs):
        missing = next(ln for ln, c in zip(arc_lines.values(), costs) if c is None)
        raise GraphParseError(missing, "cost given on some arcs but not this one")
    return DirectedGraph(
        vertices, tuple(arcs), tuple(with_cost) if with_cost else None
    )


def serialize_graph(graph: DirectedGraph) -> str:
    """Emit the edge-list format; arcs sorted by (source index, target index)."""
    names = graph.vertices
    lines = ["vertices: " + " ".join(names)]
    for u, targets, row in zip(names, graph.successors, graph.arc_cost):
        for j in targets:
            v, cost = names[j], row[j]
            lines.append(f"{u} {v}" if cost is None else f"{u} {v} {cost_text(graph, cost)}")
    return "\n".join(lines) + "\n"


def _letter_rows(graph: DirectedGraph) -> dict[str, tuple[int, dict]]:
    """`arc_cost` by letter, as `DirectedGraph.letter_cost` holds it.  The
    rows link to each other, so they are built only where a query prices."""
    if graph.costs is None:
        raise ValueError("graph has no arc costs")
    rows: list[dict] = [{} for _ in graph.arc_cost]
    for out, row in zip(rows, graph.arc_cost):
        for j, cost in row.items():
            out[chr(j)] = cost, rows[j]
    return {chr(i): (0, row) for i, row in enumerate(rows)}


def path_cost(graph: DirectedGraph, word: Word) -> int:
    """The exact cost of a word: the sum of the arc costs along it, as an
    integer number of 1/graph.denominator, read through `letter_cost`."""
    row = graph.letter_cost
    if row is None:
        row = graph.letter_cost = _letter_rows(graph)
    total = 0
    try:
        for j in word:
            cost, row = row[j]
            total += cost
    except KeyError:
        # a plain loop: a generator here would hold a local in a cell on every call
        for i, j in zip(word, word[1:]):
            if j not in graph.letter_cost[i][1]:
                u, v = graph.vertices[ord(i)], graph.vertices[ord(j)]
                raise PathError(f"({u}, {v}) is not an arc of the graph") from None
        raise
    return total


def cost_text(graph: DirectedGraph, total: int, as_json: bool = False) -> str:
    """The exact cost total/graph.denominator (`path_cost`, or one entry of
    `arc_cost`) as text.  In text an integral cost prints as its digits.
    Otherwise it prints as the repr of its float when that text stands for
    it exactly, else (beyond the float range too) as its exact decimal;
    both are valid JSON numbers.  Digits are written through `Decimal`,
    which is exact and, unlike `str(int)`, has no cap on their number."""
    denominator = graph.denominator
    whole, part = divmod(total, denominator)
    if as_json or part:
        sign, digits, _ = Decimal(total).as_tuple()
        # denominator is a power of ten: shift the digits by its exponent
        exact = Decimal((sign, digits, -Decimal(denominator).adjusted()))
        with contextlib.suppress(OverflowError):  # beyond the float range
            text = repr(total / denominator)
            if Decimal(text) == exact:
                return text
        if part:
            return format(exact, "f").rstrip("0")
    return str(Decimal(whole))
