"""Directed graphs with optional arc costs, their text format and path costs.

The edge-list text format: comment lines start with '#'; the first
non-comment line is "vertices: v1 v2 ... vn"; every following line is
"u v" or "u v cost".  Vertex declaration order fixes matrix indices.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation


# A byte that is not UTF-8, as decoding with errors="surrogateescape" leaves it
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


class GraphParseError(ValueError):
    """Malformed graph input; message carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class PathError(ValueError):
    """A vertex sequence is not a valid path in the graph."""


@dataclass(frozen=True, slots=True)
class DirectedGraph:
    vertices: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]
    costs: tuple[float, ...] | None = None  # parallel to arcs
    # Built once per graph: vertex name -> its index in vertices; per vertex,
    # its successor indices, ascending, self-loops included; and per vertex
    # v_i, each successor index j -> the cost of arc (v_i, v_j), in arc
    # order, None on a graph without costs.
    vertex_index: dict[str, int] = field(init=False, repr=False, compare=False)
    successors: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    arc_cost: tuple[dict[int, float | None], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        vertex_index = {v: i for i, v in enumerate(self.vertices)}
        if len(vertex_index) != len(self.vertices):
            raise ValueError("vertex names must be distinct")
        if self.costs is not None and len(self.costs) != len(self.arcs):
            raise ValueError("every arc needs exactly one cost")
        arc_cost: tuple[dict[int, float | None], ...] = tuple({} for _ in self.vertices)
        for (u, v), cost in zip(self.arcs, self.costs or (None,) * len(self.arcs)):
            if u not in vertex_index or v not in vertex_index:
                raise ValueError(f"arc ({u}, {v}) references an undeclared vertex")
            row, j = arc_cost[vertex_index[u]], vertex_index[v]
            if j in row:
                raise ValueError(f"duplicate arc ({u}, {v})")
            row[j] = cost
        object.__setattr__(self, "vertex_index", vertex_index)
        object.__setattr__(self, "successors", tuple(tuple(sorted(row)) for row in arc_cost))
        object.__setattr__(self, "arc_cost", arc_cost)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, name: str) -> int:
        try:
            return self.vertex_index[name]
        except KeyError:
            raise ValueError(f"unknown vertex {name!r}") from None

    def cost_of(self, u: str, v: str) -> float:
        if self.costs is None:
            raise ValueError("graph has no arc costs")
        try:
            return self.arc_cost[self.index(u)][self.index(v)]
        except KeyError:
            raise PathError(f"({u}, {v}) is not an arc of the graph") from None


@dataclass(frozen=True, slots=True)
class VertexPath:
    """Sequence of at least two vertices; arc-length is one less than the
    vertex count."""

    vertices: tuple[str, ...]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise PathError("a path needs at least two vertices")


def format_cost(cost: float) -> str:
    """Cost text: integral values without a fractional part."""
    return str(int(cost)) if float(cost).is_integer() else repr(cost)


def parse_graph(text: str) -> DirectedGraph:
    """Parse the edge-list format.  Text decoded with
    errors="surrogateescape" may hold bytes that are not UTF-8; each is a
    parse error on its line, comments included."""
    vertices: tuple[str, ...] | None = None
    arcs: list[tuple[str, str]] = []
    costs: list[float | None] = []
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
                # Decimal validates the syntax; the value is kept as float.
                cost = float(Decimal(parts[2]))
            except (InvalidOperation, ValueError):  # ValueError: signaling NaN
                raise GraphParseError(line_no, f"invalid cost {parts[2]!r}") from None
            if not math.isfinite(cost):
                raise GraphParseError(line_no, f"cost {parts[2]!r} is not finite")
            magnitude += abs(cost)
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
            lines.append(f"{u} {v}" if cost is None else f"{u} {v} {format_cost(cost)}")
    return "\n".join(lines) + "\n"


def exact_costs(graph: DirectedGraph) -> tuple[int, ...]:
    """The arc costs as integers over one common power-of-ten denominator,
    parallel to `graph.arcs`, so that sums of costs compare exactly (0.1 +
    0.2 equals 0.3).  Each cost is read as the shortest decimal that gives
    back its float, which is the decimal of the file whenever a float holds
    its digits."""
    if graph.costs is None:
        raise ValueError("graph has no arc costs")
    decimals = [Decimal(repr(c)) for c in graph.costs]
    shift = max([0] + [-d.as_tuple().exponent for d in decimals])
    return tuple(int(d.scaleb(shift)) for d in decimals)


def path_cost(graph: DirectedGraph, word: tuple[int, ...]) -> float:
    """Sum of the arc costs along an index word, left to right from int 0:
    the printed cost.  Comparisons between paths use `exact_costs`.

    The sum is accumulated explicitly: from Python 3.12 on, `sum()` of
    floats is compensated and can round differently."""
    if graph.costs is None:
        raise ValueError("graph has no arc costs")
    arc_cost = graph.arc_cost
    total = 0
    try:
        for i, j in zip(word, word[1:]):
            total += arc_cost[i][j]
    except KeyError:
        names = graph.vertices
        raise PathError(f"({names[i]}, {names[j]}) is not an arc of the graph") from None
    return total
