"""Elementary path and circuit enumeration through latin-matrix powers.

The k-th left power of the latin matrix holds, entry (i, j), exactly the
elementary paths of arc-length k from v_i to v_j (diagonal entries hold the
elementary circuits).  All n powers are computed once and cached; queries
decode words straight off the cached entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    DirectedGraph,
    EnumerationResult,
    VertexPath,
    adjacency_matrix,
    latin_matrix,
    path_cost,
)
from .semiring import SemiringMatrix, mat_mul, mat_power_left
from .words import DistinguishedWord

DEFAULT_WORD_LIMIT = 1_000_000


class WordLimitError(RuntimeError):
    """A latin power exceeded the stored-word guard."""

    def __init__(self, k: int, count: int, limit: int):
        super().__init__(
            f"latin power {k} holds {count} words, over the limit of {limit}"
        )
        self.k = k


class DiagonalInvariantError(AssertionError):
    """The n-th latin power has a nonzero off-diagonal entry; this indicates
    a bug in the composition engine, not bad input."""


@dataclass(frozen=True, slots=True)
class LatinPowerSequence:
    powers: tuple[SemiringMatrix, ...]  # powers[k-1] is the k-th left power

    def power(self, k: int) -> SemiringMatrix:
        if not 1 <= k <= len(self.powers):
            raise ValueError(f"power {k} out of range 1..{len(self.powers)}")
        return self.powers[k - 1]


def _word_count(m: SemiringMatrix) -> int:
    return sum(len(entry.words) for row in m.rows for entry in row)


def latin_powers(
    graph: DirectedGraph, word_limit: int = DEFAULT_WORD_LIMIT
) -> LatinPowerSequence:
    """All n left powers of the latin matrix, with the explosion guard and
    the structural check that the n-th power is diagonal."""
    base = latin_matrix(graph)
    powers = [base]
    for k in range(2, graph.n + 1):
        nxt = mat_mul(base, powers[-1])
        count = _word_count(nxt)
        if count > word_limit:
            raise WordLimitError(k, count, word_limit)
        powers.append(nxt)
    top = powers[-1]
    for i in range(graph.n):
        for j in range(graph.n):
            if i != j and not top.rows[i][j].is_zero:
                raise DiagonalInvariantError(
                    f"power {graph.n} has a nonzero entry at ({i + 1}, {j + 1})"
                )
    return LatinPowerSequence(tuple(powers))


def decode_word(graph: DirectedGraph, word: DistinguishedWord) -> VertexPath:
    return VertexPath(tuple(graph.vertices[i] for i in word.indices))


def encode_path(graph: DirectedGraph, path: VertexPath) -> DistinguishedWord:
    """Inverse of decode_word; round-trips every enumerated path."""
    return DistinguishedWord.from_indices(
        tuple(graph.index(v) for v in path.vertices)
    )


def _decode(graph: DirectedGraph, words) -> list[VertexPath]:
    """Decode words in canonical order: lexicographic by index sequence."""
    return [decode_word(graph, w) for w in sorted(words, key=lambda w: w.indices)]


def elementary_paths(
    graph: DirectedGraph,
    source: str,
    target: str,
    k: int,
    powers: LatinPowerSequence | None = None,
) -> EnumerationResult:
    i, j = graph.index(source), graph.index(target)
    if i == j:
        raise ValueError("source equals target; use elementary_circuits")
    if not 1 <= k <= graph.n - 1:
        raise ValueError(f"path length {k} out of range 1..{graph.n - 1}")
    if powers is None:
        powers = latin_powers(graph)
    entry = powers.power(k).rows[i][j]
    return EnumerationResult("path", source, target, k, tuple(_decode(graph, entry.words)))


def elementary_circuits(
    graph: DirectedGraph,
    start: str,
    k: int,
    powers: LatinPowerSequence | None = None,
) -> EnumerationResult:
    i = graph.index(start)
    if not 1 <= k <= graph.n:
        raise ValueError(f"circuit length {k} out of range 1..{graph.n}")
    if powers is None:
        powers = latin_powers(graph)
    entry = powers.power(k).rows[i][i]
    return EnumerationResult("circuit", start, start, k, tuple(_decode(graph, entry.words)))


def hamiltonian_paths(
    graph: DirectedGraph, powers: LatinPowerSequence | None = None
) -> list[VertexPath]:
    """Every elementary path of arc-length n-1, in canonical order."""
    if graph.n < 2:
        raise ValueError("Hamiltonian paths need at least 2 vertices")
    if powers is None:
        powers = latin_powers(graph)
    top = powers.power(graph.n - 1)
    found = []
    for i in range(graph.n):
        for j in range(graph.n):
            if i != j:
                found.extend(top.rows[i][j].words)
    return _decode(graph, found)


def hamiltonian_circuits(
    graph: DirectedGraph, powers: LatinPowerSequence | None = None
) -> list[VertexPath]:
    """Every elementary circuit of arc-length n, anchored per start vertex."""
    if powers is None:
        powers = latin_powers(graph)
    top = powers.power(graph.n)
    found = []
    for i in range(graph.n):
        found.extend(top.rows[i][i].words)
    return _decode(graph, found)


def max_length_elementary(
    graph: DirectedGraph,
    source: str,
    target: str | None = None,
    powers: LatinPowerSequence | None = None,
) -> tuple[int, EnumerationResult] | None:
    """Longest nonempty elementary enumeration, or None when no elementary
    path (circuit when target is omitted or equals source) exists at all."""
    if powers is None:
        powers = latin_powers(graph)
    circuit = target is None or target == source
    top = graph.n if circuit else graph.n - 1
    for k in range(top, 0, -1):
        if circuit:
            result = elementary_circuits(graph, source, k, powers)
        else:
            result = elementary_paths(graph, source, target, k, powers)
        if result.items:
            return k, result
    return None


def count_paths(graph: DirectedGraph, source: str, target: str, k: int) -> int:
    """Number of all (not necessarily elementary) paths of length k, via
    exact integer powers of the adjacency matrix."""
    if k < 1:
        raise ValueError("path length must be at least 1")
    i, j = graph.index(source), graph.index(target)
    return mat_power_left(adjacency_matrix(graph), k).rows[i][j]


def optimal_hamiltonian(
    graph: DirectedGraph,
    kind: str,
    objective: str = "min",
    start: str | None = None,
    end: str | None = None,
    powers: LatinPowerSequence | None = None,
    candidates: list[VertexPath] | None = None,
) -> tuple[VertexPath, float] | None:
    """Best Hamiltonian path/circuit under the objective, or None when no
    candidate exists.  Ties go to the first candidate in canonical order."""
    if graph.costs is None:
        raise ValueError("optimal selection needs arc costs")
    if kind not in ("path", "circuit"):
        raise ValueError(f"unknown kind {kind!r}")
    if objective not in ("min", "max"):
        raise ValueError(f"unknown objective {objective!r}")
    if candidates is None:
        if kind == "path":
            candidates = hamiltonian_paths(graph, powers)
        else:
            candidates = hamiltonian_circuits(graph, powers)
    if start is not None:
        candidates = [p for p in candidates if p.vertices[0] == start]
    if end is not None and kind == "path":
        candidates = [p for p in candidates if p.vertices[-1] == end]
    if not candidates:
        return None
    best = None
    best_cost = None
    for p in candidates:
        cost = path_cost(graph, p)
        better = (
            best_cost is None
            or (objective == "min" and cost < best_cost)
            or (objective == "max" and cost > best_cost)
        )
        if better:
            best, best_cost = p, cost
    return best, best_cost
