"""The executable reference for the kernel of `enumeration`: the paper's
model, the generic product over the semiring of distinguished languages.

`latin_matrix` builds the latin matrix L from the arcs, and
`reference_powers` computes its left powers L^[k] = L (x) L^[k-1] by
`semiring.mat_mul`, never reassociated.  The tests compare them with the
kernel's entries (`enumeration.power_entries`) rebuilt as languages
(`_language_matrix`, which reads each letter back with `ord`).  Left
powers of `adjacency_matrix`, over the naturals, are the reference for
both evaluations of `enumeration.count_paths` (`count_paths_reference`).
`decode_word` and `encode_path` turn a distinguished word into a named
vertex sequence and back.

This module alone loads the word, language and semiring algebra; no
query command imports it.
"""

from __future__ import annotations

from .graph import DirectedGraph, VertexPath, Word
from .languages import DistinguishedLanguage
from .semiring import NATURALS, SemiringMatrix, language_semiring, mat_mul, mat_power_left
from .words import Alphabet, DistinguishedWord


def _language_matrix(vertices: tuple[str, ...], rows) -> SemiringMatrix:
    """Kernel words as a matrix of distinguished languages: rows[i][j]
    holds the words of entry (i, j), simple words off the diagonal and
    simple cyclic words on it."""
    alphabet = Alphabet(vertices)
    return SemiringMatrix(
        language_semiring(alphabet),
        tuple(
            tuple(
                DistinguishedLanguage(
                    alphabet,
                    frozenset(DistinguishedWord.from_indices(tuple(map(ord, w))) for w in words),
                )
                for words in row
            )
            for row in rows
        ),
    )


def adjacency_matrix(graph: DirectedGraph) -> SemiringMatrix:
    n = graph.n
    rows = tuple(tuple(1 if j in row else 0 for j in range(n)) for row in graph.arc_cost)
    return SemiringMatrix(NATURALS, rows)


def latin_matrix(graph: DirectedGraph) -> SemiringMatrix:
    """Entry (i, j) is the singleton language {v_i v_j} when the arc exists;
    a self-loop gives the two-symbol cyclic word v_i v_i."""
    index = graph.vertex_index
    rows: list[list[list[Word]]] = [[[] for _ in graph.vertices] for _ in graph.vertices]
    for u, v in graph.arcs:
        i, j = index[u], index[v]
        rows[i][j].append(chr(i) + chr(j))
    return _language_matrix(graph.vertices, rows)


def reference_powers(graph: DirectedGraph) -> list[SemiringMatrix]:
    """All n left powers by the generic product over the semiring of
    distinguished languages: the reference the kernel's `power_entries`
    are checked against."""
    base = latin_matrix(graph)
    powers = [base]
    for _ in range(graph.n - 1):
        powers.append(mat_mul(base, powers[-1]))
    return powers


def decode_word(graph: DirectedGraph, word: DistinguishedWord) -> VertexPath:
    return VertexPath(tuple(graph.vertices[i] for i in word.indices))


def encode_path(graph: DirectedGraph, path: VertexPath) -> DistinguishedWord:
    """Inverse of decode_word; round-trips every enumerated path."""
    return DistinguishedWord.from_indices(
        tuple(graph.index(v) for v in path.vertices)
    )


def count_paths_reference(graph: DirectedGraph, source: str, target: str, k: int) -> int:
    """`enumeration.count_paths` by generic left powers of the adjacency
    matrix over the naturals: the reference it is checked against."""
    i, j = graph.walk_ends(source, target, k)
    return mat_power_left(adjacency_matrix(graph), k).rows[i][j]
