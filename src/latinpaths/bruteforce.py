"""Brute-force reference enumeration by depth-first search.

This module deliberately shares nothing with the matrix-power engine beyond
the graph module: results produced here are used as independent ground truth
in the test suite and behind the CLI's --engine oracle flag.  Its queries
check their arguments by the graph's rules, as the kernel's queries do, so
both engines refuse bad arguments with the same message.  Every
enumeration answers, as the kernel's queries do, with words (strings whose
code points are vertex indices, `graph.Word`) in canonical order, which is
code-point order.  One walk,
`_simple_paths`, lists the simple paths of exactly k arcs from a source,
already in that order: paths keep those that end at the target, circuits
close the paths of k - 1 arcs over an arc back to the source, a row of
the `matrix` table extends the paths of k - 1 arcs by one arc and splits
them by their end, and Hamiltonian paths join the paths of n - 1 arcs from
each source in turn.
"""

from __future__ import annotations

from .graph import DirectedGraph, VertexPath, Word


class EnumerationResult:
    """The answer of `dfs_elementary_paths` or `dfs_elementary_circuits`."""

    __slots__ = ("words", "vertices")

    def __init__(self, words: tuple[Word, ...], vertices: tuple[str, ...]):
        self.words = words  # canonical order
        self.vertices = vertices  # the graph's, to decode `words`

    @property
    def items(self) -> tuple[VertexPath, ...]:
        """`words` decoded to names.  Only `bench/run.py::matrix_output`
        reads it; it goes once the benchmark reads `words`."""
        name = self.vertices.__getitem__
        return tuple(VertexPath(tuple(map(name, map(ord, w)))) for w in self.words)


def _simple_paths(graph: DirectedGraph, source: int, k: int):
    """Yield every simple path of exactly k arcs from source, as a word.
    The walk starts from the one-vertex word of source, its whole answer
    at k = 0, and extends it depth first with successors ascending, so the
    paths come out in canonical order.  It keeps its own stack, so no
    recursion limit bounds its depth, and a stack of the words it extends,
    so each word is one concatenation."""
    succ = graph.successors
    path: list[int] = []
    on_path = [False] * graph.n
    words = [""]  # words[d]: the first d vertices of the path
    stack = [iter((source,))]  # stack[d]: the untried candidates for path[d]
    while stack:
        for nxt in stack[-1]:
            if not on_path[nxt]:
                break
        else:
            stack.pop()
            words.pop()
            if path:  # stack[0], the start, has no vertex to step back from
                on_path[path.pop()] = False
            continue
        word = words[-1] + chr(nxt)
        if len(word) > k:
            yield word
        else:
            on_path[nxt] = True
            path.append(nxt)
            words.append(word)
            stack.append(iter(succ[nxt]))


def dfs_elementary_paths(
    graph: DirectedGraph, source: str, target: str, k: int
) -> EnumerationResult:
    s, t = graph.path_ends(source, target, k)
    end = chr(t)
    return EnumerationResult(
        tuple(p for p in _simple_paths(graph, s, k) if p[-1] == end), graph.vertices
    )


def dfs_elementary_circuits(graph: DirectedGraph, start: str, k: int) -> EnumerationResult:
    s = graph.circuit_start(start, k)
    succ = graph.successors
    hits = (p + p[0] for p in _simple_paths(graph, s, k - 1) if s in succ[ord(p[-1])])
    return EnumerationResult(tuple(hits), graph.vertices)


def dfs_power_row(graph: DirectedGraph, source: str, k: int) -> list[list[Word]]:
    """Row `source` of the k-th power by one walk: entry t holds the paths
    of k arcs from source to v_t, and entry source the circuits of k arcs
    through it, anchored there, each in canonical order.  Each path of the
    walk of k - 1 arcs is extended over the arcs out of its end, ascending:
    back to the source it closes a circuit, to a vertex off the path it
    makes a path.  That is the order of the walk of k arcs, so every entry
    is in canonical order; at k = n no vertex is off a path."""
    s = graph.circuit_start(source, k)
    succ = graph.successors
    row: list[list[Word]] = [[] for _ in succ]
    for p in _simple_paths(graph, s, k - 1):
        for m in succ[ord(p[-1])]:
            if m == s or chr(m) not in p:
                row[m].append(p + chr(m))
    return row


def dfs_count_all_paths(graph: DirectedGraph, source: str, target: str, k: int) -> int:
    """Count all walks of length k from source to target one step at a time:
    after step s, ways[v] is the number of walks of length s from source
    that end at v."""
    s, t = graph.walk_ends(source, target, k)
    ways = {s: 1}
    for _ in range(k):
        step: dict[int, int] = {}
        for v, count in ways.items():
            for u in graph.successors[v]:
                step[u] = step.get(u, 0) + count
        ways = step
    return ways.get(t, 0)


def enumerate_all_elementary(
    graph: DirectedGraph,
) -> dict[tuple[int, int, int], set[Word]]:
    """Every elementary path and anchored circuit in one sweep, as words
    keyed by (source index, target index, arc-length), arc-length 0
    included: the one-vertex word.  One walk per source vertex and
    arc-length below n; each path of k arcs that an arc closes back to its
    source gives the circuit of k + 1 arcs."""
    succ = graph.successors
    out: dict[tuple[int, int, int], set[Word]] = {}
    for s in range(graph.n):
        for k in range(graph.n):
            for p in _simple_paths(graph, s, k):
                t = ord(p[-1])
                out.setdefault((s, t, k), set()).add(p)
                if s in succ[t]:
                    out.setdefault((s, s, k + 1), set()).add(p + p[0])
    return out


def dfs_hamiltonian(graph: DirectedGraph, kind: str) -> list[Word]:
    """Every Hamiltonian path (kind "path", arc-length n-1) or circuit (kind
    "circuit", arc-length n) as words in canonical order: paths by a
    walk of n-1 arcs from each source, circuits closed at n by
    dfs_elementary_circuits from each start."""
    n = graph.n
    if kind == "circuit":
        # circuits from v_i come before those from v_{i+1} in canonical order
        return [w for s in graph.vertices for w in dfs_elementary_circuits(graph, s, n).words]
    graph.check_hamiltonian_paths()
    return [p for s in range(n) for p in _simple_paths(graph, s, n - 1)]
