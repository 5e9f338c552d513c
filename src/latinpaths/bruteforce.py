"""Brute-force reference enumeration by depth-first search.

This module deliberately shares nothing with the matrix-power engine beyond
the graph module: results produced here are used as independent ground truth
in the test suite and behind the CLI's --engine oracle flag.  Every
enumeration answers, as the kernel's queries do, with index words (tuples
of vertex indices) in canonical order, which is tuple order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DirectedGraph, VertexPath


@dataclass(frozen=True, slots=True)
class EnumerationResult:
    """The answer of `dfs_elementary_paths` or `dfs_elementary_circuits`."""

    words: tuple[tuple[int, ...], ...]  # canonical order
    vertices: tuple[str, ...]  # the graph's, to decode `words`

    @property
    def items(self) -> tuple[VertexPath, ...]:
        """`words` decoded to names.  Only `bench/run.py::matrix_output`
        reads it; it goes once the benchmark reads `words`."""
        name = self.vertices.__getitem__
        return tuple(VertexPath(tuple(map(name, w))) for w in self.words)


def _simple_paths_from(graph: DirectedGraph, source: int, max_len: int):
    """Yield every simple path from source with arc-length between 1 and
    max_len, as a tuple of vertex indices, depth first in preorder.  The
    walk keeps its own stack, so no recursion limit bounds its depth."""
    succ = graph.successors
    path = [source]
    on_path = [False] * graph.n
    on_path[source] = True
    stack = [iter(succ[source])]  # stack[d]: the untried successors of path[d]
    while stack:
        for nxt in stack[-1]:
            if not on_path[nxt]:
                break
        else:
            stack.pop()
            on_path[path.pop()] = False
            continue
        path.append(nxt)
        yield tuple(path)
        if len(path) <= max_len:
            on_path[nxt] = True
            stack.append(iter(succ[nxt]))
        else:
            path.pop()


def dfs_elementary_paths(
    graph: DirectedGraph, source: str, target: str, k: int
) -> EnumerationResult:
    s, t = graph.index(source), graph.index(target)
    if s == t:
        raise ValueError("source equals target; a path needs distinct endpoints")
    if not 1 <= k <= graph.n - 1:
        raise ValueError(f"path length {k} out of range 1..{graph.n - 1}")
    hits = (p for p in _simple_paths_from(graph, s, k) if len(p) == k + 1 and p[-1] == t)
    return EnumerationResult(tuple(sorted(hits)), graph.vertices)


def dfs_elementary_circuits(graph: DirectedGraph, start: str, k: int) -> EnumerationResult:
    s = graph.index(start)
    if not 1 <= k <= graph.n:
        raise ValueError(f"circuit length {k} out of range 1..{graph.n}")
    succ = graph.successors
    if k == 1:
        hits = [(s, s)] if s in succ[s] else []
    else:
        hits = [
            p + (s,) for p in _simple_paths_from(graph, s, k - 1)
            if len(p) == k and s in succ[p[-1]]
        ]
    return EnumerationResult(tuple(sorted(hits)), graph.vertices)


def dfs_count_all_paths(graph: DirectedGraph, source: str, target: str, k: int) -> int:
    """Count all walks of length k from source to target one step at a time:
    after step s, ways[v] is the number of walks of length s from source
    that end at v."""
    if k < 1:
        raise ValueError("path length must be at least 1")
    s, t = graph.index(source), graph.index(target)
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
) -> dict[tuple[int, int, int], set[tuple[int, ...]]]:
    """Every elementary path and anchored circuit in one sweep, as index
    words keyed by (source index, target index, arc-length).  One DFS per
    source vertex."""
    succ = graph.successors
    out: dict[tuple[int, int, int], set[tuple[int, ...]]] = {}
    for s in range(graph.n):
        if s in succ[s]:
            out.setdefault((s, s, 1), set()).add((s, s))
        for p in _simple_paths_from(graph, s, graph.n - 1):
            k = len(p) - 1
            out.setdefault((s, p[-1], k), set()).add(p)
            if s in succ[p[-1]]:
                out.setdefault((s, s, k + 1), set()).add(p + (s,))
    return out


def dfs_hamiltonian(graph: DirectedGraph, kind: str) -> list[tuple[int, ...]]:
    """Every Hamiltonian path (kind "path", arc-length n-1) or circuit (kind
    "circuit", arc-length n) as index words in canonical order: paths by a
    walk from each source to depth n-1, circuits closed at n by
    dfs_elementary_circuits from each start."""
    n = graph.n
    if kind == "circuit":
        # circuits from v_i come before those from v_{i+1} in canonical order
        return [w for s in graph.vertices for w in dfs_elementary_circuits(graph, s, n).words]
    if n < 2:
        raise ValueError("Hamiltonian paths need at least 2 vertices")
    return sorted(p for s in range(n) for p in _simple_paths_from(graph, s, n - 1) if len(p) == n)
