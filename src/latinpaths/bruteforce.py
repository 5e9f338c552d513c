"""Brute-force reference enumeration by depth-first search.

This module deliberately shares nothing with the matrix-power engine beyond
the graph module: results produced here are used as independent ground truth
in the test suite and behind the CLI's --engine oracle flag.
"""

from __future__ import annotations

from .graph import DirectedGraph, EnumerationResult, VertexPath


def _successors(graph: DirectedGraph) -> dict[str, list[str]]:
    """The successors of each vertex by name, in declaration order."""
    names = graph.vertices
    return {u: [names[m] for m in succ] for u, succ in zip(names, graph.successors)}


def _simple_paths_from(graph, source, max_len):
    """Yield every simple path (as a vertex tuple) from source with arc-length
    between 1 and max_len."""
    succ = _successors(graph)
    path = [source]
    on_path = {source}

    def walk():
        if len(path) - 1 >= max_len:
            return
        for nxt in succ[path[-1]]:
            if nxt in on_path:
                continue
            path.append(nxt)
            on_path.add(nxt)
            yield tuple(path)
            yield from walk()
            on_path.discard(nxt)
            path.pop()

    yield from walk()


def dfs_elementary_paths(
    graph: DirectedGraph, source: str, target: str, k: int
) -> EnumerationResult:
    graph.index(source), graph.index(target)
    if source == target:
        raise ValueError("source equals target; a path needs distinct endpoints")
    if not 1 <= k <= graph.n - 1:
        raise ValueError(f"path length {k} out of range 1..{graph.n - 1}")
    hits = [
        p for p in _simple_paths_from(graph, source, k)
        if len(p) - 1 == k and p[-1] == target
    ]
    hits.sort(key=graph.order_key)
    return EnumerationResult(
        "path", source, target, k, tuple(VertexPath(p) for p in hits)
    )


def dfs_elementary_circuits(graph: DirectedGraph, start: str, k: int) -> EnumerationResult:
    graph.index(start)
    if not 1 <= k <= graph.n:
        raise ValueError(f"circuit length {k} out of range 1..{graph.n}")
    arcs = graph.arc_cost
    hits: list[tuple[str, ...]] = []
    if k == 1:
        if (start, start) in arcs:
            hits.append((start, start))
    else:
        for p in _simple_paths_from(graph, start, k - 1):
            if len(p) - 1 == k - 1 and (p[-1], start) in arcs:
                hits.append(p + (start,))
    hits.sort(key=graph.order_key)
    return EnumerationResult(
        "circuit", start, start, k, tuple(VertexPath(p) for p in hits)
    )


def dfs_count_all_paths(graph: DirectedGraph, source: str, target: str, k: int) -> int:
    """Count all walks of length k from source to target one step at a time:
    after step s, ways[v] is the number of walks of length s from source
    that end at v."""
    if k < 1:
        raise ValueError("path length must be at least 1")
    graph.index(source), graph.index(target)
    succ = _successors(graph)
    ways = {source: 1}
    for _ in range(k):
        step: dict[str, int] = {}
        for v, count in ways.items():
            for u in succ[v]:
                step[u] = step.get(u, 0) + count
        ways = step
    return ways.get(target, 0)


def enumerate_all_elementary(
    graph: DirectedGraph,
) -> dict[tuple[str, str, int], set[tuple[str, ...]]]:
    """Every elementary path and anchored circuit in one sweep, keyed by
    (source, target, arc-length).  One DFS per source vertex."""
    arcs = graph.arc_cost
    out: dict[tuple[str, str, int], set[tuple[str, ...]]] = {}
    for source in graph.vertices:
        if (source, source) in arcs:
            out.setdefault((source, source, 1), set()).add((source, source))
        for p in _simple_paths_from(graph, source, graph.n - 1):
            k = len(p) - 1
            out.setdefault((source, p[-1], k), set()).add(p)
            if (p[-1], source) in arcs:
                out.setdefault((source, source, k + 1), set()).add(p + (source,))
    return out


def dfs_hamiltonian(graph: DirectedGraph, kind: str) -> list[VertexPath]:
    """Every Hamiltonian path (kind "path", arc-length n-1) or circuit (kind
    "circuit", arc-length n) in canonical order: paths by a walk from each
    source to depth n-1, circuits closed at n by dfs_elementary_circuits
    from each start."""
    n = graph.n
    if kind == "circuit":
        # circuits from v_i come before those from v_{i+1} in canonical order
        return [p for s in graph.vertices for p in dfs_elementary_circuits(graph, s, n).items]
    if n < 2:
        raise ValueError("Hamiltonian paths need at least 2 vertices")
    found = [
        p for s in graph.vertices for p in _simple_paths_from(graph, s, n - 1) if len(p) == n
    ]
    return [VertexPath(p) for p in sorted(found, key=graph.order_key)]
