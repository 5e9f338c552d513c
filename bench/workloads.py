"""Seeded graph files and the fixed query list of each benchmark workload.

`build(workload, seed, directory)` writes the workload's graph files into
`directory` and returns its queries as CLI argument lists over those files.
The graph families and the shape of each query list are fixed here.  The
seed picks arc costs, query endpoints and the labels of the vertices, but
every seed gets the same graphs up to relabelling, so that a query costs
the same work whatever the seed and runs with different seeds differ only
by the host's noise.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("hamiltonian_dense", "optimal_weighted", "shallow_queries")

# Stored words of the first three latin powers of K8 are 56 + 392 + 2016;
# power 4 holds 8400.  A limit between 2016 and 8400 aborts at power 4.
K8_POWER4_LIMIT = 5000


@dataclass(frozen=True)
class Query:
    """One CLI invocation and the outcome it must have.

    A query with `code` 0 must print exactly the output its oracle twin
    prints.  A query with another `code` must print nothing on stdout and
    `stderr_has` on stderr.
    """

    argv: tuple[str, ...]
    code: int = 0
    stderr_has: str = ""

    @property
    def engine(self) -> str:
        return "lcdl" if self.reference == self.argv else "oracle"

    @property
    def reference(self) -> tuple[str, ...]:
        """The query without its engine flag: both engines share its output."""
        argv = list(self.argv)
        if "--engine" in argv:
            at = argv.index("--engine")
            del argv[at:at + 2]
        return tuple(argv)


def _graph_text(n: int, arcs, costs=None) -> str:
    lines = ["vertices: " + " ".join(f"v{i}" for i in range(1, n + 1))]
    for a, (i, j) in enumerate(arcs):
        cost = f" {costs[a]}" if costs else ""
        lines.append(f"v{i + 1} v{j + 1}{cost}")
    return "\n".join(lines) + "\n"


def _complete(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def _dense(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """K_n minus the arcs of a seeded n-cycle.  Every seed gives an
    isomorphic graph, so the work of a query does not depend on the seed."""
    order = list(range(n))
    rng.shuffle(order)
    removed = {(order[t], order[(t + 1) % n]) for t in range(n)}
    return [arc for arc in _complete(n) if arc not in removed]


def _sparse(base: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    """round(density * n^2) arcs over all ordered pairs, self loops included
    as in the test corpus, with out-degrees within one of each other.  The
    structure comes from `base`, a fixed stream, so that every seed gets the
    same graphs up to a relabelling of their vertices."""
    degree, extra = divmod(round(density * n * n), n)
    order = list(range(n))
    base.shuffle(order)
    arcs = []
    for rank, i in enumerate(order):
        arcs += [(i, j) for j in base.sample(range(n), degree + (rank < extra))]
    return arcs


def _relabel(rng: random.Random, n: int, arcs) -> list[tuple[int, int]]:
    """The arcs under a seeded permutation of the vertices: an isomorphic
    graph, which costs every query the same work."""
    image = list(range(n))
    rng.shuffle(image)
    return sorted((image[i], image[j]) for i, j in arcs)


def _costs(rng: random.Random, arcs, top: int) -> list[int]:
    return [rng.randint(1, top) for _ in arcs]


def _writer(directory: Path) -> Callable[[str, str], str]:
    """write(name, text) stores a graph file and returns its path."""
    def write(name: str, text: str) -> str:
        path = directory / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def _hamiltonian_dense(rng: random.Random, write) -> list[Query]:
    # Every query builds all n powers.  The seeded graph D8 is weighted, so
    # the emitter also prices every item; its JSON paths run to megabytes.
    # Two cheap queries (K7) and three dearer ones (D8) put the median
    # latency between D8 queries of about the same cost.  K8 is left out:
    # at four seconds a query, too few of its queries fit in a run for a
    # steady median; the traced run's counter self-check builds its powers.
    k7 = write("K7", _graph_text(7, _complete(7)))
    arcs = _dense(rng, 8)
    d8 = write("D8w", _graph_text(8, arcs, _costs(rng, arcs, 9)))
    json = ("--format", "json")
    return [
        Query(("hamiltonian", k7, "--kind", "path")),
        Query(("hamiltonian", k7, "--kind", "circuit", *json)),
        Query(("hamiltonian", d8, "--kind", "path")),
        Query(("hamiltonian", d8, "--kind", "circuit")),
        Query(("hamiltonian", d8, "--kind", "path", *json)),
    ]


def _optimal_weighted(rng: random.Random, write) -> list[Query]:
    # Costs 1..4 give many exact ties, so the canonical-order tie rule
    # decides most answers.  Two cheap queries (K7) and three dearer ones
    # (D8) keep the median latency on one class of query.
    def weighted(name: str, n: int, arcs) -> str:
        return write(name, _graph_text(n, arcs, _costs(rng, arcs, 4)))

    k7 = weighted("WK7", 7, _complete(7))
    d8 = weighted("WD8", 8, _dense(rng, 8))
    a7, b7 = rng.sample([f"v{i}" for i in range(1, 8)], 2)
    a8, b8 = rng.sample([f"v{i}" for i in range(1, 9)], 2)
    json = ("--format", "json")
    return [
        Query(("optimal", k7, "--kind", "circuit", "--objective", "max")),
        Query(("optimal", k7, "--kind", "path", "--from", a7, "--to", b7, *json)),
        Query(("optimal", d8, "--kind", "circuit", "--from", a8, *json)),
        Query(("optimal", d8, "--kind", "path", "--objective", "max", "--from", a8, "--to", b8)),
        Query(("optimal", d8, "--kind", "path")),
    ]


# (vertices, density, count length) of each shallow graph; odd positions are
# weighted.  The oracle twin of a count query runs only for lengths up to
# ORACLE_COUNT_MAX: dfs_count_all_paths recurses once per step and exceeds
# the default recursion limit near length 490.
_SHALLOW_GRAPHS = (
    (9, 0.2, 2000), (9, 0.2, 300), (9, 0.2, 500),
    (10, 0.2, 1000), (10, 0.2, 200), (10, 0.2, 300),
    (11, 0.2, 500), (11, 0.2, 300), (11, 0.2, 200),
    (12, 0.2, 200), (12, 0.2, 400), (12, 0.2, 300),
    (9, 0.5, 600), (9, 0.5, 250), (9, 0.5, 300), (9, 0.5, 200),
)
ORACLE_COUNT_MAX = 300


def _shallow_queries(rng: random.Random, write) -> list[Query]:
    json = ("--format", "json")
    oracle = ("--engine", "oracle")
    queries = []
    for g, (n, density, length) in enumerate(_SHALLOW_GRAPHS):
        arcs = _relabel(rng, n, _sparse(random.Random(f"shallow:{g}"), n, density))
        costs = _costs(rng, arcs, 9) if g % 2 else None
        path = write(f"S{g}", _graph_text(n, arcs, costs))
        a, b, c = rng.sample([f"v{i}" for i in range(1, n + 1)], 3)
        fmt = json if g % 3 == 0 else ()
        count = ("count", path, "-i", a, "-j", c, "-k", str(length), *fmt)
        queries += [
            Query(("paths", path, "-i", a, "-j", b, "-k", "2", *fmt)),
            Query(("paths", path, "-i", a, "-j", b, "-k", "2", *fmt, *oracle)),
            Query(("circuits", path, "-i", c, "-k", str(2 + g % 3), *fmt))
            if g % 2 else Query(("paths", path, "-i", b, "-j", c, "-k", "3", *json)),
            Query(count),
        ]
        if length <= ORACLE_COUNT_MAX:
            queries.append(Query((*count, *oracle)))
        if g % 4 == 0:
            queries.append(Query(("matrix", path, "-k", "2", *fmt)))

    # Expected errors: a malformed arc line (exit 2, reported by line) and a
    # word limit that K8 overruns at power 4 (exit 3).
    bad_line = rng.randint(2, 6)
    lines = _graph_text(6, _complete(6)).splitlines()
    lines[bad_line - 1] = "v1 v2 v3 v4"
    bad = write("malformed", "\n".join(lines) + "\n")
    k8 = write("K8", _graph_text(8, _complete(8)))
    queries += [
        Query(("paths", bad, "-i", "v1", "-j", "v2", "-k", "2"), code=2, stderr_has=f"line {bad_line}:"),
        Query(("paths", k8, "-i", "v1", "-j", "v2", "-k", "2", "--limit", str(K8_POWER4_LIMIT)),
              code=3),
    ]
    return queries


_GENERATORS = {
    "hamiltonian_dense": _hamiltonian_dense,
    "optimal_weighted": _optimal_weighted,
    "shallow_queries": _shallow_queries,
}


def build(workload: str, seed: int, directory: Path) -> list[Query]:
    """Write the workload's graph files for `seed` and return its queries."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, _writer(directory))
