"""Elementary path and circuit enumeration through latin-matrix powers.

The k-th left power of the latin matrix holds, entry (i, j), exactly the
elementary paths of arc-length k from v_i to v_j (diagonal entries hold the
elementary circuits).  Power n is all diagonal and is never built: its
circuits are closed from power n-1.  Each query checks its arguments
first, by the rules `DirectedGraph` holds for both engines (`path_ends`,
`circuit_start`, `check_power`, `check_hamiltonian_paths`, `walk_ends`),
and only then builds, keeping only the depths it reads.
`hamiltonian_paths` builds every column to depth n-1 and keeps the last;
`hamiltonian_circuits` builds column 1 alone and rotates the circuits it
closes.  The other queries build only the columns and depths they read
(`_columns`) where `_fits` proves that no power 1..n-1 goes over the
limit, and elsewhere build every column to depth n-1 and keep the ones
they read, so they are refused exactly where powers 1..n-1 are.  Each
query reads its words straight off what it built, as sorted words
(`Word`: a string whose code points are vertex indices, chr(i) for v_i,
so that code-point order is canonical order), and builds no object per
answer: names and costs are looked up per letter only when the CLI writes
the answer.  Nothing is cached across calls.

One kernel, `_depths`, is specialised to the left recurrence
L^[k] = L (x) L^[k-1], the latin multiplication of Kaufmann and Malgrange.
Every entry of L is the single word v_i v_m, so entry (i, j) of the product
prepends v_i to each word of L^[k-1][m][j] that avoids v_i, over the arcs
(i, m); when i = j the prepended word closes a circuit.  Column j of
L^[k] thus reads column j of L^[k-1] alone, and `_depths` builds the
columns it is asked for one power at a time, to the depth its caller
asks: every column to depth n-1 for `hamiltonian_paths` and for the
other queries where `_fits` fails, column 1 to depth n-1 for
`hamiltonian_circuits`, and the columns and depths they read for the
other queries where `_fits` holds.  A circuit is cyclic
and absorbs in every later product, so the kernel counts the circuits of
each column into the explosion guard but stores none: the guard counts
every word of the columns built, paths and circuits, and `_close` builds
the circuits of a column on read, by the same prepending over the arcs
(j, m).  A word is a bare string over the alphabet of vertices, with no
word or language objects per intermediate: "avoids v_i" is a scan of the
string for chr(i), a prepend is one concatenation, and a sort compares
code points.  A column is a sparse dict that stores only nonempty
off-diagonal entries, so a power costs its paths, not n^2.  Each entry
comes out in canonical order, since m ascends and every entry of L^[k-1]
is in that order already.  The generic product over the semiring of
distinguished languages stays as the executable reference, in
`reference`, which the tests check the kernel's entries against.  The
`matrix` command reads every entry of one power (`power_entries`).
`count_paths` reads entry (i, j) of A^k, A the adjacency matrix over
the naturals, by one of two exact evaluations: k steps of column j of the
left recurrence, about k m additions for m arcs, or binary powers of A,
about k.bit_length() n^3 products; it counts the work of each, the `sum`
calls included, and takes the powers only when their count is the
smaller.  `reference.count_paths_reference` is the reference for both.

Cost-optimal Hamiltonian paths and circuits come from `held_karp`, the
same left recurrence keeping only the best word per entry (first vertex,
vertex set): the Bellman / Held-Karp dynamic program, O(2^n n^2) instead
of the n! words of the powers.  Power k is one table, from each vertex
mask to {first vertex: least cost}; the winning word is rebuilt once, at
the end, down the tables.  Every candidate for the entry (i, M) extends
an entry of the one mask M - {i}, so candidates differ only in their next
vertex m, and the rebuild takes the least m that gives the entry its
cost: the canonically first word, as comparing whole words would.
`optimal_hamiltonian` selects from a full enumeration and is its
reference.  Both compare costs exactly, as the integers of
`graph.arc_cost`, and break ties by canonical order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from operator import le, mul

from .graph import DirectedGraph, Word, path_cost

DEFAULT_WORD_LIMIT = 1_000_000

# The reference names that bench/tracer.py patches on this module, read
# from `reference` on first use, so that no query loads the algebra.
# ROADMAP item 1b deletes this hook.
_TRACED_REFERENCE = frozenset(("latin_matrix", "adjacency_matrix", "mat_mul", "mat_power_left"))


def __getattr__(name: str):
    if name in _TRACED_REFERENCE:
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class WordLimitError(RuntimeError):
    """A latin power holds more words than the guard allows: its paths and
    its circuits, whether the kernel stores them or derives them on read."""

    def __init__(self, k: int, limit: int):
        super().__init__(f"latin power {k} holds more words than the limit of {limit}")
        self.k = k


# The paths of some columns of one latin power: per column j, the nonempty
# entries (i, j), i != j, as i -> their words in canonical order.
SparsePower = list[dict[int, list[Word]]]


def _depths(
    graph: DirectedGraph, targets: Sequence[int], depth: int, word_limit: int
) -> Iterator[SparsePower]:
    """Columns `targets` of left powers 1..depth, one power at a time: the
    depth-k list holds, per target j, column j of power k as
    {i: the paths of entry (i, j) in canonical order}, nonempty entries
    only and never entry j.  Column j of power k is built from column j of
    power k-1 alone (power 0's is the word of v_j): v_i prepended to the
    words of entry (m, j) that avoid v_i, over the arcs (i, m), m
    ascending.  A word prepended with v_j closes a circuit: it absorbs in
    every later product, so it is counted into the guard but not stored.
    A self-loop (i, i) closes power 1's circuit at v_i and nothing after,
    since every word of entry (i, j) starts at v_i, so it is counted at
    power 1 and left out of the arcs prepended over.  The guard counts the
    words of every target column, paths and circuits, and is checked after
    each column."""
    succ = graph.successors
    into: list[list[tuple[int, Word]]] = [[] for _ in succ]
    for i, row in enumerate(succ):
        for m in row:
            if m != i:
                into[m].append((i, chr(i)))
    loops = sum(j in succ[j] for j in targets)
    columns: SparsePower = [{j: [chr(j)]} for j in targets]
    for k in range(1, depth + 1):
        prev, columns, count = columns, [], loops if k == 1 else 0
        for j, before in zip(targets, prev):
            column: dict[int, list[Word]] = {}
            for m in sorted(before):
                words = before[m]
                for i, head in into[m]:
                    if i == j:
                        count += len(words)
                        continue
                    new = [head + w for w in words if head not in w]
                    if not new:
                        continue
                    count += len(new)
                    if i in column:
                        column[i] += new
                    else:
                        column[i] = new
            # the running count goes over the limit exactly when the
            # depth's full count does, so stop at the column that crosses it
            if count > word_limit:
                raise WordLimitError(k, word_limit)
            columns.append(column)
        yield columns


def _close(j: int, graph: DirectedGraph, column: dict[int, list[Word]]) -> list[Word]:
    """The circuits through v_j that column j of a power closes over the
    arcs (j, m), m ascending: v_j prepended to the words of each entry
    (m, j), in canonical order."""
    head = chr(j)
    return [head + w for m in graph.successors[j] for w in column.get(m, ())]


def latin_powers(
    graph: DirectedGraph, word_limit: int = DEFAULT_WORD_LIMIT
) -> tuple[SparsePower, ...]:
    """Every column of powers 1..max(n-1, 1), as `_depths` yields them and
    under its guard: the all-columns view the tests read.  No query calls it."""
    return tuple(_depths(graph, range(graph.n), max(graph.n - 1, 1), word_limit))


def _fits(graph: DirectedGraph, word_limit: int) -> bool:
    """True only when no power 1..max(n-1, 1), every column of it built,
    holds more than `word_limit` words as the guard counts them, so that
    the full build is not refused.  Power n is never built: it is all
    diagonal, and w -> w[:-1] maps its words one-to-one into power n-1.

    Power 1 holds the m arcs.  Every word of a power k >= 2, a path or an
    anchored circuit, is a walk of k arcs that uses no self-loop and never
    turns straight back (v_{t+2} != v_t), save power 2's circuits, the
    ordered 2-cycles.  Such walks are counted per last arc, as by
    Hashimoto's non-backtracking matrix: those that end with the arc (a, b)
    are those that end at a, less those whose last arc is (b, a).  O(m)
    per power; it stops once a bound passes the limit or no arc's count
    grows: the matrix is nonnegative, so then no later count grows either."""
    succ = graph.successors
    if sum(map(len, succ)) > word_limit:
        return False
    arcs = [(a, b) for a, row in enumerate(succ) for b in row if a != b]
    ids = {arc: e for e, arc in enumerate(arcs)}
    # the id of the reverse arc, or of the 0 kept after the last arc
    back = [ids.get((b, a), len(arcs)) for a, b in arcs]
    walks = [1] * len(arcs) + [0]  # power 1's
    for k in range(2, graph.n):
        ending = [0] * graph.n
        for (_, b), count in zip(arcs, walks):
            ending[b] += count
        # power 2's circuits: the walks of power 1 that turn straight back
        turns = sum(map(walks.__getitem__, back)) if k == 2 else 0
        new = [ending[a] - walks[r] for (a, _), r in zip(arcs, back)] + [0]
        if sum(new) + turns > word_limit:
            return False
        if all(map(le, new, walks)):
            break
        walks = new
    return True


def _columns(
    graph: DirectedGraph, targets: Sequence[int], depth: int, word_limit: int
) -> Iterator[SparsePower]:
    """Columns `targets` of powers 1..depth, depth < n, as `_depths` yields
    them, with the outcome of the guard on every column of powers
    1..max(n-1, 1): built alone when `_fits` proves that guard cannot
    fire, else taken from a build of every column to that depth, which is
    refused where a power goes over."""
    if _fits(graph, word_limit):
        yield from _depths(graph, targets, depth, word_limit)
        return
    n = graph.n
    for k, power in enumerate(_depths(graph, range(n), max(n - 1, 1), word_limit), start=1):
        if k <= depth:
            yield [power[j] for j in targets]


def elementary_paths(
    graph: DirectedGraph, source: str, target: str, k: int, word_limit: int = DEFAULT_WORD_LIMIT
) -> tuple[Word, ...]:
    """The elementary paths of arc-length k from source to target, as words
    in canonical order: entry (source, target) of column target at depth
    k."""
    i, j = graph.path_ends(source, target, k)
    for (column,) in _columns(graph, (j,), k, word_limit):
        pass
    return tuple(column.get(i, ()))


def elementary_circuits(
    graph: DirectedGraph, start: str, k: int, word_limit: int = DEFAULT_WORD_LIMIT
) -> tuple[Word, ...]:
    """The elementary circuits of arc-length k through start, anchored there,
    as words in canonical order: column start at depth k-1, closed."""
    i = graph.circuit_start(start, k)
    column = {i: [chr(i)]}  # power 0's column
    for (column,) in _columns(graph, (i,), k - 1, word_limit):
        pass
    return tuple(_close(i, graph, column))


def power_entries(
    graph: DirectedGraph, k: int, word_limit: int = DEFAULT_WORD_LIMIT
) -> list[list[Sequence[Word]]]:
    """Every entry of the k-th power: rows[i][j] holds the words of entry
    (i, j) in canonical order.  Every column is built to depth k (n-1 for
    k = n, whose paths are none), and only depths k-1 and k are kept: the
    paths off the diagonal are depth k's own lists, read only, and the
    diagonal is closed from depth k-1 into fresh lists."""
    graph.check_power(k)
    n = graph.n
    before = [{j: [chr(j)]} for j in range(n)]  # power 0's columns
    at: SparsePower = [{}] * n
    depths = _columns(graph, range(n), min(k, n - 1), word_limit)
    for depth, columns in enumerate(depths, start=1):
        if depth < k:
            before = columns
        else:
            at = columns
    rows: list[list[Sequence[Word]]] = [[at[j].get(i, ()) for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] = _close(i, graph, before[i])
    return rows


def hamiltonian_paths(graph: DirectedGraph, word_limit: int = DEFAULT_WORD_LIMIT) -> list[Word]:
    """Every elementary path of arc-length n-1, in canonical order: the
    words of power n-1, every column built to that depth and only the last
    depth kept."""
    graph.check_hamiltonian_paths()
    n = graph.n
    for columns in _depths(graph, range(n), n - 1, word_limit):
        pass
    found = []
    for column in columns:
        for words in column.values():
            found += words
    # each entry is in canonical order already: this merges sorted runs
    found.sort()
    return found


def hamiltonian_circuits(graph: DirectedGraph, word_limit: int = DEFAULT_WORD_LIMIT) -> list[Word]:
    """Every elementary circuit of arc-length n, anchored per start vertex,
    in canonical order: the diagonal of power n, whose entry (i, i) holds
    the words that start at v_i.

    Every such circuit passes v_1, so only column 1 is built, to depth n-1.
    Its words closed over the arcs (v_1, m), m ascending, are entry (1, 1)
    of power n; the other entries hold their rotations, which start above
    v_1.  The guard counts the column at each depth, then the n words of
    each circuit as power n, whose diagonal they are."""
    n = graph.n
    # power 0's column 1; a one-vertex circuit is a self-loop, closed over it
    column = {0: ["\0"]}
    for (column,) in _depths(graph, (0,), n - 1, word_limit):
        pass
    anchored = _close(0, graph, column)
    if n * len(anchored) > word_limit:
        raise WordLimitError(n, word_limit)
    # rotation r of w = c_0 ... c_{n-1} c_0 is the n + 1 letters from c_r of
    # c_0 ... c_{n-1} w
    doubled = [w[:-1] + w for w in anchored]
    return anchored + sorted([d[r : r + n + 1] for d in doubled for r in range(1, n)])


def hamiltonian(
    graph: DirectedGraph, kind: str, word_limit: int = DEFAULT_WORD_LIMIT
) -> list[Word]:
    """Every Hamiltonian path (kind "path") or circuit ("circuit"), as
    `hamiltonian_paths` or `hamiltonian_circuits` lists them."""
    if kind == "circuit":
        return hamiltonian_circuits(graph, word_limit)
    return hamiltonian_paths(graph, word_limit)


def max_length_elementary(
    graph: DirectedGraph,
    source: str,
    target: str | None = None,
    *,
    word_limit: int = DEFAULT_WORD_LIMIT,
) -> tuple[int, tuple[Word, ...]] | None:
    """Longest nonempty elementary enumeration, or None when no elementary
    path (circuit when target is omitted or equals source) exists at all."""
    i = graph.index(source)
    j = i if target is None else graph.index(target)
    n = graph.n
    # column j at depths 0..n-1, power 0's the word of v_j alone
    column = [{j: [chr(j)]}, *(c for (c,) in _columns(graph, (j,), n - 1, word_limit))]
    for k in range(n if i == j else n - 1, 0, -1):
        words = _close(i, graph, column[k - 1]) if i == j else column[k].get(i)
        if words:
            return k, tuple(words)
    return None


# What one `sum` call costs, in additions or products of small integers:
# about 400 ns against 50 ns per element (2-vCPU host, Python 3.11).
_SUM_CALL_WORK = 8


def count_paths(graph: DirectedGraph, source: str, target: str, k: int) -> int:
    """Number of all (not necessarily elementary) paths of length k, in
    exact integers: entry (i, j) of A^k, by whichever of two evaluations
    does less work.  `_count_by_steps` takes k - 1 steps of n `sum` calls
    over m additions (m arcs); `_count_by_squaring` squares A max(0,
    k.bit_length() - 2) times, n^2 `sum` calls over n^3 products each, and
    multiplies the column by a power once per set bit it consumes and once
    per unit left at the top, n `sum` calls over n^2 products each.  A
    `sum` call weighs _SUM_CALL_WORK elements; squaring is taken only when
    its count is the smaller."""
    i, j = graph.walk_ends(source, target, k)
    n = graph.n
    squarings = max(k.bit_length() - 2, 0)
    products = (k & ((1 << squarings) - 1)).bit_count() + (k >> squarings)
    squaring = (squarings * n + products) * n * (n + _SUM_CALL_WORK)
    if squaring < (k - 1) * (len(graph.arcs) + _SUM_CALL_WORK * n):
        return _count_by_squaring(graph, i, j, k)
    return _count_by_steps(graph, i, j, k)


def _count_by_steps(graph: DirectedGraph, i: int, j: int, k: int) -> int:
    """(A^k)[i][j] by column j of the left recurrence A^[k] = A A^[k-1]
    over successor lists: x_1 = A[:, j] and x_k = A x_{k-1}."""
    succ = graph.successors
    column = [int(j in targets) for targets in succ]
    for _ in range(k - 1):
        column = [sum(map(column.__getitem__, targets)) for targets in succ]
    return column[i]


def _count_by_squaring(graph: DirectedGraph, i: int, j: int, k: int) -> int:
    """(A^k)[i][j] by binary powers of A: the column e_j is multiplied by
    A^(2^b) for each set bit b of k.  Once the bits left are at most 3,
    the column is multiplied that many times by the last square instead:
    it spares the squaring with the largest entries."""
    n = graph.n
    power = [[int(m in targets) for m in range(n)] for targets in graph.successors]
    column = [int(m == j) for m in range(n)]
    while k > 3:
        if k & 1:
            column = [sum(map(mul, row, column)) for row in power]
        columns = list(zip(*power))
        power = [[sum(map(mul, row, col)) for col in columns] for row in power]
        k >>= 1
    for _ in range(k):
        column = [sum(map(mul, row, column)) for row in power]
    return column[i]


def _selection(
    graph: DirectedGraph, kind: str, objective: str, start: str | None, end: str | None
) -> tuple[int, int | None, int | None]:
    """The checks of an optimal query, in the order both selections report
    them, before any candidate is built: the sign that makes the objective
    a minimum (1 for "min", -1 for "max") and the indices of the ends."""
    if kind == "path":
        graph.check_hamiltonian_paths()
    if graph.costs is None:
        raise ValueError("optimal selection needs arc costs")
    if objective not in ("min", "max"):
        raise ValueError(f"unknown objective {objective!r}")
    s, t = (None if name is None else graph.index(name) for name in (start, end))
    return (1 if objective == "min" else -1), s, t


def optimal_hamiltonian(
    graph: DirectedGraph,
    kind: str,
    candidates: Callable[[DirectedGraph, str], Sequence[Word]],
    objective: str = "min",
    start: str | None = None,
    end: str | None = None,
) -> tuple[Word, int] | None:
    """The cheapest (objective "min") or dearest ("max") Hamiltonian path
    (kind "path") or circuit ("circuit") among those that start at `start`
    and end at `end` (a circuit ends where it starts), with its cost as
    `path_cost` gives it; None when there is none.  The candidates are
    `candidates(graph, kind)`, words in canonical order
    (`hamiltonian`, or the oracle's `dfs_hamiltonian`), listed only once the
    arguments are checked.  Costs compare exactly; ties go to the first
    candidate in canonical order."""
    sign, s, t = _selection(graph, kind, objective, start, end)
    first, last = (None if i is None else chr(i) for i in (s, t))
    kept = (
        w for w in candidates(graph, kind)
        if (first is None or w[0] == first) and (last is None or w[-1] == last)
    )
    # min returns the first smallest item
    best = min(kept, key=lambda w: sign * path_cost(graph, w), default=None)
    return None if best is None else (best, path_cost(graph, best))


def held_karp(
    graph: DirectedGraph,
    kind: str,
    objective: str = "min",
    start: str | None = None,
    end: str | None = None,
    word_limit: int = DEFAULT_WORD_LIMIT,
) -> tuple[Word, int] | None:
    """What `optimal_hamiltonian` picks from every Hamiltonian path (kind
    "path") or circuit ("circuit"), without enumerating them: the left
    recurrence of `_depths` keeping one word per entry (first vertex,
    vertex mask), the Bellman / Held-Karp dynamic program over vertex sets.

    Power k maps each mask to {first vertex: least signed exact cost} of
    its words (the sign -1 for "max"), and is all that is kept of it.  The
    winning word is rebuilt once, from the full mask down the powers: the
    candidates for an entry (i, M) all extend entries of the mask M - {i}
    and differ only in their next vertex m, so the least m whose entry
    plus the arc (i, m) equals the entry's cost, both exact integers, is
    the canonically first word's.  Prepending never reads the last
    vertex, so one word per entry suffices, and the words' ends are fixed
    by the seed: the arcs into `end`, or into any vertex.  Circuits are
    anchored at `start`, else `end`, else v_1, and closed over the arcs
    (s, m) at power n: with exact costs every rotation of a circuit costs
    the same, and every Hamiltonian circuit passes v_1, so the canonically
    first optimum starts there (the anchor from which
    `hamiltonian_circuits` rotates every circuit).  `word_limit` bounds the
    entries of each power, counted as they are made and checked after each
    entry they are made from."""
    sign, s, t = _selection(graph, kind, objective, start, end)
    n, circuit = graph.n, kind == "circuit"
    if circuit:
        if s is not None and t is not None and s != t:
            return None
        s = t = s if s is not None else t if t is not None else 0
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (i, signed cost of (i, m))
    for i, row in enumerate(graph.arc_cost):
        for m, c in row.items():
            into[m].append((i, sign * c))
    # power 0: the one-vertex words at the ends
    powers = [{1 << j: {j: 0} for j in (range(n) if t is None else (t,))}]
    for k in range(1, n):
        nxt, entries = {}, 0
        for mask, row in powers[-1].items():
            best = {}  # i -> the least cost of entry (i, mask + {i})
            for m, c in row.items():
                for i, arc in into[m]:
                    if not mask >> i & 1:
                        old = best.get(i)
                        if old is None:
                            entries += 1
                        elif c + arc >= old:
                            continue
                        best[i] = c + arc
                if entries > word_limit:
                    raise WordLimitError(k, word_limit)
            for i, c in best.items():
                key = mask | 1 << i
                if key in nxt:
                    nxt[key][i] = c
                else:
                    nxt[key] = {i: c}
        powers.append(nxt)
    # a circuit closes over an arc (s, m); a path starts at any allowed m
    closing = graph.arc_cost[s] if circuit else dict.fromkeys(range(n) if s is None else (s,), 0)
    mask = (1 << n) - 1
    top = powers[-1].get(mask, {})
    firsts = [(c + sign * closing[m], m) for m, c in top.items() if m in closing]
    if not firsts:
        return None
    cost, m = min(firsts)
    word = [s, m] if circuit else [m]
    # the tie rule: the least next vertex x that gives entry (m, mask) its cost
    for k in range(n - 1, 0, -1):
        c, arcs = powers[k][mask][m], graph.arc_cost[m]
        mask ^= 1 << m
        row = powers[k - 1][mask]
        m = next(x for x in graph.successors[m] if x in row and row[x] + sign * arcs[x] == c)
        word.append(m)
    return "".join(map(chr, word)), sign * cost
