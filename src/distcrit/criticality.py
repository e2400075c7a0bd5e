"""Distance criticality: determining pairs, decision procedures, reports.

A graph is distance critical when deleting any single vertex changes some
distance between two surviving vertices (a finite distance becoming
unreachable counts).  Equivalently, every vertex v admits a determining
pair: two nonadjacent vertices whose unique common neighbor is v.  The
equivalence holds componentwise, so both tests below accept disconnected
input; a graph with no vertices is not distance critical by convention.

The pairs method is the workhorse: it needs no distance recomputation and
reports, per vertex, the lexicographically least witness pair.  The direct
method recomputes distances after each deletion, one source of the
deleted vertex's component at a time up to the first changed row, and
exists as an independent check of the same predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graph import UNREACHABLE, Graph, _bfs_row, all_pairs_distances, bits


def common_neighbors(g: Graph, a: int, b: int) -> tuple[int, ...]:
    """Vertices adjacent to both a and b, ascending."""
    if a == b:
        raise ValueError("common_neighbors needs two distinct vertices")
    return tuple(bits(g.adj[a] & g.adj[b]))


def _pairs_at(adj, v: int) -> Iterator[tuple[int, int]]:
    """Determining pairs of v in lexicographic order.

    A nonadjacent pair whose unique common neighbor is c is yielded for
    v = c and for no other v, so a sweep over all v meets each determining
    pair of the graph once.
    """
    bit_v = 1 << v
    later = adj[v]
    while later:
        low = later & -later
        later ^= low
        a = low.bit_length() - 1
        ra = adj[a]
        rest = later & ~ra  # neighbors of v after a, not adjacent to a
        while rest:
            low = rest & -rest
            rest ^= low
            b = low.bit_length() - 1
            if ra & adj[b] == bit_v:
                yield a, b


def determining_pairs_of(g: Graph, v: int) -> list[tuple[int, int]]:
    """All determining pairs of v, sorted lexicographically.

    A determining pair of v is a nonadjacent pair a < b whose unique
    common neighbor is v; both endpoints necessarily lie in N(v).
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    return list(_pairs_at(g.adj, v))


def _witness_for(adj, v: int) -> tuple[int, int] | None:
    return next(_pairs_at(adj, v), None)


def _pair_scan(
    adj, n: int
) -> tuple[tuple[tuple[int, int] | None, ...], tuple[int, ...]]:
    """Least determining pair of every vertex (or None), and the involved
    set, from one sweep over all determining pairs."""
    witnesses = []
    involved = 0
    for v in range(n):
        first = None
        for a, b in _pairs_at(adj, v):
            if first is None:
                first = (a, b)
            involved |= (1 << a) | (1 << b)
        witnesses.append(first)
    return tuple(witnesses), tuple(bits(involved))


def involved_set(g: Graph) -> tuple[int, ...]:
    """Vertices occurring as an endpoint of some determining pair."""
    return _pair_scan(g.adj, g.n)[1]


@dataclass(frozen=True)
class CriticalityReport:
    """Verdict plus per-vertex witnesses and the involved set.

    witnesses[v] is the lexicographically least determining pair of v, or
    None; for the pairs method the verdict is true exactly when every
    entry is present.  involved lists every vertex occurring in any
    determining pair of the graph, not only in the chosen witnesses.
    """

    n: int
    verdict: bool
    method: str
    witnesses: tuple[tuple[int, int] | None, ...]
    involved: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "critical": self.verdict,
            "method": self.method,
            "witnesses": [
                [v, a, b]
                for v, w in enumerate(self.witnesses)
                if w is not None
                for a, b in [w]
            ],
            "involved": list(self.involved),
        }


def is_distance_critical_pairs(g: Graph) -> CriticalityReport:
    """Determining-pair test with witnesses; no distance recomputation."""
    witnesses, involved = _pair_scan(g.adj, g.n)
    verdict = g.n > 0 and all(w is not None for w in witnesses)
    return CriticalityReport(
        n=g.n,
        verdict=verdict,
        method="pairs",
        witnesses=witnesses,
        involved=involved,
    )


def _deletion_changes_distances(g: Graph, base, v: int) -> bool:
    """Does deleting v change a distance between two other vertices?

    base holds the distance rows of g.  Only the vertices of v's component
    (those at a finite distance from v) can have a changed row, since no
    path from any other vertex meets v.  Their rows of g - v are computed
    one source at a time, and the test stops at the first one that
    changed.
    """
    sub = g.delete_vertex(v)
    for x, d in enumerate(base[v]):
        if x == v or d == UNREACHABLE:
            continue
        before = base[x]
        row = _bfs_row(sub.adj, sub.n, x if x < v else x - 1)
        if list(before[:v] + before[v + 1:]) != row:
            return True
    return False


def is_distance_critical_direct(g: Graph) -> bool:
    """Delete every vertex and compare the surviving pairwise distances."""
    if g.n == 0:
        return False
    base = all_pairs_distances(g)
    return all(_deletion_changes_distances(g, base, v) for v in range(g.n))


def _girth_exceeds_4(adj, n: int) -> bool:
    """No triangle and no 4-cycle (acyclic also qualifies)."""
    for a in range(n):
        ra = adj[a]
        for b in bits(ra >> (a + 1) << (a + 1)):
            if ra & adj[b]:
                return False
        absent = ~(ra | ((1 << (a + 1)) - 1)) & ((1 << n) - 1)
        for b in bits(absent):
            c = ra & adj[b]
            if c & (c - 1):
                return False
    return True


_MASK_SETS: dict[int, tuple[list[int], list[int], list[int]]] = {}


def _mask_sets(k: int) -> tuple[list[int], list[int], list[int]]:
    """Sets of vertex masks S of range(k) as 2^k-bit ints, bit S standing
    for S (S = 0 included): HAS[a] holds the S that contain a, NONE[X]
    the S disjoint from X, and GE[j], for j = 0..k + 2, the S with
    |S| >= j."""
    t = _MASK_SETS.get(k)
    if t is None:
        size = 1 << k
        has = []
        for a in range(k):
            half = 1 << a
            # the upper half of every run of 2^(a + 1) masks contains a
            repunit = ((1 << size) - 1) // ((1 << 2 * half) - 1)
            has.append((((1 << half) - 1) << half) * repunit)
        none = [(1 << size) - 1]
        for x in range(1, size):
            low = x & -x
            none.append(none[x ^ low] & ~has[low.bit_length() - 1])
        ge = [0] * (k + 3)
        for s in range(size):
            ge[s.bit_count()] |= 1 << s
        for j in range(k, -1, -1):
            ge[j] |= ge[j + 1]
        _MASK_SETS[k] = t = (has, none, ge)
    return t


def _balls(adj, k: int) -> list[int]:
    """The vertices at distance at most 2 from each vertex, itself
    included."""
    out = []
    for a in range(k):
        m = row = adj[a]
        ball = row | (1 << a)
        while m:
            low = m & -m
            ball |= adj[low.bit_length() - 1]
            m ^= low
        out.append(ball)
    return out


def _extension_table(adj, k: int) -> int:
    """Which new vertices keep a connected parent critical: bit S
    (1 <= S < 2^k) is set iff attaching a new vertex w to the neighbourhood
    S of the parent adj on k vertices gives a distance-critical child.

    The child's common neighbours of two parent vertices are the parent's,
    plus w when both lie in S, so adding w makes no parent pair
    determining.  Hence w has a determining pair iff S holds two vertices
    at parent distance >= 3, and a parent vertex u keeps one iff some
    determining pair (a, b) of u in the parent does not have both ends in
    S, or u is in S and some neighbour a of u outside S has N(a) & S = {u}
    (then (a, w) is a pair of u).  Each condition is a few big-int
    operations on the HAS and NONE sets of _mask_sets.
    """
    has, none, _ = _mask_sets(k)
    full = (1 << k) - 1
    table = 0
    for a, ball in enumerate(_balls(adj, k)):
        if ball != full:
            table |= has[a] & ~none[full & ~ball]
    for u in range(k):
        if not table:
            return 0
        both = -1
        for a, b in _pairs_at(adj, u):
            both &= has[a] & has[b]
            if not both & table:
                break
        stuck = table & both
        if not stuck:
            continue
        rescue = 0
        bit_u = 1 << u
        for a in bits(adj[u]):
            rescue |= has[u] & ~has[a] & none[adj[a] & ~bit_u]
        table &= ~stuck | rescue
    return table


def _girth_table(adj, k: int) -> int:
    """Bit S (1 <= S < 2^k) is set iff attaching a new vertex to the
    neighbourhood S of the parent adj on k vertices gives a child of girth
    > 4 or an acyclic one: the parent is such a graph and the vertices of
    S are pairwise at parent distance >= 3 (a short cycle through the new
    vertex closes over two of them)."""
    if not _girth_exceeds_4(adj, k):
        return 0
    has, none, _ = _mask_sets(k)
    table = (1 << (1 << k)) - 2
    for a, ball in enumerate(_balls(adj, k)):
        table &= ~has[a] | none[ball & ~(1 << a)]
    return table


def _is_critical_fast(adj, n: int) -> bool:
    """Pairs test with rejection filters and girth shortcut; verdict only.

    Filters: minimum degree >= 2 is forced because a determining pair of v
    needs two nonadjacent neighbors of v; a vertex adjacent to all others
    ruins every other vertex's pairs (it is always a second common
    neighbor), which kills any graph on >= 2 vertices.  Shortcut: with
    minimum degree >= 2 and girth > 4, any two neighbors of any vertex
    form a determining pair, so the graph is critical outright.
    """
    if n <= 1:
        return False
    for row in adj:
        d = row.bit_count()
        if d < 2 or d == n - 1:
            return False
    if _girth_exceeds_4(adj, n):
        return True
    for v in range(n):
        if _witness_for(adj, v) is None:
            return False
    return True


def is_distance_critical(g: Graph) -> bool:
    """Filtered pairs verdict; same predicate as the report methods."""
    return _is_critical_fast(g.adj, g.n)


def _is_edge_maximal_fast(adj, n: int) -> bool:
    """No single added edge keeps the graph critical (assumes it is)."""
    for x in range(n):
        absent = ~(adj[x] | ((1 << (x + 1)) - 1)) & ((1 << n) - 1)
        for y in bits(absent):
            trial = list(adj)
            trial[x] |= 1 << y
            trial[y] |= 1 << x
            if _is_critical_fast(trial, n):
                return False
    return True


def is_edge_maximal_critical(g: Graph) -> bool:
    """True when no single edge can be added without losing criticality."""
    if not _is_critical_fast(g.adj, g.n):
        raise ValueError("graph is not distance critical")
    return _is_edge_maximal_fast(g.adj, g.n)
