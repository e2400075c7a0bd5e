"""Machine checks of the package's structural and extremal laws.

Every law about distance-critical graphs that the rest of the package
relies on is restated here as a finite, exhaustively checkable property
over an enumerated universe (critical graphs, edge-maximal critical
graphs, connected graphs of girth > 4, ... up to a vertex cap) or over a
constructed family.  The universe is one sweep over the connected graphs
on 1..cap vertices, made once per run and read by every lemma; it keeps
only the graphs some lemma quantifies over.  A check returns the number
of hypothesis-satisfying instances examined and a list of graph6
certificates for violations; any violation means an implementation bug
or a genuine counterexample, and both must surface loudly.

The determinant utilities cover the classic tree fact: the determinant of
the n x n distance matrix of any tree on n >= 2 vertices is
-(n-1) * (-2)^(n-2), independent of the tree's shape.  The sign is easy
to get wrong; a direct cofactor expansion for the 4-vertex star gives
-12, matching the formula (-3 * (-2)^2 = -12), and the tests pin this
against an independent cofactor oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .constructions import cycle, regular_extremal
from .criticality import (
    _deletion_changes_distances,
    _is_critical_fast,
    _is_edge_maximal_fast,
    _witness_for,
    determining_pairs_of,
    involved_set,
)
from .enumeration import _iter_unions, iter_connected
from .graph import (
    Graph,
    UNREACHABLE,
    all_pairs_distances,
    bits,
    girth,
    is_connected,
    is_two_connected,
)
from .graph6 import encode_graph6

LEMMA_IDS = (
    "GIRTH",
    "CYCLE5",
    "NO_DOM",
    "EDGE_ADD",
    "DEG3",
    "S_SIZE",
    "DPSTAR",
    "ANTICHAIN",
    "MIN_EDGES",
    "MAX_DEG",
    "REG_BOUND",
    "NONEDGE_S",
    "T_CLIQUE",
    "MAXL_CONN",
)

MAX_LEMMA_CAP = 9


@dataclass(frozen=True)
class LemmaCheck:
    """Outcome of one lemma sweep; violations empty means pass."""

    id: str
    universe: str
    checked: int
    violations: tuple[str, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "universe": self.universe,
            "checked": self.checked,
            "violations": list(self.violations),
            "ok": self.ok,
        }


class _Universe:
    """Every catalog the lemma sweeps read, from one pass over the
    connected graphs on 1..n_cap vertices.

    criticals[k] and maximal[k] hold the critical and the edge-maximal
    critical classes on k vertices; girth5 holds the connected graphs with
    minimum degree >= 2 and girth > 4, the hypothesis set of GIRTH.  All
    connected graphs are seen once and only these few are kept.
    """

    def __init__(self, n_cap: int):
        if not 1 <= n_cap <= MAX_LEMMA_CAP:
            raise ValueError(f"n_cap must be in 1..{MAX_LEMMA_CAP}")
        self.n_cap = n_cap
        self.criticals: dict[int, list[Graph]] = {}
        self.maximal: dict[int, list[Graph]] = {}
        self.girth5: list[Graph] = []
        for k in range(1, n_cap + 1):
            crit = self.criticals[k] = []
            for g in iter_connected(k):
                if _is_critical_fast(g.adj, k):
                    crit.append(g)
                if g.min_degree() >= 2:
                    gg = girth(g)
                    if gg is not None and gg > 4:
                        self.girth5.append(g)
            self.maximal[k] = [g for g in crit
                               if _is_edge_maximal_fast(g.adj, k)]

    def iter_criticals(self, lo: int = 1):
        for k in range(lo, self.n_cap + 1):
            yield from self.criticals[k]

    def iter_criticals_with_disconnected(self, k: int):
        """Every critical class on exactly k vertices, connected or not.

        A graph is critical iff all its components are, so the
        disconnected classes are multiset unions of smaller critical
        classes (none exist below 10 vertices: the smallest component
        is the 5-cycle)."""
        return _iter_unions(self.criticals, k)


def _on_long_cycle(g: Graph, v: int) -> bool:
    """Is v on a cycle of length >= 5?  Certified by a simple path of at
    least 3 edges between two distinct neighbors of v avoiding v."""
    nb = list(bits(g.adj[v]))
    adj = g.adj
    targets = g.adj[v]
    for a in nb:
        # DFS over simple paths from a in g - v; reaching any other
        # neighbor of v after >= 3 edges closes a long enough cycle.
        stack = [(a, (1 << a) | (1 << v), 0)]
        while stack:
            x, visited, length = stack.pop()
            for y in bits(adj[x] & ~visited):
                if targets >> y & 1 and y != a and length + 1 >= 3:
                    return True
                stack.append((y, visited | (1 << y), length + 1))
    return False


def _check_girth(uni: _Universe):
    checked = 0
    bad = []
    for g in uni.girth5:
        checked += 1
        if not _is_critical_fast(g.adj, g.n):
            bad.append(encode_graph6(g))
    return "connected graphs with min degree >= 2 and girth > 4", checked, bad


def _check_cycle5(uni: _Universe):
    checked = 0
    bad = []
    for g in uni.iter_criticals():
        if not is_two_connected(g):
            continue
        checked += 1
        if not all(_on_long_cycle(g, v) for v in range(g.n)):
            bad.append(encode_graph6(g))
    return "2-connected distance-critical graphs", checked, bad


def _check_no_dom(uni: _Universe):
    checked = 0
    bad = []
    for g in uni.iter_criticals():
        checked += 1
        if any(g.degree(v) == g.n - 1 for v in range(g.n)):
            bad.append(encode_graph6(g))
    return "distance-critical graphs", checked, bad


def _check_edge_add(uni: _Universe):
    checked = 0
    bad = []
    for g in uni.iter_criticals():
        dist = all_pairs_distances(g)
        for x in range(g.n):
            for y in range(x + 1, g.n):
                d = dist.rows[x][y]
                if d != UNREACHABLE and d <= 3:
                    continue
                checked += 1
                h = g.add_edge(x, y)
                if not _is_critical_fast(h.adj, h.n):
                    bad.append(encode_graph6(g))
    return ("(critical graph, vertex pair at distance > 3) instances",
            checked, bad)


def _check_deg3(uni: _Universe):
    checked = 0
    bad = []
    for g in uni.iter_criticals():
        inv = None
        for v in range(g.n):
            if g.degree(v) > 3:
                continue
            h = g.delete_vertex(v)
            if not _is_critical_fast(h.adj, h.n):
                continue
            checked += 1
            if inv is None:
                inv = set(involved_set(g))
            if v not in inv:
                bad.append(encode_graph6(g))
    return ("(critical graph, degree <= 3 vertex whose deletion stays "
            "critical) instances", checked, bad)


def _check_s_size(uni: _Universe):
    checked = 0
    bad = []
    for g in uni.iter_criticals():
        checked += 1
        s = len(involved_set(g))
        if s * s <= 2 * g.n:
            bad.append(encode_graph6(g))
    return "distance-critical graphs", checked, bad


def _check_dpstar(uni: _Universe):
    checked = 0
    bad = []
    for g in uni.iter_criticals():
        for x in range(g.n):
            for y in range(x + 1, g.n):
                if g.has_edge(x, y):
                    continue
                h = g.add_edge(x, y)
                for z in range(g.n):
                    if _witness_for(h.adj, z) is not None:
                        continue
                    checked += 1
                    pairs = determining_pairs_of(g, z)
                    if not all(x in p or y in p for p in pairs):
                        bad.append(encode_graph6(g))
    return ("(critical graph, added non-edge, vertex losing all "
            "determining pairs) instances", checked, bad)


def _check_antichain(uni: _Universe):
    checked = 0
    bad = []
    for g in uni.iter_criticals():
        checked += 1
        rows = g.adj
        n = g.n
        if any(rows[x] & ~rows[z] == 0
               for x in range(n) for z in range(n) if x != z):
            bad.append(encode_graph6(g))
    return "distance-critical graphs (neighborhood antichain)", checked, bad


def _check_min_edges(uni: _Universe):
    checked = 0
    bad = []
    for g in uni.iter_criticals():
        checked += 1
        if g.edge_count() < g.n:
            bad.append(encode_graph6(g))
    for n in range(5, uni.n_cap + 1):
        checked += 1
        c = cycle(n)
        if not (_is_critical_fast(c.adj, n) and c.edge_count() == n):
            bad.append(encode_graph6(c))
    return "distance-critical graphs, plus witness cycles", checked, bad


def _check_max_deg(uni: _Universe):
    checked = 0
    bad = []
    for g in uni.iter_criticals(lo=6):
        checked += 1
        if g.max_degree() > g.n - 4:
            bad.append(encode_graph6(g))
    return "distance-critical graphs on >= 6 vertices", checked, bad


def _reg_bound(n: int) -> int:
    return (n - 1) // 4 + n // 4


def _check_reg_bound(uni: _Universe):
    checked = 0
    bad = []
    for g in uni.iter_criticals():
        if not g.is_regular():
            continue
        checked += 1
        if g.degree(0) > _reg_bound(g.n):
            bad.append(encode_graph6(g))
    for n in range(5, uni.n_cap + 1):
        checked += 1
        w = regular_extremal(n)
        good = (w.is_regular() and w.degree(0) == _reg_bound(n)
                and _is_critical_fast(w.adj, n))
        if not good:
            bad.append(encode_graph6(w))
    return "regular distance-critical graphs, plus extremal witnesses", \
        checked, bad


def _check_nonedge_s(uni: _Universe):
    checked = 0
    bad = []
    for k in range(1, uni.n_cap + 1):
        for g in uni.maximal[k]:
            checked += 1
            s = 0
            for v in involved_set(g):
                s |= 1 << v
            ok = all(
                s >> x & 1 or s >> y & 1
                for x in range(k) for y in range(x + 1, k)
                if not g.has_edge(x, y)
            )
            if not ok:
                bad.append(encode_graph6(g))
    return "edge-maximal distance-critical graphs", checked, bad


def _check_t_clique(uni: _Universe):
    checked = 0
    bad = []
    for k in range(1, uni.n_cap + 1):
        for g in uni.maximal[k]:
            checked += 1
            inv = set(involved_set(g))
            t = [v for v in range(k) if v not in inv]
            ok = all(g.has_edge(x, y)
                     for i, x in enumerate(t) for y in t[i + 1:])
            if not ok:
                bad.append(encode_graph6(g))
    return "edge-maximal distance-critical graphs", checked, bad


def _check_maxl_conn(uni: _Universe):
    checked = 0
    bad = []
    for k in range(1, uni.n_cap + 1):
        for g in uni.iter_criticals_with_disconnected(k):
            checked += 1
            if is_connected(g):
                continue
            if _is_edge_maximal_fast(g.adj, g.n):
                bad.append(encode_graph6(g))
    return ("distance-critical graphs including disconnected ones "
            "(edge-maximal implies connected)", checked, bad)


_HANDLERS = {
    "GIRTH": _check_girth,
    "CYCLE5": _check_cycle5,
    "NO_DOM": _check_no_dom,
    "EDGE_ADD": _check_edge_add,
    "DEG3": _check_deg3,
    "S_SIZE": _check_s_size,
    "DPSTAR": _check_dpstar,
    "ANTICHAIN": _check_antichain,
    "MIN_EDGES": _check_min_edges,
    "MAX_DEG": _check_max_deg,
    "REG_BOUND": _check_reg_bound,
    "NONEDGE_S": _check_nonedge_s,
    "T_CLIQUE": _check_t_clique,
    "MAXL_CONN": _check_maxl_conn,
}


def run_lemma(lemma_id: str, n_cap: int, _uni: "_Universe | None" = None) -> LemmaCheck:
    """Exhaustively check one law over its universe up to n_cap vertices."""
    if lemma_id not in _HANDLERS:
        raise ValueError(f"unknown lemma id {lemma_id!r}; "
                         f"known: {', '.join(LEMMA_IDS)}")
    t0 = time.perf_counter()
    uni = _uni if _uni is not None else _Universe(n_cap)
    desc, checked, bad = _HANDLERS[lemma_id](uni)
    return LemmaCheck(
        id=lemma_id,
        universe=f"{desc}, n <= {n_cap}",
        checked=checked,
        violations=tuple(bad),
        elapsed=time.perf_counter() - t0,
    )


def run_all_lemmas(n_cap: int) -> list[LemmaCheck]:
    """Run every lemma check over one shared universe sweep."""
    uni = _Universe(n_cap)
    return [run_lemma(lid, n_cap, uni) for lid in LEMMA_IDS]


def _require_tree(t: Graph) -> None:
    if t.n < 2 or t.edge_count() != t.n - 1 or not is_connected(t):
        raise ValueError("input is not a tree on >= 2 vertices")


def graham_pollak_determinant(t: Graph) -> int:
    """Exact determinant of the distance matrix of a tree.

    Equals -(n-1) * (-2)^(n-2) for every tree on n >= 2 vertices.
    Computed by fraction-free (Bareiss) elimination over the integers, so
    the result is exact at any size.
    """
    _require_tree(t)
    rows = all_pairs_distances(t).rows
    m = [list(r) for r in rows]
    n = t.n
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def pendant_deletion_check(t: Graph) -> bool:
    """True iff deleting any one leaf of the tree preserves all remaining
    pairwise distances (it always does; this is the checkable form)."""
    _require_tree(t)
    leaves = [v for v in range(t.n) if t.degree(v) == 1]
    if not leaves:
        raise ValueError("tree has no leaf")
    base = all_pairs_distances(t).rows
    return not any(_deletion_changes_distances(t, base, v) for v in leaves)
