"""Machine checks of the package's structural and extremal laws.

Every law about distance-critical graphs that the rest of the package
relies on is restated here as a finite, exhaustively checkable property
over an enumerated universe (critical graphs, edge-maximal critical
graphs, connected graphs of girth > 4, ... up to a vertex cap) or over a
constructed family.  The universe is one walk of the augmentation tree
over the orders 1..cap, made once per run and read by every lemma.  It
is the census's own walk (enumeration._iter_leaves), which yields every
order: every graph's critical verdict comes from its parent's
criticality table, and at each order only the graphs some lemma
quantifies over are yielded (at the cap, only those are tried).  The
three product laws (cartesian, tensor and strong products of critical
factors stay critical) run on the same harness over their own factor
universe.

Every law is one row of an ordered registry: an id, a description of
its universe and a generator of (graph, holds) instances.  One loop
turns a row into a LemmaCheck: the number of instances examined and the
graph6 certificates of the failed ones.  Any violation means an
implementation bug or a genuine counterexample, and both must surface
loudly.

The determinant utilities cover the classic tree fact: the determinant of
the n x n distance matrix of any tree on n >= 2 vertices is
-(n-1) * (-2)^(n-2), independent of the tree's shape.  The sign is easy
to get wrong; a direct cofactor expansion for the 4-vertex star gives
-12, matching the formula (-3 * (-2)^2 = -12), and the tests pin this
against an independent cofactor oracle.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, NamedTuple

from .constructions import cycle, regular_extremal
from .criticality import (
    _distance_changers,
    _girth_table,
    _is_critical_fast,
    _is_edge_maximal_fast,
    _witness_for,
    determining_pairs_of,
    involved_set,
)
from .enumeration import _attach, _iter_leaves, _iter_unions, iter_connected
from .graph import (
    Graph,
    _layer,
    _with_each_non_edge,
    all_pairs_distances,
    bits,
    girth,
    is_connected,
    is_two_connected,
)
from .graph6 import encode_graph6
from .products import ProductKind, product

MAX_LEMMA_CAP = 10


class LemmaCheck(NamedTuple):
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
    """Every catalog the lemma sweeps read, from one walk of the
    augmentation tree over the orders k = 1..n_cap.

    criticals[k] and maximal[k] hold the critical and the edge-maximal
    critical classes on k vertices; girth5 holds the connected graphs with
    minimum degree >= 2 and girth > 4, the hypothesis set of GIRTH, by
    order and then in generation order.  The walk is the census's
    (enumeration._iter_leaves), which interleaves the orders 1..n_cap:
    each graph's critical verdict is read from its parent's table, and
    each node yields only the children that table or the girth > 4 table
    admits.  Below level n_cap - 2 a node still expands all its children;
    at level n_cap - 2 it opens only those it yields or whose own children
    may be critical, and the last level tries only the children it yields.
    GIRTH checks that girth > 4 implies criticality: its universe comes
    from the girth table, not from the critical one, and its verdict is the
    determining-pair test, which assumes nothing about girth.
    """

    def __init__(self, n_cap: int):
        if not 1 <= n_cap <= MAX_LEMMA_CAP:
            raise ValueError(f"n_cap must be in 1..{MAX_LEMMA_CAP}")
        self.n_cap = n_cap
        orders = range(1, n_cap + 1)
        self.criticals: dict[int, list[Graph]] = {k: [] for k in orders}
        girth5: dict[int, list[Graph]] = {k: [] for k in orders}
        leaves = _iter_leaves(n_cap, keep=lambda parent, j, table:
                              table | _girth_table(parent, j))
        for _, parent, s, critical in leaves:
            k = len(parent) + 1
            g = Graph(k, _attach(parent, s), check=False)
            if critical:
                self.criticals[k].append(g)
            if g.min_degree() >= 2:
                gg = girth(g)
                if gg is not None and gg > 4:
                    girth5[k].append(g)
        self.girth5: list[Graph] = [g for k in orders for g in girth5[k]]
        self.maximal: dict[int, list[Graph]] = {
            k: [g for g in crit if _is_edge_maximal_fast(g.adj, k)]
            for k, crit in self.criticals.items()}

    def iter_criticals(self, lo: int = 1):
        for k in range(lo, self.n_cap + 1):
            yield from self.criticals[k]


class _Factors:
    """The factors the product laws range over: every connected graph on
    1..n_cap vertices and the distance-critical ones among them."""

    def __init__(self, n_cap: int):
        if not 1 <= n_cap <= 6:
            raise ValueError("n_cap must be in 1..6 "
                             "(product orders stay modest)")
        self.connected = [g for k in range(1, n_cap + 1)
                          for g in iter_connected(k)]
        self.criticals = [g for g in self.connected
                          if _is_critical_fast(g.adj, g.n)]


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
    for g in uni.girth5:
        yield g, _is_critical_fast(g.adj, g.n)


def _check_cycle5(uni: _Universe):
    for g in uni.iter_criticals():
        if is_two_connected(g):
            yield g, all(_on_long_cycle(g, v) for v in range(g.n))


def _check_no_dom(uni: _Universe):
    for g in uni.iter_criticals():
        yield g, not any(g.degree(v) == g.n - 1 for v in range(g.n))


def _check_edge_add(uni: _Universe):
    for g in uni.iter_criticals():
        adj = g.adj
        # far[x]: the vertices outside x's radius-3 ball, those at distance
        # > 3 from x or unreachable from it
        far = []
        for x in range(g.n):
            near = _layer(adj, adj[x])[0] | adj[x] | 1 << x
            far.append(~(_layer(adj, near)[0] | near))
        for x, y, rows in _with_each_non_edge(adj):
            if far[x] >> y & 1:
                yield g, _is_critical_fast(rows, g.n)


def _check_deg3(uni: _Universe):
    for g in uni.iter_criticals():
        inv = None
        for v in range(g.n):
            if g.degree(v) > 3:
                continue
            h = g.delete_vertex(v)
            if not _is_critical_fast(h.adj, h.n):
                continue
            if inv is None:
                inv = set(involved_set(g))
            yield g, v in inv


def _check_s_size(uni: _Universe):
    for g in uni.iter_criticals():
        s = len(involved_set(g))
        yield g, s * s > 2 * g.n


def _check_dpstar(uni: _Universe):
    for g in uni.iter_criticals():
        n = g.n
        # each vertex's pairs in g, listed on first use
        pairs: list = [None] * n
        for x, y, rows in _with_each_non_edge(g.adj):
            masks = [None] * n
            for z in range(n):
                if _witness_for(rows, z, masks) is not None:
                    continue
                if pairs[z] is None:
                    pairs[z] = determining_pairs_of(g, z)
                yield g, all(x in p or y in p for p in pairs[z])


def _check_antichain(uni: _Universe):
    for g in uni.iter_criticals():
        rows = g.adj
        n = g.n
        yield g, not any(rows[x] & ~rows[z] == 0
                         for x in range(n) for z in range(n) if x != z)


def _check_min_edges(uni: _Universe):
    for g in uni.iter_criticals():
        yield g, g.edge_count() >= g.n
    for n in range(5, uni.n_cap + 1):
        c = cycle(n)
        yield c, _is_critical_fast(c.adj, n) and c.edge_count() == n


def _check_max_deg(uni: _Universe):
    for g in uni.iter_criticals(6):
        yield g, g.max_degree() <= g.n - 4


def _reg_bound(n: int) -> int:
    return (n - 1) // 4 + n // 4


def _check_reg_bound(uni: _Universe):
    for g in uni.iter_criticals():
        if g.is_regular():
            yield g, g.degree(0) <= _reg_bound(g.n)
    for n in range(5, uni.n_cap + 1):
        w = regular_extremal(n)
        yield w, (w.is_regular() and w.degree(0) == _reg_bound(n)
                  and _is_critical_fast(w.adj, n))


def _check_nonedge_s(uni: _Universe):
    for k in range(1, uni.n_cap + 1):
        for g in uni.maximal[k]:
            s = 0
            for v in involved_set(g):
                s |= 1 << v
            yield g, all(s >> x & 1 or s >> y & 1 for x, y in g.non_edges())


def _check_t_clique(uni: _Universe):
    for k in range(1, uni.n_cap + 1):
        for g in uni.maximal[k]:
            inv = set(involved_set(g))
            t = [v for v in range(k) if v not in inv]
            yield g, all(g.has_edge(x, y)
                         for i, x in enumerate(t) for y in t[i + 1:])


def _check_maxl_conn(uni: _Universe):
    for k in range(1, uni.n_cap + 1):
        # every critical class on k vertices, connected or not: a graph is
        # critical iff all its components are, so the disconnected ones
        # are multiset unions of smaller critical classes (none below 10
        # vertices: the smallest component is the 5-cycle)
        for g in _iter_unions(uni.criticals, k):
            yield g, is_connected(g) or not _is_edge_maximal_fast(g.adj, g.n)


def _check_product(kind: ProductKind, fac: _Factors):
    others = fac.connected if kind is ProductKind.CARTESIAN else fac.criticals
    for g in fac.criticals:
        for h in others:
            p = product(kind, g, h)
            yield p, _is_critical_fast(p.adj, p.n)


class _Law(NamedTuple):
    """One row of the registry: a law, the universe class it is checked
    over, and a generator of (graph, holds) instances over that universe.
    A failed instance is certified by the graph6 of its graph."""

    id: str
    universe: str
    over: type
    instances: Callable


_LAWS = (
    _Law("GIRTH", "connected graphs with min degree >= 2 and girth > 4",
         _Universe, _check_girth),
    _Law("CYCLE5", "2-connected distance-critical graphs",
         _Universe, _check_cycle5),
    _Law("NO_DOM", "distance-critical graphs", _Universe, _check_no_dom),
    _Law("EDGE_ADD",
         "(critical graph, vertex pair at distance > 3) instances",
         _Universe, _check_edge_add),
    _Law("DEG3", "(critical graph, degree <= 3 vertex whose deletion stays "
         "critical) instances", _Universe, _check_deg3),
    _Law("S_SIZE", "distance-critical graphs", _Universe, _check_s_size),
    _Law("DPSTAR", "(critical graph, added non-edge, vertex losing all "
         "determining pairs) instances", _Universe, _check_dpstar),
    _Law("ANTICHAIN", "distance-critical graphs (neighborhood antichain)",
         _Universe, _check_antichain),
    _Law("MIN_EDGES", "distance-critical graphs, plus witness cycles",
         _Universe, _check_min_edges),
    _Law("MAX_DEG", "distance-critical graphs on >= 6 vertices",
         _Universe, _check_max_deg),
    _Law("REG_BOUND",
         "regular distance-critical graphs, plus extremal witnesses",
         _Universe, _check_reg_bound),
    _Law("NONEDGE_S", "edge-maximal distance-critical graphs",
         _Universe, _check_nonedge_s),
    _Law("T_CLIQUE", "edge-maximal distance-critical graphs",
         _Universe, _check_t_clique),
    _Law("MAXL_CONN", "distance-critical graphs including disconnected ones "
         "(edge-maximal implies connected)", _Universe, _check_maxl_conn),
    _Law("CARTESIAN", "cartesian products of a distance-critical and a "
         "connected factor", _Factors,
         partial(_check_product, ProductKind.CARTESIAN)),
    _Law("TENSOR", "tensor products of two distance-critical factors",
         _Factors, partial(_check_product, ProductKind.TENSOR)),
    _Law("STRONG", "strong products of two distance-critical factors",
         _Factors, partial(_check_product, ProductKind.STRONG)),
)

LEMMA_IDS = tuple(law.id for law in _LAWS if law.over is _Universe)


def _certify(law: _Law, n_cap: int, uni=None) -> LemmaCheck:
    """Count the law's instances and certify each failed one; the
    universe is built (and timed) here unless a shared one is passed."""
    t0 = time.perf_counter()
    if uni is None:
        uni = law.over(n_cap)
    checked = 0
    bad = []
    for g, holds in law.instances(uni):
        checked += 1
        if not holds:
            bad.append(encode_graph6(g))
    return LemmaCheck(
        id=law.id,
        universe=f"{law.universe}, n <= {n_cap}",
        checked=checked,
        violations=tuple(bad),
        elapsed=time.perf_counter() - t0,
    )


def run_lemma(lemma_id: str, n_cap: int) -> LemmaCheck:
    """Exhaustively check one law over its universe up to n_cap vertices."""
    if lemma_id not in LEMMA_IDS:
        raise ValueError(f"unknown lemma id {lemma_id!r}; "
                         f"known: {', '.join(LEMMA_IDS)}")
    return _certify(next(law for law in _LAWS if law.id == lemma_id), n_cap)


def _run_over(over: type, n_cap: int) -> list[LemmaCheck]:
    uni = over(n_cap)
    return [_certify(law, n_cap, uni) for law in _LAWS if law.over is over]


def run_all_lemmas(n_cap: int) -> list[LemmaCheck]:
    """Run every lemma check over one shared universe sweep."""
    return _run_over(_Universe, n_cap)


def check_product_lemmas(n_cap: int) -> list[LemmaCheck]:
    """Check the three product laws over all factors on up to n_cap
    vertices: a cartesian product with a distance-critical factor is
    distance critical whatever the connected other factor; tensor and
    strong products of two distance-critical factors are distance
    critical.  A violation is certified by the graph6 of the product."""
    return _run_over(_Factors, n_cap)


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
    rows = all_pairs_distances(t)
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
    leaves = sum(1 << v for v in range(t.n) if t.degree(v) == 1)
    return not _distance_changers(t.adj, t.n) & leaves
