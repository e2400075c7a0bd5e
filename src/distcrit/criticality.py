"""Distance criticality: determining pairs, decision procedures, reports.

A graph is distance critical when deleting any single vertex changes some
distance between two surviving vertices (a finite distance becoming
unreachable counts).  Equivalently, every vertex v admits a determining
pair: two nonadjacent vertices whose unique common neighbor is v.  The
equivalence holds componentwise, so both tests below accept disconnected
input; a graph with no vertices is not distance critical by convention.

The pairs method is the workhorse: it needs no distance recomputation and
reports, per vertex, the lexicographically least witness pair.  Every
pair query reads one mask per vertex a, its sole partners: the
nonadjacent b with exactly one common neighbour with a.  The relation is
symmetric, and (a, b) is a determining pair of that neighbour.  The masks
are built two ways.  One vertex at a time, _sole_partners reads them
from graph._layer(adj, mask): the bits set in at least one, and in at
least two, of the rows adj[x], x in mask.  Over adjacency rows these are
the vertices with one, and with two or more, neighbours in mask, so for
mask = N(a), once & ~twice outside N(a) and a is a's mask.  All at once,
_all_sole_partners reads them from one packed bit matrix M of the graph:
the cells covered by exactly one of the outer products N(c) x N(c).
_packed_layer, the form of _layer for every row of a packed matrix at
once, writes each product with one multiplication.
_pair_scan (the reports, involved_set) takes whichever its cost rule
picks from the order and the edge count; the lazy witness readers and
determining_pairs_of stay per vertex.  The same layer gives _girth_table
its girth > 4 test, and two layers per BFS frontier give the direct
method's sole parents.  So the direct method shares _layer and
_packed_layer with the pairs method, and no more: it reads no
sole-partner mask.  graph.py steps its girth, distance rows and
reachability masks with _layer too.

The enumeration decides criticality for every child of a node at once.
Its primitive is _pairless_sets(adj, k): for a new vertex x attached to
the neighbourhood A of the graph adj, which vertices of G + x have no
determining pair, as 2^k-bit sets over all A (bit A standing for A, as
in _mask_sets).  The criticality table (_table_of) is the A in none of
them.  A pairless vertex gains a pair in a later child only through the
next new vertex, so a graph's pairless set can prove that it has no
critical child at all: some pairless vertex has no rescuer, a neighbour
that could pair it with the next vertex (see _alive_set).  The same sets
decide this for every child at once, before any child is built: bit A
of _alive_set is clear iff some pairless vertex of the child with
neighbourhood A has no rescuer.  There _layer runs over the pairless
sets as rows: its twice mask holds the A where two or more of the
selected vertices are pairless.

The direct method is an independent check of the same predicate, from
BFS alone: one pass per source x finds every vertex whose deletion
lengthens a distance from x (_sole_parents), and the graph is critical
iff these sets cover every vertex.  No layers or distance rows are kept.
On dense graphs the sources go in blocks of 32 instead, each block one
BFS on packed matrices (_block_changers, a multi-source BFS after Then
et al., "The More the Merrier", PVLDB 8(4), 2014).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

# all_pairs_distances is not called here; it stays importable because
# bench/layers.py patches it in this module by name
from .graph import (  # noqa: F401
    Graph, _check_vertex, _layer, _pack, _unpack, _width, _with_each_non_edge,
    all_pairs_distances, bits)

# the cost rule of _pair_scan; see there
_KERNEL_BREAK_EVEN = 100_000
# the block size and the cost rule of _distance_changers; see there
_BLOCK = 32
_BLOCK_BREAK_EVEN = 150_000


def _sole_partners(adj, a: int) -> int:
    """The b that are not adjacent to a and share exactly one neighbour
    with a: the once mask of _layer(adj, N(a)) outside its twice mask,
    N(a) and a itself.  The relation is symmetric, and (a, b) is a
    determining pair of their one common neighbour."""
    row = adj[a]
    once, twice = _layer(adj, row)
    return once & ~twice & ~row & ~(1 << a)


@functools.cache
def _unit_matrices(w: int) -> tuple[int, int]:
    """(col0, diag) for w x w bit matrices packed as by graph._pack: bit 0
    of every row, and bit r of every row r."""
    col0 = ((1 << w * w) - 1) // ((1 << w) - 1)
    diag = ((1 << w * (w + 1)) - 1) // ((1 << w + 1) - 1)
    return col0, diag


def _packed_layer(adj, f: int, cols, w: int) -> tuple[int, int]:
    """graph._layer for every row of the packed bit matrix f at once, over
    the columns in the iterable cols only: (once, twice), packed as f, row
    r of each being _layer(adj, mask) for mask the bits of row r of f in
    cols.  f holds at most w rows of width w (graph._pack's layout, row r
    at offset r * w) and every adj[c] < 2^w.

    f >> c & col0 holds bit 0 of row r iff row r of f holds c, so
    multiplying it by adj[c] < 2^w writes adj[c] into those rows with no
    carries: the outer product of column c of f and row c of adj.  Each
    product costs about (rows of f) w n / 900 multiplications of 30-bit
    digits, n = len(adj)."""
    col0 = _unit_matrices(w)[0]
    once = twice = 0
    for c in cols:
        cross = (f >> c & col0) * adj[c]
        twice |= once & cross
        once |= cross
    return once, twice


def _row_union(x: int, w: int) -> int:
    """The OR of the rows of the packed bit matrix x of row width w, from
    log2(rows) foldings of the upper rows onto the lower ones."""
    rows = -(-x.bit_length() // w)
    while rows > 1:
        rows = (rows + 1) // 2
        x = x & (1 << rows * w) - 1 | x >> rows * w
    return x


def _all_sole_partners(adj) -> list[int]:
    """[_sole_partners(adj, a) for a in range(len(adj))], from one packed
    bit matrix M of the rows (graph._pack, row a at offset a * w).

    The pairs with common neighbour c are the cells of N(c) x N(c), whose
    row a is adj[c] for a in N(c) and 0 elsewhere.  As M is symmetric,
    column c of M is N(c), so _packed_layer(adj, M, cols, w) writes that
    outer product for each column c.  Its once and twice keep the cells
    covered at least once and at least twice, and once & ~twice off M and
    off the diagonal holds every sole-partner mask.  The columns are every
    vertex: one of degree < 2 is no common neighbour of two others, and
    writes at most the diagonal cell of its neighbour, which is masked
    out.  The n products grow as n^2 w^2; see _pair_scan for when they
    pay."""
    m, w = _pack(adj)
    n = len(adj)
    once, twice = _packed_layer(adj, m, range(n), w)
    return _unpack(once & ~(twice | m | _unit_matrices(w)[1]), w, n)


def determining_pairs_of(g: Graph, v: int) -> list[tuple[int, int]]:
    """All determining pairs of v, sorted lexicographically.

    A determining pair of v is a nonadjacent pair a < b whose unique
    common neighbor is v; both endpoints necessarily lie in N(v).
    """
    _check_vertex(v, g.n)
    row = g.adj[v]
    return [(a, b) for a in bits(row)
            for b in bits(_sole_partners(g.adj, a) & row) if b > a]


def _witness_for(adj, v: int, masks: list) -> tuple[int, int] | None:
    """The lexicographically least determining pair of v, or None: (a, b)
    for the least a in N(v) whose sole-partner mask holds a b > a in N(v),
    and the least such b.  masks[a] is that mask; an entry that is None is
    computed on first use and stored there, for the next caller."""
    later = adj[v]
    while later:
        low = later & -later
        later ^= low
        a = low.bit_length() - 1
        if masks[a] is None:
            masks[a] = _sole_partners(adj, a)
        rest = later & masks[a]
        if rest:
            return a, (rest & -rest).bit_length() - 1
    return None


def _pair_scan(
    adj, n: int
) -> tuple[tuple[tuple[int, int] | None, ...], tuple[int, ...]]:
    """Least determining pair of every vertex (or None), and the involved
    set: the vertices whose sole-partner mask is not empty.  The witness
    of v is (a, b) for the least involved a in N(v) whose mask meets N(v),
    and the least b in that meet, above a by symmetry.

    The masks come from _all_sole_partners iff
    (n w)^2 <= _KERNEL_BREAK_EVEN * 2m, w = graph._width(n) and 2m the
    sum of the degrees, and else from _sole_partners, vertex by vertex.
    The per-vertex list costs about one Python step per edge end.  The
    kernel costs n products of about n w^2 / 900 digit multiplications
    each, so w, not n, sets its price: n = 65 pays for w = 128.  The
    break-even (n w)^2 / 2m measured about 0.9-3.3 x 10^5 over
    n = 40..512, lowest for n <= 64, so the constant is 10^5.  No graph on 1024
    vertices takes the kernel: (n w)^2 = 2^40 > 10^5 * 1024 * 1023.
    Min of 21 interleaved rounds in one process, 2-core x86 VM, Python
    3.11, in us, kernel against per-vertex list:
        G(48, 1/2)      34      270     C_16             7       9
        G(64, 1/2)      68      511     G(96, 3/96)    345     174
        G(96, 1/2)     277    1,131     C_96           190      73
        gamma(8)        38      234     C_256        2,658     211
        G(256, 1/2)  5,231    7,400     G(512, 3/512) 43,879    850
    G(256, 1/2), at (n w)^2 / 2m = 1.3 x 10^5, would gain 1.4x but
    stays per vertex."""
    ends = sum(map(int.bit_count, adj))
    if (n * _width(n)) ** 2 <= _KERNEL_BREAK_EVEN * ends:
        masks = _all_sole_partners(adj)
    else:
        masks = [_sole_partners(adj, a) for a in range(n)]
    involved = sum(1 << a for a, mask in enumerate(masks) if mask)
    witnesses = []
    for row in adj:
        first = None
        later = row & involved
        while later:
            low = later & -later
            a = low.bit_length() - 1
            rest = masks[a] & row
            if rest:
                first = a, (rest & -rest).bit_length() - 1
                break
            later ^= low
        witnesses.append(first)
    return tuple(witnesses), tuple(bits(involved))


def involved_set(g: Graph) -> tuple[int, ...]:
    """Vertices occurring as an endpoint of some determining pair."""
    return _pair_scan(g.adj, g.n)[1]


class CriticalityReport(NamedTuple):
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


def _sole_parents(adj, x: int) -> int:
    """The vertices v != x whose deletion changes a distance from x:
    those that are the only neighbour, in the previous BFS layer from x,
    of some vertex in the next layer.

    Proof.  Let v lie in layer d >= 1 (layer 0 is x alone).  If a vertex
    w of layer d + 1 has no neighbour in layer d but v, every path of
    length d + 1 from x to w ends through v, so deleting v lengthens the
    distance from x to w, or makes w unreachable.  Otherwise no distance
    from x changes.  A deletion shortens no distance.  The layers up to
    d keep theirs, since the inner vertices of a shortest path to them
    lie in layers below d.  Every vertex of layer d + 1 keeps a neighbour
    other than v in layer d.  By induction over the later layers, each of
    their vertices keeps its distance through a neighbour in the
    previous layer, which is not v.

    One pass: _layer of a BFS layer gives the next layer and the
    vertices reached twice from it, so the vertices of the next layer
    with one parent only are next & ~twice.  The once mask of _layer of
    those, within the layer, holds their parents: the sole parents.
    """
    whole = (1 << len(adj)) - 1
    seen = 1 << x | adj[x]
    frontier = adj[x]
    found = 0
    # a layer that completes seen has no next layer to be sole parent in
    while frontier and seen != whole:
        once, twice = _layer(adj, frontier)
        nxt = once & ~seen
        found |= _layer(adj, nxt & ~twice)[0] & frontier
        seen |= nxt
        frontier = nxt
    return found


def _block_changers(adj, n: int) -> int:
    """_distance_changers from packed BFS: the sources in blocks of
    _BLOCK, each block one BFS over packed matrices, row i for source
    lo + i, stopping after the first block whose union holds every vertex.
    As there, the sources are 0..n - 2.

    Each step is _sole_parents for every row at once.  Row i starts as
    frontier N(x) and seen N[x], x = lo + i.  _packed_layer of the
    frontier, over the columns some frontier row holds, gives once and
    twice; nxt = once & ~seen is the next layer and only = nxt & ~twice
    its vertices with one parent.  The once mask of _packed_layer of only,
    over the columns some row of only holds, within the frontier, holds
    the sole parents.  A row whose seen is complete gets an empty next
    layer, and the block ends when every row's frontier is empty or every
    seen is complete."""
    m, w = _pack(adj)
    col0, diag = _unit_matrices(w)
    full = (1 << n) - 1
    found = 0
    for lo in range(0, n - 1, _BLOCK):
        cut = (1 << min(_BLOCK, n - 1 - lo) * w) - 1
        frontier = m >> lo * w & cut
        seen = frontier | diag >> lo * w & cut
        whole = full * (col0 & cut)
        rows = 0
        while frontier and seen != whole:
            once, twice = _packed_layer(
                adj, frontier, bits(_row_union(frontier, w)), w)
            nxt = once & ~seen
            only = nxt & ~twice
            rows |= _packed_layer(
                adj, only, bits(_row_union(only, w)), w)[0] & frontier
            seen |= nxt
            frontier = nxt
        found |= _row_union(rows, w)
        if found == full:
            break
    return found


def _distance_changers(adj, n: int) -> int:
    """The vertices whose deletion changes a distance between two other
    vertices: the union of _sole_parents over the sources, which stops
    once it holds every vertex.

    The sources are 0..n - 2: source n - 1 adds nothing.  A vertex v
    whose deletion changes d(n - 1, y) changes d(y, n - 1) too, and
    y != n - 1, so source y finds v.

    The sources go in packed blocks (_block_changers) iff n >= 32,
    4 * 2m >= n^2 and (n w)^2 <= _BLOCK_BREAK_EVEN * 2m, w = graph._width(n)
    and 2m the sum of the degrees, and else one by one.  A source's BFS
    costs about one Python step per vertex, and on a critical graph the
    loop often stops after a fraction of the sources.  A block costs one
    product of about _BLOCK w n / 900 digit multiplications per column
    that its frontiers touch, summed over its layers.  So it pays when
    the frontiers of a block overlap in few layers, which an average
    degree of n / 4 or more keeps (the cycle power C_64^6, of degree
    12 < 64 / 4, has 6 layers and loses 1.14x), and when w is small.  Below 32 vertices a block costs
    about as much as the loop that stops early.  The blocks' time over the
    loop's was 0.92 on G(256, 1/2), at (n w)^2 / 2m = 1.3 x 10^5, 0.98 on
    G(256, 0.45) at 1.5 x 10^5 and 1.04 on G(400, 0.9) at 2.9 x 10^5, so
    the constant is 1.5 x 10^5.  No graph of width 512 or more (n > 256)
    takes the blocks: (n w)^2 >= 2^18 n^2 > 1.5 x 10^5 * 2m.
    Min of 21 interleaved rounds in one process, 2-core x86 VM, Python
    3.11, in us, per source against blocks, * on the rule's path:
        G(32, 1/2)      119     *23     gamma(3)        *13      17
        G(64, 1/2)      455     *84     gamma(6)        137     *84
        G(96, 1/2)      983    *311     gamma(8)        405    *201
        G(128, 1/2)   1,739    *594     gamma(12)     1,676    *756
        G(256, 1/2)   6,710  *6,145     gamma(20)    10,265  *7,897
        G(512, 1/2) *31,136  69,448     gamma(28)   *42,683  60,108
        G(16, 0.9)      *31       9     regular(16)     *19      21
        G(64, 0.9)      753     *80     regular(32)      77     *58
        G(256, 0.9)  11,910  *6,041     regular(64)     312    *110
        G(512, 0.9) *52,827  70,865     regular(512) *14,520 20,171
        C_64           *136   1,564     C_64^6         *237     270
    Through the rule no G(n, 1/2), G(n, 0.9), gamma(m) or regular(n) up
    to n = 512 took more than 1.03x the loop's time.  It leaves G(16, 0.9)
    and G(96, 3/96) (3,160 against 2,545) per source, where blocks would
    gain."""
    ends = sum(map(int.bit_count, adj))
    if (n >= 32 and 4 * ends >= n * n
            and (n * _width(n)) ** 2 <= _BLOCK_BREAK_EVEN * ends):
        return _block_changers(adj, n)
    full = (1 << n) - 1
    found = 0
    for x in range(n - 1):
        if found == full:
            break
        found |= _sole_parents(adj, x)
    return found


def is_distance_critical_direct(g: Graph) -> bool:
    """The definition, by BFS and without determining pairs: deleting any
    vertex changes the distances from some other vertex.

    A graph with a vertex of degree < 2 is rejected before any BFS.  A
    sole parent v (see _sole_parents) lies in a layer d >= 1 from the
    source, so it has a neighbour in layer d - 1, and it is the only
    parent of some vertex of layer d + 1, another neighbour.  A vertex
    with fewer than two neighbours is therefore no sole parent from any
    source, and its deletion changes no distance."""
    return (g.n > 0 and all(row & (row - 1) for row in g.adj)
            and _distance_changers(g.adj, g.n) == (1 << g.n) - 1)


@functools.cache
def _mask_sets(k: int) -> tuple[list[int], ...]:
    """Sets of vertex masks S of range(k) as 2^k-bit ints, bit S standing
    for S (S = 0 included): HAS[a] holds the S that contain a, NONE[X]
    the S disjoint from X, SUP[X] the S that contain X, and GE[j], for
    j = 0..k + 2, the S with |S| >= j.  NONE[X] and SUP[X] are the AND of
    ~HAS[a] and of HAS[a] over the a in X, so ~HAS[a] & NONE[X] is
    NONE[X | a]."""
    size = 1 << k
    has = []
    for a in range(k):
        half = 1 << a
        # the upper half of every run of 2^(a + 1) masks contains a
        repunit = ((1 << size) - 1) // ((1 << 2 * half) - 1)
        has.append((((1 << half) - 1) << half) * repunit)
    none = [(1 << size) - 1]
    sup = [(1 << size) - 1]
    for x in range(1, size):
        low = x & -x
        h = has[low.bit_length() - 1]
        none.append(none[x ^ low] & ~h)
        sup.append(sup[x ^ low] & h)
    ge = [0] * (k + 3)
    for s in range(size):
        ge[s.bit_count()] |= 1 << s
    for j in range(k, -1, -1):
        ge[j] |= ge[j + 1]
    return has, none, sup, ge


def _pairless_sets(adj, k: int) -> tuple[int, list[int]]:
    """Which vertices of G + x have no determining pair, G being the graph
    adj on k vertices and x a new vertex with neighbourhood A, for every A
    at once: (px, pl), 2^k-bit ints in the _mask_sets idiom (bit A stands
    for A, A = 0 included).  Bit A of px is set iff x has no pair, bit A of
    pl[v] iff the parent vertex v has none.

    The child's common neighbours of two parent vertices are the parent's,
    plus x when both lie in A, so adding x makes no parent pair
    determining.  Hence x has a pair iff A holds two vertices at parent
    distance >= 3, and v keeps one iff some determining pair (a, b) of v in
    the parent does not have both ends in A, or v is in A and some
    neighbour a of v outside A has N(a) & A = {v} (then (a, x) is a pair
    of v).  Both are lookups in the sets of _mask_sets.  One _layer of
    each N(a) gives both a's distance-2 ball and its _sole_partners mask.
    The ends of the pairs of v are the once mask of _layer over the masks
    as rows, within N(v), and the A that hold them all are SUP[ends].  The
    A that hold v and miss a and N(a) - v are HAS[v] & NONE[N[a] - v].
    """
    has, none, sup, _ = _mask_sets(k)
    full = (1 << k) - 1
    every = (1 << (1 << k)) - 1
    far = 0
    masks = []
    for a in range(k):
        once, twice = _layer(adj, adj[a])
        near = adj[a] | 1 << a
        masks.append(once & ~twice & ~near)
        ball = once | near
        if ball != full:
            far |= has[a] & ~none[full & ~ball]
    pl = []
    for v in range(k):
        row = adj[v]
        stuck = sup[_layer(masks, row)[0] & row]
        rescue = 0
        for a in bits(row):
            rescue |= none[(adj[a] | 1 << a) & ~(1 << v)]
        pl.append(stuck & ~(has[v] & rescue))
    return every & ~far, pl


def _alive_set(adj, k: int, px: int, pl: list[int]) -> int:
    """Which children of the graph adj on k vertices may have a critical
    child, for every neighbourhood A of the new vertex x at once, from
    (px, pl) = _pairless_sets(adj, k): bit A is clear iff some vertex v
    of Q has no rescuer, H being the child with neighbourhood A, Q its
    pairless set (bit A of px and of each pl[v]), and a rescuer of v a
    neighbour a of v in H, outside Q, with N_H(a) & Q = {v}.

    Such an H has no critical child H + y, whatever the neighbourhood S of
    y.  As in _pairless_sets, adding y makes no pair of H determining, so
    a pairless v gains a pair in H + y only as (a, y): v is in S, and a is
    a neighbour of v outside S with N_H(a) & S = {v}.  So in a critical
    H + y all of Q lies in S, and each v in Q has such an a, outside S and
    hence outside Q, with N_H(a) & Q inside N_H(a) & S = {v} and holding
    v: a rescuer.

    Proof of the sets.  Below ~P is the complement of P within the 2^k
    bits and N(.) is taken in the parent, so that N_H(x) = A and N_H(u)
    is N(u), plus x when u is in A (bit A of HAS[u]).  A parent vertex u
    is outside Q where ~pl[u] holds, and x where ~px does.
    - v = x, in Q where px holds.  A rescuer is an a in A (HAS[a]), outside
      Q (~pl[a]), whose neighbours other than x are all outside Q:
        rescue_x = OR_a HAS[a] & ~pl[a] & AND_{u in N(a)} ~pl[u].
    - v a parent vertex, in Q where pl[v] holds.  A rescuer is either a
      parent neighbour a of v, outside Q (~pl[a]), whose neighbours other
      than v are outside Q: those in N(a) - v, and x when a is in A
      (~(HAS[a] & px)); or it is x, a neighbour of v iff v is in A
      (HAS[v]), outside Q (~px), with A & Q = {v}: no other u is both in A
      and in Q.
        rescue[v] = OR_{a in N(v)} ~pl[a] & ~(HAS[a] & px)
                                   & AND_{u in N(a) - v} ~pl[u]
                  | HAS[v] & ~px & AND_{u != v} ~(HAS[u] & pl[u]).
    So the A where some v in Q has no rescuer are
    dead = px & ~rescue_x | OR_v pl[v] & ~rescue[v], and the alive set is
    ~dead.  Each AND is read from a _layer mask.  For rescue_x, the AND
    over N(a) is ~once of _layer(pl, N(a)).
    Only the bits of rescue[v] inside pl[v] count, and there pl[v] is one
    of the rows, so the AND over N(a) - v holds exactly where no second
    row is set: outside the twice mask of the same layer.  Likewise,
    inside HAS[v] & pl[v], the AND over u != v holds exactly outside
    crowded, the twice mask of the rows HAS[u] & pl[u] over all u."""
    has = _mask_sets(k)[0]
    crowded = _layer([h & p for h, p in zip(has, pl)], (1 << k) - 1)[1]
    rescue = [h & ~px & ~crowded for h in has]
    rescue_x = 0
    for a in range(k):
        once, twice = _layer(pl, adj[a])
        rescue_x |= has[a] & ~pl[a] & ~once
        by_a = ~pl[a] & ~(has[a] & px) & ~twice
        for v in bits(adj[a]):
            rescue[v] |= by_a
    dead = px & ~rescue_x
    for p, r in zip(pl, rescue):
        dead |= p & ~r
    return ((1 << (1 << k)) - 1) & ~dead


def _table_of(px: int, pl: list[int]) -> int:
    """The criticality table read from _pairless_sets: bit A is set iff
    no vertex of G + x is pairless, that is, iff G + x is critical."""
    some = px
    for p in pl:
        some |= p
    return ((1 << (1 << len(pl))) - 1) & ~some


def _girth_table(adj, k: int) -> int:
    """Bit S (1 <= S < 2^k) is set iff attaching a new vertex to the
    neighbourhood S of the parent adj on k vertices gives a child of girth
    > 4 or an acyclic one: the parent is such a graph and the vertices of
    S are pairwise at parent distance >= 3 (a short cycle through the new
    vertex closes over two of them).  One _layer of each neighbourhood
    gives both the parent's girth test and the vertices within distance 2
    of a."""
    has, none, _, _ = _mask_sets(k)
    table = (1 << (1 << k)) - 2
    for a in range(k):
        once, twice = _layer(adj, adj[a])
        # a triangle or a 4-cycle through a: the parent's girth is <= 4
        if once & adj[a] or twice & ~(1 << a):
            return 0
        table &= ~has[a] | none[(once | adj[a]) & ~(1 << a)]
    return table


def _is_critical_fast(adj, n: int) -> bool:
    """The determining-pair test, verdict only: every vertex has a pair,
    checked vertex by vertex until one has none."""
    if not n:
        return False
    masks = [None] * n
    for v in range(n):
        if _witness_for(adj, v, masks) is None:
            return False
    return True


def is_distance_critical(g: Graph) -> bool:
    """Determining-pair verdict without witnesses; same predicate as the
    report methods."""
    return _is_critical_fast(g.adj, g.n)


def _is_edge_maximal_fast(adj, n: int) -> bool:
    """No single added edge keeps the graph critical (assumes it is)."""
    return not any(_is_critical_fast(rows, n)
                   for _, _, rows in _with_each_non_edge(adj))


def is_edge_maximal_critical(g: Graph) -> bool:
    """True when no single edge can be added without losing criticality."""
    if not _is_critical_fast(g.adj, g.n):
        raise ValueError("graph is not distance critical")
    return _is_edge_maximal_fast(g.adj, g.n)
