"""Isomorph-free enumeration of connected graphs, with criticality tallies.

Connected graphs are generated one per isomorphism class by canonical
augmentation (McKay, "Isomorph-free exhaustive generation", J. Algorithms
26, 1998): every graph on k + 1 vertices arises from a parent on k
vertices by attaching a new vertex (numbered k) to a nonempty subset S of
the parent.  A candidate child is kept iff

  (a) S is the numerically least subset in its orbit under the parent's
      automorphism group (McKay's lower-object rule), and
  (b) the new vertex is, in the child, automorphic to the canonically last
      vertex of T, where T holds the deletable vertices of largest key
      K(v) = (degree, sum of neighbour degrees, triangles at v), compared
      as tuples, and deletable means removal keeps the child connected
      (parents must stay connected; McKay's upper-object rule).

Each accepted child therefore certifies a unique (parent, extension) pair,
and induction over k yields every connected class exactly once with no
global isomorphism store.

The deletable vertices of every child come from the parent, without a
search per child: the new vertex is never a cut vertex, and a parent
vertex u is a cut vertex of the child iff S = {u} (for k >= 2), or u is a
cut vertex of the parent and S misses some component of the parent minus
u.

Every per-parent decision over the 2^k - 1 subsets is one big-int set
operation: a 2^k-bit int whose bit S stands for the subset S, built from
the cached HAS, NONE and GE sets of criticality._mask_sets.  Per parent
vertex u one such int holds the S for which u is a cut vertex of the
child, and a candidate's cut mask is read from them.

Why rule (b) may use the key: McKay's rule (b) accepts a child iff the
new vertex lies in one orbit m(G) of the child G chosen so that an
isomorphism G -> H maps m(G) onto m(H).  Deletability and K are
isomorphism invariants (an isomorphism keeps degrees, neighbours and
triangles), so it maps T(G) onto T(H).  The canonical labelings of G and
H differ by an isomorphism, which takes the canonically last vertex of
T(G) to that of T(H), so every isomorphism maps the orbit of the one
onto the orbit of the other.  So that orbit is such an m, and the
generation stays isomorph-free and complete (the labels and the order
differ from those of another choice of m, the classes do not).  The key
narrows T before any labeling, and most candidates are decided by it
alone.

Rule (b) is decided in stages.  First an exact degree filter: the new
vertex, of degree |S|, can only be in T if |S| is at least the child
degree of every deletable parent vertex.  As a set that is the AND over u
of: u is cut, or u is in S and |S| >= d_u + 1, or u is not in S and |S| >=
d_u.  If |S| is strictly above all of them (the same AND with one more),
T is the new vertex alone and rule (b) holds (a lead accept).  Rule (a)'s
orbit minima are ANDed in as one more set, and the candidates are the set
bits left, in ascending order.

Key verdict (_key_ties): a candidate that passes the degree filter but is
no lead accept has a deletable parent vertex of child degree D = |S|, and
T lies among those and the new vertex w.  Their keys come from the
parent, before the child is built.  w's sum of neighbour degrees is the
sum over x in S of d_x + 1, and its triangles are the edges inside S.  A
parent vertex u gains |N(u) & S| in its sum (each of those neighbours
gained w), and, when u is in S, |S| more (w, of degree |S|, is a new
neighbour) and |N(u) & S| triangles (u, w and a common neighbour).  So
each key is the parent's own sum and triangle count, computed once per
parent vertex on first use, plus a few bit counts.  If some u has a
larger key than w, w is not in T: reject.  If none ties w, T = {w}:
accept.  If every u that ties is a twin of w (its parent row is S minus
u), T is w and twins of w, and each twin is swapped with w by a
transposition, an automorphism: accept.  Any other tie goes on with T,
the tied vertices and w, to the refinement below.  A candidate decided
by the key is never built.  In the census to n = 9, 283,839 candidates
reach the key: 102,146 are accepted (23,487 of them twin ties), 145,336
rejected, and 36,357 go on.

The rest of rule (b) is one function, _decide_tie, which takes the
child's rows and degree cells and returns the verdict.  It refines the
child's degree partition with an abort hook that looks at the last cell
holding a vertex of T.  Every leaf of the canonical search refines the
partitions on the way in cell order (refinement and individualization
only split cells in place), so the canonically last vertex of T lies in
that cell: the hook rejects as soon as w is not in it, and accepts as
soon as w is its only vertex of T.  In the census to n = 9 the hook
decides 23,884 of the 36,357.

A candidate that reaches refine starts from its degree cells, built from
the parent's degree classes (_child_degree_cells): a parent vertex moves
up one degree iff it is in S, and the new vertex has degree |S|.

A candidate that reaches a stable partition undecided first gets an orbit
certificate.  Let C be the last cell of the stable partition that holds a
vertex of T; the canonically last vertex of T lies in C.  If every vertex
of T in C is automorphic to the new vertex, so is the canonically last
one, and rule (b) holds: the verdict is the canonical search's, without
the search.  Each such u of C is checked in turn: u may already be joined
to the new vertex w by the automorphisms found so far.  Otherwise
_swap_taking propagates the transposition (w u): wherever the images of
a moved vertex's neighbours are not the neighbours of its image, the
unmoved vertices that break this are paired, one with one, or one with
one in each stable cell, until nothing breaks or the pairing is not
determined.  An involution that comes out is an automorphism (the
docstring of _swap_taking has the proof), a transposition when u is a
twin of w (same neighbours apart from each other).  The certificate
needs some automorphism that takes w to u, however it was found.  When
the propagation gives up, _swap_group's generators (below) join in, and
the canonical search, started from the stable partition, decides rule
(b) exactly only if some vertex of T in C is still not joined to w; so
the swaps only save searches and never change a verdict.  In the census
to n = 9, 12,473 candidates reach a stable partition.  Their 13,461
checks find 1,191 twins and 11,560 larger involutions (6,210 moving two
pairs, 3,392 three and 1,958 four), and the propagation gives up on 710
candidates: _swap_group accepts 373, and 337 are searched.

Parent groups: rule (a) needs the parent's automorphism group.  Every
automorphism fixes each cell of the parent's stable partition, since
refinement is label-invariant, so the group lies in the product of the
cells' symmetric groups.  When every non-singleton cell is a set of
pairwise twins (same neighbours apart from each other), each
transposition within a cell is an automorphism, so the group is that
product, which canon._search reads without backtracking.  Its orbit
minima need no orbit table either: S is the least of its orbit iff it
meets each cell in a prefix of the cell's members (_twin_cell_reps), one
AND per pair of consecutive members.  In the census to n = 9 this
decides rule (a) for 5,440 of the 8,408 parents whose stable partition
is not discrete.  The other 2,968 call _subset_reps, with the whole
group's generators from _swap_group (2,760) or canon._search (208).

A node carries only its adjacency and cut-vertex mask.  Its stable
partition and automorphism generators are computed when it is expanded,
so children at the last level, which are never expanded, cost no more
than their verdict.  A child is yielded as its neighbourhood S and its
cut-vertex mask, and its rows (_attach) are built only where they are
read: to refine it, to expand it, and for a leaf by a caller that reads
them (iter_connected, the lemma universe, and the census for a collected
or edge-maximal critical hit).  A plain census builds no leaf rows.

Table-decided leaves: one generator, _iter_leaves, walks the tree and
gives every node its criticality table once.  Bit S of it says whether
the child with neighbourhood S is critical, decided for all S at once:
it is set iff S lies in none of the node's pairless sets
(criticality._pairless_sets), which tell for every S the vertices of the
child with no determining pair.  So a graph is critical iff bit S of its
parent's table is set, S being the new vertex's row, and no graph is
tested on its own.  Most tables at level n - 1 are empty, and the nodes
at level n - 2 know which before any of them is built: each one's alive
set (criticality._alive_set), read from its own pairless sets, has bit S
set iff the child with neighbourhood S may have a critical child.  A
child whose bit is clear has a pairless vertex that no later vertex can
give a pair, so its table is 0, and it is neither built nor, unless its
parent keeps it, opened.  In the census to n = 9, 373 of the 11,117
level-8 nodes are alive and build a table, 307 of them nonempty; at
n = 10, 5,967 of the 261,080 level-9 nodes, 4,261 of them nonempty.
The census, iter_connected, iter_all_graphs and the lemma universe in
verify all read their graphs from this generator; edge-maximality is
then tested on the critical leaves.  Every walk builds its tables, and the
default keep (see below) admits every child, so the full census,
iter_connected and iter_all_graphs open every node.  The walk starts at
the root, the one-vertex graph K1, which is not critical: it has no
parent table.

One walk for every order: _iter_leaves yields the graphs of every order
1..n from one walk of the tree, as canonical augmentation visits every
class once in one tree.  Each node the walk opens gives one record: its
rows, its table and the children to yield.  Below level n - 1 those are
its kept children, of the next order, in ascending S, given before its
subtree is walked; it still expands all of them, or at level n - 2
those kept or alive.  At level n - 1 they are its children under its
keep table, pruned before they are built.
Each order's graphs therefore come in generation order, and equal those
of the walk for that order alone.  The lemma universe and
iter_all_graphs read every order; the census and iter_connected keep
order n, the graphs whose parent has n - 1 vertices.  Each item carries
the frontier node f it descends from (see below), or -1 if its order is
at most the frontier's; every part of a divided run yields those, and
each other item comes from the part that walks its f.

Critical-first leaves: a walk that only needs some leaves passes a keep
table, computed from the parent and its criticality table, to the
parent's child test.  The critical-only census keeps exactly the
criticality table, the lemma universe that table or the girth > 4 one.
A parent with an empty keep table is skipped before its cut sets,
refinement and automorphism search; otherwise the table is ANDed into
the candidates before rules (a) and (b).  A node at level n - 2 passes
its keep table ORed with its alive set, so its dead children, which it
neither yields nor opens, are never decided.  Both rules are decided for
each candidate on its own (_decide_tie's union-find and abort hook start
afresh per candidate, and the parent's key values are the same whichever
candidate asks for them first), so dropping candidates changes no other
verdict: the stream is the full stream filtered by the table, in the
same order, and the frontier, and with it the shard and job split, is
unchanged.  At n = 10 only 4,261 of the 261,080 level-9 nodes have a
critical child, and only the 5,967 alive ones are built.

Work splitting: the nodes at augmentation level max(1, n - 2) form a
frontier, numbered f = 0, 1, ... in generation order (for n <= 3 that is
K1 alone, node 0; for n = 1 K1 is also the one leaf, which part 0 alone
yields).  _iter_leaves(n, parts, part) walks the frontier nodes with
f mod parts = part.  Job j of J within shard s of S is part s + S * j of
S * J, which walks f mod S = s and (f div S) mod J = j.  The union over
any partition layout reproduces the unsharded run, so J is capped at the
CPU count, one worker process per job.  A job yields its leaves in
ascending f, and the jobs walk disjoint sets of f, so the collected
hits, which keep their f, merge on it back into the single-job order.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from typing import Callable, Iterator, NamedTuple

from .canon import (_find, _individualize, _search, _twin_pairs, _union,
                    degree_cells, refine)
from .criticality import (_alive_set, _is_edge_maximal_fast, _mask_sets,
                          _pairless_sets, _table_of)
# _articulation_mask and _is_critical_fast are no longer called here (the cut
# sets and the criticality tables replace them) but stay module attributes:
# bench/layers.py traces them by name.
from .criticality import _is_critical_fast  # noqa: F401
from .graph import _articulation_mask  # noqa: F401
from .graph import Graph, _reach_mask, bits, disjoint_union

MAX_ENUM_N = 11


@functools.lru_cache(maxsize=1 << 16)
def _subset_reps(k: int, gens: tuple[tuple[int, ...], ...]) -> int:
    """Bit S (1 <= S < 2^k) is set iff the mask S is the least member of
    its orbit under the group generated by gens.

    Each generator's image of every mask is built from the image of the
    mask without its top bit.  Orbit minima follow by least[S] =
    min(least[S], least[image of S]) over the generators and pointer
    jumping (least[S] = least[least[S]]), repeated until stable.  Parents
    share generator sets (1,025 distinct ones for the 2,968 calls at n = 9;
    twin-cell parents read theirs from _twin_cell_reps instead), so
    results are cached by (k, gens), which must be a tuple."""
    images = []
    for g in gens:
        img = [0]
        for b in range(k):
            t = 1 << g[b]
            img += [x | t for x in img]
        images.append(img)
    least = list(range(1 << k))
    while True:
        prev = least
        for img in images:
            least = [a if a < b else b
                     for a, b in zip(least, map(least.__getitem__, img))]
        least = list(map(least.__getitem__, least))
        if least == prev:
            break
    bitstr = "".join(["1" if m == s else "0" for s, m in enumerate(least)])
    return int(bitstr[::-1], 2) & ~1


def _components_without(adj: tuple[int, ...], k: int, u: int) -> list[int]:
    """Vertex masks of the components of the parent minus u."""
    rest = ((1 << k) - 1) & ~(1 << u)
    comps = []
    while rest:
        comp = _reach_mask(adj, rest & -rest, rest)
        comps.append(comp)
        rest &= ~comp
    return comps


def _cut_sets(adj: tuple[int, ...], k: int, cut_mask: int) -> list[int]:
    """For each vertex u of a connected parent on k vertices, the
    neighbourhoods S of a new vertex for which u is a cut vertex of the
    child, as a 2^k-bit int with bit S standing for S.

    The new vertex is never a cut vertex (deleting it leaves the parent).
    A parent vertex u is one iff S = {u} (for k >= 2: the new vertex is
    left isolated), or u is a cut vertex of the parent and S misses some
    component of the parent minus u (Hopcroft and Tarjan, CACM 1973,
    applied to one added vertex).
    """
    none = _mask_sets(k)[1]
    cuts = [1 << (1 << u) if k >= 2 else 0 for u in range(k)]
    for u in bits(cut_mask):
        for comp in _components_without(adj, k, u):
            cuts[u] |= none[comp]
        cuts[u] &= ~1
    return cuts


def _degree_sets(adj: tuple[int, ...], k: int,
                 cuts: list[int]) -> tuple[int, int]:
    """The degree filter of rule (b) for all S at once: (ok, lead) as
    2^k-bit ints.

    The new vertex, of degree |S|, can come last only if |S| is at least
    the child degree of every deletable parent vertex u: its parent
    degree d_u, plus one when u is in S.  ok holds the S that pass, lead
    those where |S| is strictly above all of them.  Per u that is: u is a
    cut vertex of the child, or u is in S and |S| >= d_u + 1 (+ 1 for
    lead), or u is not in S and |S| >= d_u (+ 1 for lead)."""
    has, none, _, ge = _mask_sets(k)
    ok = lead = (1 << (1 << k)) - 2
    for u, cut in enumerate(cuts):
        d = adj[u].bit_count()
        inside, outside = has[u], none[1 << u]
        ok &= cut | inside & ge[d + 1] | outside & ge[d]
        lead &= cut | inside & ge[d + 2] | outside & ge[d + 1]
    return ok, lead


def _degree_sum(classes: dict[int, int], m: int) -> int:
    """The sum of the degrees of the vertices in the mask m, classes
    mapping each degree to its vertex mask."""
    total = 0
    for d, c in classes.items():
        total += d * (c & m).bit_count()
    return total


def _edges_within(adj: tuple[int, ...], m: int) -> int:
    """The number of edges of adj with both ends in the vertex mask m:
    for m = N(v), the triangles at v."""
    twice = 0
    t = m
    while t:
        low = t & -t
        t ^= low
        twice += (adj[low.bit_length() - 1] & m).bit_count()
    return twice >> 1


def _key_ties(adj: tuple[int, ...], classes: dict[int, int], sums: list,
              tris: list, s: int, cut: int) -> "int | None":
    """Rule (b) by the vertex key K(v) = (degree, sum of neighbour
    degrees, triangles at v) for the child with neighbourhood s (see the
    module docstring), read from the parent before the child is built.

    None means some deletable parent vertex has a larger key than the new
    vertex w (reject); 0 means w's key is the largest, alone or tied with
    twins of w only (accept); otherwise the mask of the deletable parent
    vertices whose key ties w's, for the refinement to decide.

    classes maps each parent degree to its vertex mask; cut is the
    child's cut-vertex mask.  s must pass the degree filter and not be a
    lead accept, so w's degree cell holds a deletable parent vertex.  sums
    and tris are the parent's sums of neighbour degrees and triangle
    counts, filled in here on first use (None until then)."""
    d = s.bit_count()
    m = (classes.get(d, 0) & ~s | classes.get(d - 1, 0) & s) & ~cut
    sum_w = d + _degree_sum(classes, s)
    tri_w = -1
    ties = 0
    twins_only = True
    while m:
        bit = m & -m
        m ^= bit
        u = bit.bit_length() - 1
        row = adj[u]
        common = (row & s).bit_count()
        su = sums[u]
        if su is None:
            su = sums[u] = _degree_sum(classes, row)
        su += common + d if bit & s else common
        if su != sum_w:
            if su > sum_w:
                return None
            continue
        if tri_w < 0:
            tri_w = _edges_within(adj, s)
        tu = tris[u]
        if tu is None:
            tu = tris[u] = _edges_within(adj, row)
        if bit & s:
            tu += common
        if tu != tri_w:
            if tu > tri_w:
                return None
            continue
        ties |= bit
        if row != s & ~bit:
            twins_only = False
    return 0 if twins_only else ties


def _swap_taking(adj: tuple[int, ...], w: int, u: int,
                 stable: list[int]) -> "list[int] | None":
    """An automorphism of adj that swaps w and u, an involution found by
    propagating the transposition (w u), or None when the propagation
    gives up.

    For each moved vertex x, the images of x's neighbours must be the
    neighbours of x's image y.  Where they are not, let a be the images
    that are no neighbours of y and b the neighbours of y that no
    neighbour of x maps to.  Both must hold unmoved vertices only, as many
    of each: one of each is paired, and more are paired cell by cell of
    the stable partition (every automorphism fixes its cells), exactly one
    of a and one of b per cell.  Anything else gives up.  The pairs found
    are moved and checked in turn; only unmoved vertices are paired, so
    each vertex is moved once at most and the loop makes at most n checks.
    stable must be equitable, with w and u in one cell.  Then every pair
    lies in one cell (by induction: y shares x's cell, so N(y) and the
    images of N(x) meet each cell as often, and so do a and b), and a
    vertex alone in its cell is never moved.

    A permutation that comes out is an automorphism, with no edge check:
    a moved vertex keeps its image, and once x is checked (and its pairs
    made) x's neighbours map onto y's.  Take an edge xz with x moved.  If
    z is unmoved at the end, or moved by the time x's check ends, that
    check saw both final images; if z was moved later, z's own check
    did.  So every edge maps to an edge, and a bijection of a finite
    graph that does is an automorphism."""
    perm = list(range(len(adj)))
    perm[w], perm[u] = u, w
    moved = 1 << w | 1 << u
    todo = [w, u]
    while todo:
        x = todo.pop()
        row = adj[x]
        image = row & ~moved
        m = row & moved
        while m:
            low = m & -m
            m ^= low
            image |= 1 << perm[low.bit_length() - 1]
        target = adj[perm[x]]
        if image == target:
            continue
        a, b = image & ~target, target & ~image
        if (a | b) & moved or a.bit_count() != b.bit_count():
            return None
        pairs = [(a, b)]
        if a & (a - 1):
            pairs = [(a & cell, b & cell) for cell in stable
                     if (a | b) & cell]
            if any(pa & (pa - 1) or pb & (pb - 1) or not pa or not pb
                   for pa, pb in pairs):
                return None
        for pa, pb in pairs:
            i, j = pa.bit_length() - 1, pb.bit_length() - 1
            perm[i], perm[j] = j, i
            todo += (i, j)
        moved |= a | b
    return perm


def _swap_group(adj: tuple[int, ...], n: int,
                cells: list[int]) -> "list[tuple[int, ...]] | None":
    """Generators of Aut(adj) from swaps along the first path of the
    canonical search tree, or None when a swap gives up.  cells is an
    equitable partition that every automorphism keeps, such as the stable
    one.  At each node the least vertex v of the first non-singleton cell
    C is swapped (_swap_taking) with each u of C not yet joined to it by
    that node's swaps, then individualized (canon._individualize).

    That is all of Aut.  Let v_i and C_i be node i's v and C, and G_i the
    automorphisms that fix v_1..v_(i-1).  They keep node i's partition,
    so |G_i| <= |C_i| |G_(i+1)|, and the discrete leaf gives |Aut| <=
    prod |C_i|.  The swaps at nodes i and on keep the cells of their
    nodes, so fix v_1..v_(i-1), and generate H_i <= G_i.  H_i moves v_i
    over C_i and H_(i+1) fixes v_i, so |H_i| >= |C_i| |H_(i+1)|, and
    |H_1| >= prod |C_i| >= |Aut|."""
    gens = []
    while True:
        t = next((i for i, c in enumerate(cells) if c & (c - 1)), -1)
        if t < 0:
            return gens
        low = cells[t] & -cells[t]
        v = low.bit_length() - 1
        orbit = list(range(n))
        for u in bits(cells[t] ^ low):
            if _find(orbit, u) == v:
                continue
            perm = _swap_taking(adj, v, u, cells)
            if perm is None:
                return None
            gens.append(tuple(perm))
            for x, px in enumerate(perm):  # an involution: each pair once
                if x < px:
                    _union(orbit, x, px)
        cells = _individualize(adj, cells, t, low)


def _twin_cell_reps(k: int, pairs: list[tuple[int, int]]) -> int:
    """_subset_reps for a parent on k vertices whose stable cells are all
    twins, from its canon._twin_pairs.

    The group is the product of the cells' symmetric groups, so the orbit
    of S holds every set that meets each cell in as many vertices, and its
    least member meets each cell in a prefix (the cell's lowest members).
    S is that member iff no consecutive pair a < b of a cell has b in S
    and a not: the AND over the pairs of ~(HAS[b] & ~HAS[a])."""
    has = _mask_sets(k)[0]
    reps = (1 << (1 << k)) - 2
    for a, b in pairs:
        reps &= ~(has[b] & ~has[a])
    return reps


def _child_degree_cells(span: list[tuple[int, int, int]], s: int,
                        newbit: int) -> list[int]:
    """degree_cells of the child with neighbourhood s, from its parent.

    A parent vertex moves up one degree iff it is in s, and the new vertex
    newbit has degree |s|.  span lists (d, C_d, C_{d-1}) over the degrees
    d of the parent's classes and one above each, ascending, C_d being the
    parent's class of degree d (0 if none): the child's cell of degree d
    is C_d & ~s | C_{d-1} & s, plus the new vertex when d = |s|."""
    d = s.bit_count()
    cells = []
    for deg, same, below in span:
        c = same & ~s | below & s
        if newbit and deg >= d:
            if deg == d:
                c |= newbit
            else:
                cells.append(newbit)
            newbit = 0
        if c:
            cells.append(c)
    if newbit:
        cells.append(newbit)
    return cells


# A node of the augmentation tree: adjacency rows and cut-vertex mask.
_State = tuple[tuple[int, ...], int]

_ROOT: _State = ((0,), 0)


def _attach(adj: tuple[int, ...], s: int) -> tuple[int, ...]:
    """The rows of the child of adj whose new vertex, numbered len(adj),
    has neighbourhood s."""
    child = list(adj)
    newbit = 1 << len(adj)
    m = s
    while m:
        bit = m & -m
        child[bit.bit_length() - 1] |= newbit
        m ^= bit
    child.append(s)
    return tuple(child)


def _decide_tie(adj: tuple[int, ...], k: int, top: int,
                cells: list[int]) -> bool:
    """Rule (b) for the child adj whose new vertex k ties in key with
    another vertex of top (T: the tied parent vertices and k), from the
    child's degree cells (see the module docstring).

    refine's abort hook looks at the last cell holding a vertex of T: it
    rejects if the new vertex is not in it and accepts if the new vertex
    is its only vertex of T.  The hook saw every partition on the way, so
    if refine stabilizes, the last stable cell that meets T holds the new
    vertex and another vertex of T.  The canonically last vertex of T is
    in that cell, so rule (b) holds if all its vertices of T are
    automorphic to the new one (the orbit certificate), found by swaps or
    else by _swap_group's generators.  Only a vertex left unjoined needs
    the canonical labeling, which then decides."""
    newbit = 1 << k
    accepted = False

    def decided(cs: list[int]) -> bool:
        nonlocal accepted
        for cell in reversed(cs):
            if cell & top:
                if cell & newbit and cell & top != newbit:
                    return False
                accepted = bool(cell & newbit)
                return True
        return False

    stable = refine(adj, cells, decided)
    if stable is None:
        return accepted
    orbit = list(range(k + 1))
    for u in bits(next(c for c in reversed(stable) if c & top)
                  & top & ~newbit):
        if _find(orbit, u) == _find(orbit, k):
            continue
        perm = _swap_taking(adj, k, u, stable)
        gens = [perm] if perm else _swap_group(adj, k + 1, stable) or ()
        for g in gens:
            for v, pv in enumerate(g):  # an involution: each pair once
                if v < pv:
                    _union(orbit, v, pv)
        if _find(orbit, u) != _find(orbit, k):
            _, lab, orep, _ = _search(adj, k + 1, stable)
            wstar = next(v for v in reversed(lab) if top >> v & 1)
            return orep[wstar] == orep[k]
    return True


def _child_states(
    state: _State,
    k: int,
    keep: int = -1,
) -> Iterator[tuple[int, int]]:
    """The accepted children of a node on k vertices, in generation order,
    each as (S, cut mask): its new vertex's neighbourhood and its
    cut-vertex mask.  Its rows are _attach(adj, S), built here only for
    the candidates that are refined.

    Rule (b) is decided by the first stage that can (see the module
    docstring): the degree filter and its lead set, then the vertex key
    (_key_ties), which needs no child rows, then, for a tie with a vertex
    that is no twin of the new one, _decide_tie: the refinement hook, the
    orbit certificate and the canonical search, each looking only at the
    tied vertices and the new one (T).  A child is yielded as soon as rule
    (b) is decided for it.  keep is an int whose bit S is set iff the
    child with neighbourhood S may be yielded (as in a criticality table,
    criticality._table_of); the other candidates are dropped before rules
    (a) and (b), and a parent with no candidate left is neither refined
    nor searched."""
    if keep == 0:
        return
    adj, cut_mask = state
    cuts = _cut_sets(adj, k, cut_mask)
    ok, lead = _degree_sets(adj, k, cuts)
    ok &= keep
    if not ok:
        return

    dcells = degree_cells(adj, k)
    cells = refine(adj, dcells)
    # Subset-orbit pruning is exact after the degree filter because
    # automorphisms preserve popcount, degrees and cut vertices.
    pairs = _twin_pairs(adj, cells)
    if pairs is None:
        gens = _swap_group(adj, k, cells)
        if gens is None:
            gens = _search(adj, k, cells)[3]
        if gens:
            ok &= _subset_reps(k, tuple(gens))
    elif pairs:
        ok &= _twin_cell_reps(k, pairs)
    if ok & ~lead:
        classes = {adj[(c & -c).bit_length() - 1].bit_count(): c
                   for c in dcells}
        span = [(d, classes.get(d, 0), classes.get(d - 1, 0))
                for d in sorted({*classes, *(d + 1 for d in classes)})]
        sums: list = [None] * k
        tris: list = [None] * k

    # the parent cut vertices, with the S for which they stay cut; every
    # other parent vertex is cut only for the singleton S = {u}
    parent_cuts = [(1 << u, cuts[u]) for u in bits(cut_mask)]
    singles = k >= 2
    newbit = 1 << k
    while ok:
        low = ok & -ok
        ok ^= low
        s = low.bit_length() - 1
        ccut_s = s if singles and not s & (s - 1) else 0
        for b, cut in parent_cuts:
            if cut & low:
                ccut_s |= b
        if not lead & low:
            ties = _key_ties(adj, classes, sums, tris, s, ccut_s)
            if ties is None or ties and not _decide_tie(
                    _attach(adj, s), k, ties | newbit,
                    _child_degree_cells(span, s, newbit)):
                continue
        yield s, ccut_s


def _iter_leaves(
    n: int,
    parts: int = 1,
    part: int = 0,
    keep: Callable[[tuple[int, ...], int, int], int] = (
        lambda adj, k, table: -1),
) -> Iterator[tuple[int, tuple[int, ...], int, int]]:
    """Yield (f, parent, s, critical) for every accepted node on 1..n
    vertices, in one walk of the tree: the node is _attach(parent, s), of
    order len(parent) + 1, and its rows are built only by a caller that
    reads them.  The root K1 is given as the empty parent with s = 0.
    Within each order the items are those of the walk for that order
    alone, in the same order; the orders interleave, as each node yields
    its children before its subtree is walked.

    keep(parent, k, table) is the keep table of each node on k vertices
    (see _child_states); the default keeps every child.  Each node gets its
    criticality table once, and critical is bit s of its parent's, so it
    is the node's verdict (0 for K1).  A node below level n - 2 yields its
    kept children and still expands all of them.  A node at level n - 2
    also computes its alive set (criticality._alive_set), decides rules
    (a) and (b) only for the children that are kept or alive, yields the
    kept ones and opens only those.  A node at level n - 1 builds its
    table iff its bit of its parent's alive set is set (otherwise the
    table is 0), and its keep table prunes its children before they are
    built.

    So a level n - 1 node's keep may be nonzero only if the node is alive
    or kept by its parent: any other node is not opened, and its kept
    children would be lost.  Every caller's keep obeys this.  A
    criticality table is nonzero only on alive nodes; the default keeps
    every child; the lemma universe's girth > 4 table is nonzero only on
    a graph of girth > 4 or a tree, which its parent's girth table, and
    so its parent's keep, admits.

    The frontier is the nodes at level max(1, n - 2), numbered f = 0, 1,
    ... in generation order.  The walk opens only those with f mod parts
    == part, and f is the frontier node an item descends from.  The items
    of orders up to the frontier's come from every part and carry -1; for
    n = 1, K1 is frontier node 0 and the one item, which part 0 alone
    yields, with f = 0."""
    if n == 1:
        if part == 0:
            yield 0, (), 0, 0
        return
    yield -1, (), 0, 0
    frontier = max(1, n - 2)
    numbers = itertools.count()

    def nodes(state: _State, k: int, alive: int, f: int) -> Iterator[tuple]:
        # one record (f, rows, table, children to yield) per node opened;
        # alive is 0 only for a node at level n - 1 whose bit of its
        # parent's alive set is clear, and such a node builds no table
        if k == frontier:
            f = next(numbers)
            if f % parts != part:
                return
        adj = state[0]
        table = 0
        if alive:
            sets = _pairless_sets(adj, k)
            table = _table_of(*sets)
        kept = keep(adj, k, table)
        if k == n - 1:
            yield f, adj, table, _child_states(state, k, kept)
            return
        # every node below level n - 1 is alive, so sets is bound
        live = _alive_set(adj, k, *sets) if k == n - 2 else -1
        children = list(_child_states(state, k, kept | live))
        yield f, adj, table, [c for c in children if kept >> c[0] & 1]
        for s, cut in children:
            yield from nodes((_attach(adj, s), cut), k + 1, live >> s & 1, f)

    for f, adj, table, children in nodes(_ROOT, 1, 1, -1):
        for s, _ in children:
            yield f, adj, s, table >> s & 1


def _check_args(n: int, shards: int, shard: int, jobs: int = 1) -> None:
    if not 1 <= n <= MAX_ENUM_N:
        raise ValueError(f"n must be in 1..{MAX_ENUM_N}")
    if shards < 1 or not 0 <= shard < shards:
        raise ValueError("need shards >= 1 and 0 <= shard < shards")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")


def iter_connected(n: int) -> Iterator[Graph]:
    """All connected graphs on n vertices, one per isomorphism class."""
    _check_args(n, 1, 0)
    for _, adj, s, _ in _iter_leaves(n):
        if len(adj) == n - 1:
            yield Graph(n, _attach(adj, s), check=False)


class EnumerationTally(NamedTuple):
    """Census of one enumeration run (possibly one shard of one).

    partition is (shard index, shard total); elapsed is wall time in
    seconds and is deliberately excluded from to_json_dict so identical
    runs serialize identically.  connected_count is None for a
    critical-only run, which does not visit every connected class, and is
    then left out of to_json_dict.
    """

    n: int
    connected_count: "int | None"
    critical_count: int
    maximal_count: "int | None"
    partition: tuple[int, int]
    elapsed: float

    def to_json_dict(self) -> dict:
        d: dict = {"n": self.n}
        if self.connected_count is not None:
            d["connected_count"] = self.connected_count
        d["critical_count"] = self.critical_count
        if self.maximal_count is not None:
            d["maximal_count"] = self.maximal_count
        d["partition"] = list(self.partition)
        return d


def _tally_shard(
    n: int,
    parts: int,
    part: int,
    edge_maximal: bool,
    collect: bool,
    critical_only: bool,
) -> tuple[int, int, int, list[tuple[int, tuple[int, ...]]]]:
    """The census of the frontier nodes f with f mod parts == part; each
    collected hit comes as (f, adjacency), f the frontier node that
    _iter_leaves tags it with."""
    connected = critical = maximal = 0
    hits: list[tuple[int, tuple[int, ...]]] = []
    # the full census takes the default keep, which keeps every child
    leaves = (_iter_leaves(n, parts, part, lambda adj, k, table: table)
              if critical_only else _iter_leaves(n, parts, part))
    for f, adj, s, is_critical in leaves:
        if len(adj) != n - 1:
            continue
        connected += 1
        if not is_critical:
            continue
        critical += 1
        if not (edge_maximal or collect):
            continue
        child = _attach(adj, s)
        if edge_maximal:
            if not _is_edge_maximal_fast(child, n):
                continue
            maximal += 1
        if collect:
            hits.append((f, child))
    return connected, critical, maximal, hits


def _pool_worker(args) -> tuple[int, int, int,
                                list[tuple[int, tuple[int, ...]]]]:
    return _tally_shard(*args)


def run_enumeration(
    n: int,
    *,
    shards: int = 1,
    shard: int = 0,
    jobs: int = 1,
    edge_maximal: bool = False,
    collect: bool = False,
    critical_only: bool = False,
) -> tuple[EnumerationTally, "list[Graph] | None"]:
    """Count (and optionally collect) distance-critical graphs on n
    vertices; with edge_maximal also count/collect the edge-maximal ones.

    The collected list holds the critical graphs, or just the edge-maximal
    ones when edge_maximal is set, in the same order for any jobs.  The
    run is split into min(jobs, os.cpu_count()) parts, one per worker
    process, so a large jobs costs no more than the CPUs can use.
    critical_only walks only the critical leaves (see the module
    docstring): the same counts and graphs in the same order, but no
    connected_count.
    """
    _check_args(n, shards, shard, jobs)
    t0 = time.perf_counter()
    # job j of shard s is part s + shards * j of shards * jobs; for any
    # number of jobs, those of shard s cover f mod shards = s
    jobs = min(jobs, os.cpu_count() or 1)
    argv = [(n, shards * jobs, shard + shards * j, edge_maximal, collect,
             critical_only) for j in range(jobs)]
    if jobs == 1:
        results = [_tally_shard(*argv[0])]
    else:
        # imported here: it is the costliest import left, and only a pool
        # needs it
        from multiprocessing import get_context
        ctx = get_context("fork")
        with ctx.Pool(jobs) as pool:
            results = pool.map(_pool_worker, argv)
    connected = None if critical_only else sum(r[0] for r in results)
    critical = sum(r[1] for r in results)
    maximal = sum(r[2] for r in results) if edge_maximal else None
    hits: "list[Graph] | None" = None
    if collect:
        # each job's tags ascend and no two jobs share one, so a stable
        # sort on the tags merges the jobs back into the one-job order
        tagged = sorted((hit for r in results for hit in r[3]),
                        key=lambda hit: hit[0])
        hits = [Graph(n, adj, check=False) for _, adj in tagged]
    tally = EnumerationTally(
        n=n,
        connected_count=connected,
        critical_count=critical,
        maximal_count=maximal,
        partition=(shard, shards),
        elapsed=time.perf_counter() - t0,
    )
    return tally, hits


def _iter_unions(catalogs: dict[int, list[Graph]], n: int) -> Iterator[Graph]:
    """All multiset disjoint unions of catalog members totalling n vertices.

    Components are drawn with sizes nonincreasing and, within one size,
    catalog indices nondecreasing, so every multiset appears exactly once.
    Catalog members must be pairwise non-isomorphic per size.  Each
    union is folded from its components by graph.disjoint_union, which
    refuses one above the vertex limit.
    """

    def rec(remaining: int, size_cap: int, idx_min: int,
            acc: list[Graph]) -> Iterator[Graph]:
        if remaining == 0:
            yield functools.reduce(disjoint_union, acc)
            return
        for size in range(min(size_cap, remaining), 0, -1):
            cat = catalogs.get(size, [])
            start = idx_min if size == size_cap else 0
            for i in range(start, len(cat)):
                acc.append(cat[i])
                yield from rec(remaining - size, size, i, acc)
                acc.pop()

    yield from rec(n, n, 0, [])


def iter_all_graphs(n: int) -> Iterator[Graph]:
    """Every graph on n vertices up to isomorphism, connected or not."""
    _check_args(n, 1, 0)
    catalogs: dict[int, list[Graph]] = {k: [] for k in range(1, n + 1)}
    for _, adj, s, _ in _iter_leaves(n):
        k = len(adj) + 1
        catalogs[k].append(Graph(k, _attach(adj, s), check=False))
    return _iter_unions(catalogs, n)
