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
vertex u one such int, cuts[u], holds the S for which u is a cut vertex
of the child (_cut_sets).  No candidate gets a cut mask of its own: the
key tests bit S of cuts[u] for the few u it compares, and a child the
walk opens gets its mask, the u with bit S of cuts[u] set, only then
(_child_cut_mask).  A node computes its cut sets only if it has a child
to decide.

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
each key is the parent's own sum and triangle count plus a few bit
counts.  The sums over S and over each parent row are read from two
tables of degree sums per parent (_sum_tables), one over the subsets of
the low k // 2 vertices and one over the rest (16 + 16 entries at k =
8), built by doubling when the first candidate reaches the key; a
triangle count is computed on its first use.  If some u has a
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
the search.  canon._join joins each such u of C to the new vertex w in
turn, skipping a u already joined by the swaps made so far, by an
involution propagated from the transposition (w u) (canon._swap_taking,
whose docstring has the proof), a transposition when u is a twin of w.
Where a propagation gives up, canon._search decides rule (b) exactly:
its labeling gives the canonically last vertex of T, and the orbits of
its generators (canon._orbit_reps) tell whether the new vertex lies in
that vertex's orbit.  So the swaps only save searches and never change a
verdict.  In the census to n = 9, 12,473 candidates reach a stable
partition.  Their 13,461 checks find 1,191 twins and 11,560 larger
involutions (6,210 moving two pairs, 3,392 three and 1,958 four), and
the propagation gives up on 710 candidates: the search reads 373 off its
certified first path (see canon._search) and backtracks on 337.

Parent groups: rule (a) needs the parent's automorphism group.  When
every non-singleton cell of the parent's stable partition is a set of
pairwise twins (same neighbours apart from each other), the group is the
product of the cells' symmetric groups, and S is the least of its orbit
iff it meets each cell in a prefix of the cell's members
(_twin_cell_reps), one AND per pair of consecutive members.  In the
census to n = 9 this decides rule (a) for 5,440 of the 8,408 parents
whose stable partition is not discrete.  The other 2,968 call
_subset_reps with canon._search's generators, read off the certified
first path for 2,760 of them and found by backtracking for 208; rule (a)
reads no labeling.  Neither rule reads a canonical form: only the
backtracking builds forms, to compare its leaves (2,282 in the census to
n = 9, over the 208 parents and 337 children it searches).

A node carries only its adjacency and cut-vertex mask.  Its stable
partition and automorphism generators are computed when it is expanded,
so children at the last level, which are never expanded, cost no more
than their verdict.  A child is yielded as its neighbourhood S alone;
its cut-vertex mask is derived only if it is opened, and its rows
(_attach) are built only where they are read: to refine it, to expand
it, and for a leaf by a caller that reads them (iter_connected, the
lemma universe, and the census for a collected or edge-maximal critical
hit).  A plain census builds no leaf rows.

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
class once in one tree.  Each node the walk opens yields one record: its
frontier node, its rows, its table and the S of the children to yield,
and no item per child.  Below level n - 1 those are its kept children,
of the next order, in ascending S, given before its subtree is walked;
it still expands all of them, or at level n - 2 those kept or alive.  At
level n - 1 they are its children under its keep table, pruned before
they are built.  Each order's graphs therefore come in generation order,
and equal those of the walk for that order alone.  The lemma universe
and iter_all_graphs read every order; the census and iter_connected keep
order n, the records whose parent has n - 1 vertices, and the census
counts a record's leaves with one len and reads its table's bits only
when the table is nonzero.  Each record carries the frontier node f it
descends from (see below), or -1 if its children's order is at most the
frontier's; every part of a divided run yields those, and each other
record comes from the part that walks its f.

Critical-first leaves: a walk that only needs some leaves passes a keep
table, computed from the parent and its criticality table, to the
parent's child test.  The critical-only census keeps exactly the
criticality table, the lemma universe that table or the girth > 4 one.
A parent with an empty keep table is skipped before its cut sets,
refinement and automorphism search; otherwise the table is ANDed into
the candidates before rules (a) and (b).  A node at level n - 2 passes
its keep table ORed with its alive set, so its dead children, which it
neither yields nor opens, are never decided.  Both rules are decided for
each candidate on its own (_decide_tie's swaps and abort hook start
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

from .canon import (_join, _orbit_reps, _search, _twin_pairs, degree_cells,
                    refine)
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


def _child_cut_mask(cuts: list[int], s: int) -> int:
    """The cut-vertex mask of the child with neighbourhood s, from its
    parent's _cut_sets: the u with bit s of cuts[u] set."""
    mask = 0
    for u, cut in enumerate(cuts):
        if cut >> s & 1:
            mask |= 1 << u
    return mask


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


def _sum_tables(adj: tuple[int, ...],
                k: int) -> tuple[int, list[int], list[int], list[int]]:
    """(h, lo, hi, sums): the sum of the parent degrees d_x over x in a
    vertex mask S is lo[S & (1 << h) - 1] + hi[S >> h], lo holding the
    sums over the subsets of the low h = k // 2 vertices and hi those over
    the rest.  Each table is built by doubling: a vertex of degree d adds
    to the table a copy of it with d added to every entry.  sums[u] is
    that sum over row u, vertex u's sum of neighbour degrees."""
    h = k >> 1
    lo, hi = [0], [0]
    for u, row in enumerate(adj):
        d = row.bit_count()
        half = lo if u < h else hi
        half += [x + d for x in half]
    low = (1 << h) - 1
    return h, lo, hi, [lo[row & low] + hi[row >> h] for row in adj]


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


def _key_ties(adj: tuple[int, ...], classes: list[int], cuts: list[int],
              tables: tuple[int, list[int], list[int], list[int]],
              tris: list, s: int) -> "int | None":
    """Rule (b) by the vertex key K(v) = (degree, sum of neighbour
    degrees, triangles at v) for the child with neighbourhood s (see the
    module docstring), read from the parent before the child is built.

    None means some deletable parent vertex has a larger key than the new
    vertex w (reject); 0 means w's key is the largest, alone or tied with
    twins of w only (accept); otherwise the mask of the deletable parent
    vertices whose key ties w's, for the refinement to decide.

    classes[d] is the mask of the parent vertices of degree d, for d =
    0..k; cuts are the parent's _cut_sets, and a parent vertex u of w's
    child degree is skipped as a cut vertex of the child iff bit s of
    cuts[u] is set.  s must pass the degree filter and not be a lead
    accept, so w's degree cell holds a deletable parent vertex.  tables
    are the parent's _sum_tables; tris are its triangle counts, filled in
    here on first use (None until then)."""
    d = s.bit_count()
    m = classes[d] & ~s | classes[d - 1] & s
    h, lo, hi, sums = tables
    sum_w = d + lo[s & (1 << h) - 1] + hi[s >> h]
    tri_w = -1
    ties = 0
    twins_only = True
    while m:
        bit = m & -m
        m ^= bit
        u = bit.bit_length() - 1
        if cuts[u] >> s & 1:
            continue
        row = adj[u]
        common = (row & s).bit_count()
        su = sums[u] + (common + d if bit & s else common)
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


# The root of the augmentation tree, K1, as (adjacency rows, cut-vertex
# mask): what the walk carries for a node.
_ROOT = ((0,), 0)


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
    in that cell, so rule (b) holds if all its vertices of T are joined
    to the new one by swaps (the orbit certificate, canon._join); where a
    swap gives up, the canonical search decides."""
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
    last = next(c for c in reversed(stable) if c & top)
    if _join(adj, k, last & top & ~newbit, stable, []):
        return True
    lab, gens = _search(adj, stable)
    wstar = next(v for v in reversed(lab) if top >> v & 1)
    orep = _orbit_reps(k + 1, gens)
    return orep[wstar] == orep[k]


def _child_states(
    adj: tuple[int, ...],
    k: int,
    cuts: "list[int] | None",
    keep: int = -1,
) -> Iterator[int]:
    """The accepted children of a node on k vertices, in generation order,
    each as S, its new vertex's neighbourhood.  Its rows are
    _attach(adj, S), built here only for the candidates that are refined.

    cuts are the node's _cut_sets, read only when keep is nonzero (the
    walk computes them only then); a child's cut-vertex mask is
    _child_cut_mask(cuts, S).  Rule (b) is decided by the first stage
    that can (see the module docstring): the degree filter and its lead
    set, then the vertex key (_key_ties), which needs no child rows, then,
    for a tie with a vertex that is no twin of the new one, _decide_tie:
    the refinement hook, the orbit certificate and the canonical search,
    each looking only at the tied vertices and the new one (T).  A child
    is yielded as soon as rule (b) is decided for it.  keep is an int
    whose bit S is set iff the child with neighbourhood S may be yielded
    (as in a criticality table, criticality._table_of); the other
    candidates are dropped before rules (a) and (b), and a parent with no
    candidate left is neither refined nor searched."""
    if keep == 0:
        return
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
        gens = _search(adj, cells)[1]
        if gens:
            ok &= _subset_reps(k, tuple(gens))
    elif pairs:
        ok &= _twin_cell_reps(k, pairs)
    if ok & ~lead:
        classes = [0] * (k + 1)
        for c in dcells:
            classes[adj[(c & -c).bit_length() - 1].bit_count()] = c
        span = [(d, same, below) for d, (same, below)
                in enumerate(zip(classes, [0, *classes])) if same | below]
        tables = None
        tris: list = [None] * k

    newbit = 1 << k
    while ok:
        low = ok & -ok
        ok ^= low
        s = low.bit_length() - 1
        if not lead & low:
            if tables is None:
                tables = _sum_tables(adj, k)
            ties = _key_ties(adj, classes, cuts, tables, tris, s)
            if ties is None or ties and not _decide_tie(
                    _attach(adj, s), k, ties | newbit,
                    _child_degree_cells(span, s, newbit)):
                continue
        yield s


def _iter_leaves(
    n: int,
    parts: int = 1,
    part: int = 0,
    keep: Callable[[tuple[int, ...], int, int], int] = (
        lambda adj, k, table: -1),
) -> Iterator[tuple[int, tuple[int, ...], int, list[int]]]:
    """Yield one record (f, parent, table, children) for every node the
    walk opens, on 0..n - 1 vertices, in one walk of the tree: children
    holds the S of the accepted nodes _attach(parent, S) on len(parent) +
    1 vertices that the walk yields, in generation order, and bit S of
    table, the parent's criticality table, is such a node's verdict.  The
    rows of a node are built only by a caller that reads them.  The root
    K1 comes as the record of the empty parent, with table 0 and children
    [0].  Within each order the nodes are those of the walk for that
    order alone, in the same order; the orders interleave, as each node
    gives its record before its subtree is walked.

    keep(parent, k, table) is the keep table of each node on k vertices
    (see _child_states); the default keeps every child.  Each node gets
    its criticality table once.  A node below level n - 2 yields its kept
    children and still expands all of them.  A node at level n - 2 also
    computes its alive set (criticality._alive_set), decides rules (a)
    and (b) only for the children that are kept or alive, yields the kept
    ones and opens only those.  A node at level n - 1 builds its table
    iff its bit of its parent's alive set is set (otherwise the table is
    0), and its keep table prunes its children before they are built.  A
    node computes its cut sets only if it decides a child, and hands each
    child it opens the child's cut-vertex mask (_child_cut_mask).

    So a level n - 1 node's keep may be nonzero only if the node is alive
    or kept by its parent: any other node is not opened, and its kept
    children would be lost.  Every caller's keep obeys this.  A
    criticality table is nonzero only on alive nodes; the default keeps
    every child; the lemma universe's girth > 4 table is nonzero only on
    a graph of girth > 4 or a tree, which its parent's girth table, and
    so its parent's keep, admits.

    The frontier is the nodes at level max(1, n - 2), numbered f = 0, 1,
    ... in generation order.  The walk opens only those with f mod parts
    == part, and f is the frontier node a record descends from.  The
    records of nodes above the frontier come from every part and carry
    -1; for n = 1, K1 is frontier node 0 and the one node, whose record
    part 0 alone yields, with f = 0."""
    if n == 1:
        if part == 0:
            yield 0, (), 0, [0]
        return
    yield -1, (), 0, [0]
    frontier = max(1, n - 2)
    numbers = itertools.count()

    def nodes(adj: tuple[int, ...], cut_mask: int, k: int, alive: int,
              f: int) -> Iterator[tuple]:
        # alive is 0 only for a node at level n - 1 whose bit of its
        # parent's alive set is clear, and such a node builds no table
        if k == frontier:
            f = next(numbers)
            if f % parts != part:
                return
        table = 0
        if alive:
            sets = _pairless_sets(adj, k)
            table = _table_of(*sets)
        kept = keep(adj, k, table)
        # the children to decide: below level n - 2 all of them, at level
        # n - 2 those kept or alive (every node below level n - 1 is
        # alive, so sets is bound), at level n - 1 those kept
        live = 0 if k == n - 1 else -1 if k < n - 2 else _alive_set(
            adj, k, *sets)
        decide = kept | live
        cuts = _cut_sets(adj, k, cut_mask) if decide else None
        children = list(_child_states(adj, k, cuts, decide))
        yield f, adj, table, (children if decide == kept else
                              [s for s in children if kept >> s & 1])
        if k < n - 1:
            for s in children:
                yield from nodes(_attach(adj, s), _child_cut_mask(cuts, s),
                                 k + 1, live >> s & 1, f)

    yield from nodes(*_ROOT, 1, 1, -1)


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
    for _, adj, _, children in _iter_leaves(n):
        if len(adj) == n - 1:
            for s in children:
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
    for f, adj, table, children in leaves:
        if len(adj) != n - 1:
            continue
        connected += len(children)
        if not table:
            continue
        for s in children:
            if not table >> s & 1:
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
    for _, adj, _, children in _iter_leaves(n):
        k = len(adj) + 1
        catalogs[k] += [Graph(k, _attach(adj, s), check=False)
                        for s in children]
    return _iter_unions(catalogs, n)
