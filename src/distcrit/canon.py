"""Canonical forms, canonical labelings and automorphism orbits.

The canonical form of a graph is computed in-house by equitable partition
refinement plus backtracking: start from the ordered partition of vertices
by ascending degree, refine it to the coarsest equitable partition (cells
split by adjacency counts against every cell, fragments ordered by
ascending count), and branch on the first non-singleton cell by
individualizing each of its vertices in turn.  Refinement counts with
whole vertex sets: a splitter's rows are added into bit planes of the
counts, and each cell splits by those planes, so no count is taken one
vertex at a time (see refine).

Every discrete partition reached this way (a leaf of the refinement
search tree) is a candidate labeling; the canonical form is the
lexicographically least upper-triangle row-major adjacency bit-string
over the leaves of that tree.  Because the whole procedure only consults
the abstract (graph, ordered partition) structure, isomorphic graphs get
identical forms and non-isomorphic graphs of equal order get distinct
ones.  The form is not in general the least over all relabelings: from
six vertices on, the least relabeling may not be a leaf (edges 01 02 03
14 25 35 get 000100101101001, although 000010110110001 is a relabeling).

The search first walks the first path of the tree (_swap_group), joining
each node's branch vertex to the rest of its cell by propagated swaps.
Where they certify the whole automorphism group, as nauty reads its
generators off its first path (McKay and Piperno, J. Symb. Comput. 2014),
the walk's leaf is the labeling.  Otherwise two classic prunings keep
symmetric inputs feasible: when a leaf ties the current best, the pair of
labelings yields an automorphism, and the search jumps back to the
deepest node shared with the best leaf's branch; at each node, sibling
branch vertices lying in one orbit of the automorphisms that fix the
node's individualized prefix are explored only once.  The search returns
its labeling and its generators; a caller builds the form (_form_of) or
the orbits (_orbit_reps) from them where it reads them.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, bits


class CanonicalForm(NamedTuple):
    """n plus the packed row-major upper-triangle bits, MSB first."""

    n: int
    bits: bytes


def degree_cells(adj: tuple[int, ...], n: int) -> list[int]:
    """Ordered partition of 0..n-1 by ascending degree, as bitmasks."""
    by_deg: dict[int, int] = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_deg[d] = by_deg.get(d, 0) | (1 << v)
    return [by_deg[d] for d in sorted(by_deg)]


def refine(adj, cells, abort=None, equitable=()):
    """Coarsest equitable refinement of an ordered partition.

    Scans cells in order for a splitter that distinguishes some cell by
    adjacency count, applies all its splits (fragments ascend by count),
    and rescans from the first cell.  The scan order depends only on the
    partition structure, so relabeling a graph permutes the result
    cellwise.

    A scanned splitter is inert from then on: every cell is uniform
    towards it once its splits are applied (or when it had none), and so
    is every cell of every finer partition.  The rescan skips inert
    masks, which leaves the first splitter that splits, and so every
    partition along the way, the same as a rescan of every cell.

    equitable holds masks the caller knows every cell to be uniform
    towards, such as the cells of a coarser equitable partition; they are
    inert from the start, so skipping them changes no partition either.

    abort, if given, is called after each applied splitter; a true return
    stops early and makes refine return None (the enumeration uses it to
    decide rule (b) before the partition stabilizes; further refinement
    only splits cells in place, so such a decision is final).

    The counts are never taken vertex by vertex.  A one-vertex splitter
    {x} splits each cell into cell & ~adj[x] and cell & adj[x].  A larger
    splitter X adds the rows adj[x], x in X, into carry-save bit planes,
    so that plane i holds the vertices whose count in X has bit i set; a
    cell is then split by each plane in turn, the highest first, each
    fragment into its part outside the plane and its part inside.  That
    is a radix sort on the counts, most significant bit first, so the
    fragments come out by ascending count, as the definition orders them.
    A pass that splits nothing builds no new cell list.
    """
    cells = list(cells)
    inert = set(equitable)
    s = 0
    while s < len(cells):
        splitter = cells[s]
        s += 1
        if splitter in inert:
            continue
        inert.add(splitter)
        new_cells = None
        if splitter & (splitter - 1) == 0:
            row = adj[splitter.bit_length() - 1]
            for i, cell in enumerate(cells):
                hi = cell & row
                if hi and hi != cell:
                    if new_cells is None:
                        new_cells = cells[:i]
                    new_cells += (cell ^ hi, hi)
                elif new_cells is not None:
                    new_cells.append(cell)
        else:
            planes: list[int] = []
            m = splitter
            while m:
                low = m & -m
                m ^= low
                carry = adj[low.bit_length() - 1]
                i = 0
                while carry:
                    if i == len(planes):
                        planes.append(carry)
                        break
                    p = planes[i]
                    planes[i] = p ^ carry
                    carry &= p
                    i += 1
            planes.reverse()
            for i, cell in enumerate(cells):
                frags = None
                for p in planes:
                    hi = cell & p
                    if not hi or hi == cell:
                        continue
                    if frags is None:
                        frags = [cell ^ hi, hi]
                        continue
                    split = []
                    for f in frags:
                        hi = f & p
                        if hi and hi != f:
                            split += (f ^ hi, hi)
                        else:
                            split.append(f)
                    frags = split
                if frags is not None:
                    if new_cells is None:
                        new_cells = cells[:i]
                    new_cells += frags
                elif new_cells is not None:
                    new_cells.append(cell)
        if new_cells is not None:
            cells = new_cells
            if abort is not None and abort(cells):
                return None
            s = 0
    return cells


def _individualize(adj, cells: list[int], t: int, low: int) -> list[int]:
    """Individualize one vertex: split the one-bit mask low off cell t,
    in front of the rest of that cell, and refine.

    cells must be equitable.  Every cell of the split partition lies in
    one of them, so is uniform towards each, and refine skips them as
    splitters."""
    return refine(adj, cells[:t] + [low, cells[t] ^ low] + cells[t + 1:],
                  equitable=cells)


def _find(parent: list[int], x: int) -> int:
    """Root of x in the union-find forest parent, halving the path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _union(parent: list[int], a: int, b: int) -> None:
    """Join the classes of a and b under the smaller root, so every root
    is the least member of its class."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra < rb:
        parent[rb] = ra
    elif rb < ra:
        parent[ra] = rb


def _form_of(adj: tuple[int, ...], lab: tuple[int, ...]) -> int:
    """The upper-triangle row-major adjacency bits of adj relabeled by
    lab (lab[pos] is the vertex at position pos), first bit highest."""
    n = len(lab)
    f = 0
    for i in range(n):
        ai = adj[lab[i]]
        for j in range(i + 1, n):
            f = f << 1 | (ai >> lab[j] & 1)
    return f


def _orbit_reps(n: int, gens) -> tuple[int, ...]:
    """The least vertex of each vertex's orbit under the group that the
    permutations gens generate on 0..n-1."""
    orbit = list(range(n))
    for g in gens:
        for v in range(n):
            _union(orbit, v, g[v])
    return tuple(_find(orbit, v) for v in range(n))


def _search(adj: tuple[int, ...], stable: "list[int] | None" = None):
    """Canonical labeling and automorphism group generators of adj.

    Returns (labeling, generators) where labeling[pos] is the original
    vertex at canonical position pos and generators are permutation
    tuples generating the automorphism group.  The canonical form is
    _form_of(adj, labeling), the orbits _orbit_reps(len(adj), generators).

    stable, if given, must be refine(adj, degree_cells(adj, len(adj))),
    the root of the search tree; a caller that already holds it saves
    that refinement.  The result is the same either way.

    The search walks its first path before it backtracks (_swap_group).
    Where the walk certifies Aut, its leaf is the labeling.  Let v_i be
    the vertex the path individualizes at node i, the least of the cell
    C_i branched on there.  The walk certifies |Aut| = prod |C_i|, so the
    automorphisms fixing v_1..v_(i-1) move v_i over all of C_i.  Every
    automorphism maps the tree onto itself (refine is label-invariant),
    and by induction on depth every node is the image g(N) of the
    first-path node N of its depth: its child by g(x), x in C_i, is
    g(h(N')) for the next first-path node N' and an h that fixes N and
    takes v_i to x.  So every leaf is an automorphic image of the first
    one and has its form, and the backtracking (_backtrack), which keeps
    the first least leaf it reaches, would keep the first leaf: the
    walk's.
    """
    if stable is None:
        stable = refine(adj, degree_cells(adj, len(adj)))
    return _swap_group(adj, stable) or _backtrack(adj, stable)


def _backtrack(adj: tuple[int, ...], stable: list[int]):
    """(labeling, generators) of adj by backtracking over the search tree
    rooted at its stable partition: the labeling of the least leaf form
    (the first such leaf reached), and the automorphisms read off leaves
    that tie it."""
    n = len(adj)
    best_form: int | None = None
    best_lab: tuple[int, ...] = ()
    best_path: tuple[int, ...] = ()
    gens: list[tuple[int, ...]] = []

    def search(cells: list[int], path: tuple[int, ...]):
        nonlocal best_form, best_lab, best_path
        tgt = -1
        for idx, cell in enumerate(cells):
            if cell & (cell - 1):
                tgt = idx
                break
        if tgt < 0:
            lab = tuple(cell.bit_length() - 1 for cell in cells)
            form = _form_of(adj, lab)
            if best_form is None or form < best_form:
                best_form, best_lab, best_path = form, lab, path
                return None
            if form == best_form:
                perm = [0] * n
                for pos in range(n):
                    perm[best_lab[pos]] = lab[pos]
                if any(perm[v] != v for v in range(n)):
                    gens.append(tuple(perm))
                t = 0
                limit = min(len(path), len(best_path))
                while t < limit and path[t] == best_path[t]:
                    t += 1
                return t if t < len(path) else None
            return None

        tried: list[int] = []
        seen_gens = -1
        rep: tuple[int, ...] = ()
        m = cells[tgt]
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if tried:
                if len(gens) != seen_gens:
                    seen_gens = len(gens)
                    rep = _orbit_reps(n, [g for g in gens
                                          if all(g[p] == p for p in path)])
                if any(rep[v] == rep[u] for u in tried):
                    continue
            tried.append(v)
            res = search(_individualize(adj, cells, tgt, low), path + (v,))
            if res is not None and res < len(path):
                return res
        return None

    search(stable, ())
    # search reaches itself through its closure; dropping the name breaks
    # that cycle, so the call's lists are freed on return and not left to
    # the cyclic collector
    del search
    return best_lab, gens


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


def _join(adj: tuple[int, ...], w: int, targets: int, stable: list[int],
          gens: list[tuple[int, ...]]) -> bool:
    """Join every vertex of the mask targets to w by propagated swaps
    (_swap_taking), appending each involution found to gens; False as
    soon as a swap gives up.  A target already joined to w by the swaps
    made so far is not swapped again.  stable must be equitable, with w
    and the targets in one cell."""
    orbit = list(range(len(adj)))
    for u in bits(targets):
        if _find(orbit, u) == _find(orbit, w):
            continue
        perm = _swap_taking(adj, w, u, stable)
        if perm is None:
            return False
        gens.append(tuple(perm))
        for x, px in enumerate(perm):  # an involution: each pair once
            if x < px:
                _union(orbit, x, px)
    return True


def _swap_group(adj: tuple[int, ...], cells: list[int]):
    """The first path of the search tree from the equitable partition
    cells, as (labeling, generators of Aut), or None when a swap gives
    up.  At each node the least vertex v of the first non-singleton cell
    C is joined to the rest of C (_join), then individualized.  A node
    whose non-singleton cells are all twins (_twin_pairs) ends the walk:
    their transpositions are automorphisms, and individualizing a twin
    splits nothing else, so the path's leaf lists each cell in ascending
    order.

    That is all of Aut.  Let v_i and C_i be node i's v and C, and G_i the
    automorphisms that fix v_1..v_(i-1).  They keep node i's partition,
    so |G_i| <= |C_i| |G_(i+1)|, and the discrete leaf gives |Aut| <=
    prod |C_i|.  The swaps at nodes i and on keep the cells of their
    nodes, so fix v_1..v_(i-1), and generate H_i <= G_i.  H_i moves v_i
    over C_i and H_(i+1) fixes v_i, so |H_i| >= |C_i| |H_(i+1)|, and
    |H_1| >= prod |C_i| >= |Aut|.  A twin node i ends both chains: its
    transpositions generate the product of its cells' symmetric groups,
    which holds G_i, so H_i = G_i."""
    gens: list[tuple[int, ...]] = []
    while True:
        pairs = _twin_pairs(adj, cells)
        if pairs is not None:
            gens += [_transposition(len(adj), a, b) for a, b in pairs]
            return tuple(v for cell in cells for v in bits(cell)), gens
        t = next(i for i, c in enumerate(cells) if c & (c - 1))
        low = cells[t] & -cells[t]
        if not _join(adj, low.bit_length() - 1, cells[t] ^ low, cells, gens):
            return None
        cells = _individualize(adj, cells, t, low)


def _transposition(n: int, a: int, b: int) -> tuple[int, ...]:
    perm = list(range(n))
    perm[a], perm[b] = b, a
    return tuple(perm)


def _twin_pairs(adj: tuple[int, ...],
                stable: list[int]) -> "list[tuple[int, int]] | None":
    """The pairs a < b of consecutive members of each non-singleton cell
    of stable, when every such cell is a set of pairwise twins, else None.

    A vertex with a true twin (adjacent) has no false twin (not
    adjacent), so a cell is all twins once its least vertex is a twin of
    every other.  A discrete partition gives no pairs."""
    pairs = []
    for cell in stable:
        low = cell & -cell
        a = prev = low.bit_length() - 1
        m = cell ^ low
        while m:
            bit = m & -m
            m ^= bit
            b = bit.bit_length() - 1
            if adj[a] & ~bit != adj[b] & ~low:
                return None
            pairs.append((prev, b))
            prev = b
    return pairs


def _pack_form(form_int: int, n: int) -> bytes:
    nbits = n * (n - 1) // 2
    if nbits == 0:
        return b""
    nbytes = (nbits + 7) // 8
    return (form_int << (nbytes * 8 - nbits)).to_bytes(nbytes, "big")


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form; equal across isomorphic graphs, else distinct."""
    lab, _ = _search(g.adj)
    return CanonicalForm(g.n, _pack_form(_form_of(g.adj, lab), g.n))


def automorphism_orbits(g: Graph) -> tuple[int, ...]:
    """Least orbit member per vertex under the full automorphism group."""
    return _orbit_reps(g.n, _search(g.adj)[1])
