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

A stable partition whose non-singleton cells are all twins (same
neighbours apart from each other) is read without backtracking (_search).

Two classic prunings keep symmetric inputs feasible: when a leaf ties the
current best, the pair of labelings yields an automorphism, and the search
jumps back to the deepest node shared with the best leaf's branch; at each
node, sibling branch vertices lying in one orbit of the automorphisms that
fix the node's individualized prefix are explored only once.  The
search also returns its labeling, its generators and their orbits; the
enumeration engine reads them where its _swap_group gives up.
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


def _search(adj: tuple[int, ...], n: int, stable: "list[int] | None" = None):
    """Core backtracking search.

    Returns (form_int, labeling, orbit_rep, generators) where
    labeling[pos] is the original vertex at canonical position pos,
    orbit_rep[v] is the least vertex in v's automorphism orbit, and
    generators are permutation tuples generating the automorphism group.

    stable, if given, must be refine(adj, degree_cells(adj, n)), the root
    of the search tree; a caller that already holds it saves that
    refinement.  The result is the same either way.

    A stable partition whose non-singleton cells are all twins
    (_twin_pairs) is read, not searched.  Every automorphism fixes each
    cell (refine is label-invariant) and swapping two twins is one, so
    the cells are the orbits and their transpositions generate the group.
    Individualizing a twin splits nothing else, so the first leaf lists
    each cell in ascending order; every other leaf is its image under an
    automorphism, with the same form.  This covers K0, K1, complete and
    empty graphs.
    """
    best_form: int | None = None
    best_lab: tuple[int, ...] = ()
    best_path: tuple[int, ...] = ()
    gens: list[tuple[int, ...]] = []
    orbit = list(range(n))

    def form_of(lab: tuple[int, ...]) -> int:
        f = 0
        for i in range(n):
            ai = adj[lab[i]]
            for j in range(i + 1, n):
                f = f << 1 | (ai >> lab[j] & 1)
        return f

    def search(cells: list[int], path: tuple[int, ...]):
        nonlocal best_form, best_lab, best_path
        tgt = -1
        for idx, cell in enumerate(cells):
            if cell & (cell - 1):
                tgt = idx
                break
        if tgt < 0:
            lab = tuple(cell.bit_length() - 1 for cell in cells)
            form = form_of(lab)
            if best_form is None or form < best_form:
                best_form, best_lab, best_path = form, lab, path
                return None
            if form == best_form:
                perm = [0] * n
                for pos in range(n):
                    perm[best_lab[pos]] = lab[pos]
                if any(perm[v] != v for v in range(n)):
                    gens.append(tuple(perm))
                    for v in range(n):
                        _union(orbit, v, perm[v])
                t = 0
                limit = min(len(path), len(best_path))
                while t < limit and path[t] == best_path[t]:
                    t += 1
                return t if t < len(path) else None
            return None

        tried: list[int] = []
        seen_gens = -1
        lroot: list[int] = []
        m = cells[tgt]
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if tried:
                if len(gens) != seen_gens:
                    seen_gens = len(gens)
                    lroot = list(range(n))
                    for g in gens:
                        if all(g[p] == p for p in path):
                            for u in range(n):
                                _union(lroot, u, g[u])
                if any(_find(lroot, v) == _find(lroot, u) for u in tried):
                    continue
            tried.append(v)
            res = search(_individualize(adj, cells, tgt, low), path + (v,))
            if res is not None and res < len(path):
                return res
        return None

    if stable is None:
        stable = refine(adj, degree_cells(adj, n))
    pairs = _twin_pairs(adj, stable)
    if pairs is None:
        search(stable, ())
    else:
        best_lab = tuple(v for cell in stable for v in bits(cell))
        best_form = form_of(best_lab)
        for a, b in pairs:
            gens.append(_transposition(n, a, b))
            _union(orbit, a, b)
    # search reaches itself through its closure; dropping the name breaks
    # that cycle, so the call's lists are freed on return and not left to
    # the cyclic collector
    del search
    rep = tuple(_find(orbit, v) for v in range(n))
    return best_form, best_lab, rep, gens


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
    form_int, _, _, _ = _search(g.adj, g.n)
    return CanonicalForm(g.n, _pack_form(form_int, g.n))


def automorphism_orbits(g: Graph) -> tuple[int, ...]:
    """Least orbit member per vertex under the full automorphism group."""
    _, _, rep, _ = _search(g.adj, g.n)
    return rep
