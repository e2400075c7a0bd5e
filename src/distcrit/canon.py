"""Canonical forms, canonical labelings and automorphism orbits.

The canonical form of a graph is computed in-house by equitable partition
refinement plus backtracking: start from the ordered partition of vertices
by ascending degree, refine it to the coarsest equitable partition (cells
split by adjacency counts against every cell, fragments ordered by
ascending count), and branch on the first non-singleton cell by
individualizing each of its vertices in turn.  Every discrete partition
reached this way (a leaf of the refinement search tree) is a candidate
labeling; the canonical form is the lexicographically least upper-triangle
row-major adjacency bit-string over the leaves of that tree.  Because the
whole procedure only consults the abstract (graph, ordered partition)
structure, isomorphic graphs get identical forms and non-isomorphic graphs
of equal order get distinct ones.  The form is not in general the least
over all relabelings: from six vertices on, the least relabeling may not
be a leaf (edges 01 02 03 14 25 35 get 000100101101001, although
000010110110001 is a relabeling).

Two classic prunings keep symmetric inputs feasible: when a leaf ties the
current best, the pair of labelings yields an automorphism, and the search
jumps back to the deepest node shared with the best leaf's branch; at each
node, sibling branch vertices lying in one orbit of the automorphisms that
fix the node's individualized prefix are explored only once.  The
discovered generators are also reported, so callers get automorphism
orbits for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bits


@dataclass(frozen=True)
class CanonicalForm:
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


def refine(adj, cells, abort=None):
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

    abort, if given, is called after each applied splitter; a true return
    stops early and makes refine return None (used by the enumeration
    filters to reject candidates before the partition stabilizes).
    """
    cells = list(cells)
    inert: set[int] = set()
    s = 0
    while s < len(cells):
        splitter = cells[s]
        s += 1
        if splitter in inert:
            continue
        inert.add(splitter)
        new_cells = []
        any_split = False
        for cell in cells:
            if cell & (cell - 1) == 0:
                new_cells.append(cell)
                continue
            low = cell & -cell
            c0 = (adj[low.bit_length() - 1] & splitter).bit_count()
            m = cell ^ low
            while m:
                low = m & -m
                if (adj[low.bit_length() - 1] & splitter).bit_count() != c0:
                    break
                m ^= low
            if not m:
                new_cells.append(cell)
                continue
            any_split = True
            buckets: dict[int, int] = {}
            m = cell
            while m:
                low = m & -m
                m ^= low
                c = (adj[low.bit_length() - 1] & splitter).bit_count()
                buckets[c] = buckets.get(c, 0) | low
            for c in sorted(buckets):
                new_cells.append(buckets[c])
        if any_split:
            cells = new_cells
            if abort is not None and abort(cells):
                return None
            s = 0
    return cells


def _search(adj: tuple[int, ...], n: int):
    """Core backtracking search.

    Returns (form_int, labeling, orbit_rep, generators) where
    labeling[pos] is the original vertex at canonical position pos,
    orbit_rep[v] is the least vertex in v's automorphism orbit, and
    generators are permutation tuples generating the automorphism group.
    """
    if n == 0:
        return 0, (), (), []
    if n == 1:
        return 0, (0,), (0,), []
    full = (1 << n) - 1
    npairs = n * (n - 1) // 2

    if all(adj[v] == full ^ (1 << v) for v in range(n)):
        gens = [_adjacent_transposition(n, i) for i in range(n - 1)]
        return (1 << npairs) - 1, tuple(range(n)), (0,) * n, gens
    if all(a == 0 for a in adj):
        gens = [_adjacent_transposition(n, i) for i in range(n - 1)]
        return 0, tuple(range(n)), (0,) * n, gens

    best_form: int | None = None
    best_lab: tuple[int, ...] = ()
    best_path: tuple[int, ...] = ()
    gens: list[tuple[int, ...]] = []
    orbit = list(range(n))

    def o_find(x: int) -> int:
        while orbit[x] != x:
            orbit[x] = orbit[orbit[x]]
            x = orbit[x]
        return x

    def o_union(a: int, b: int) -> None:
        ra, rb = o_find(a), o_find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            orbit[rb] = ra

    def form_of(lab: tuple[int, ...]) -> int:
        f = 0
        for i in range(n):
            ai = adj[lab[i]]
            for j in range(i + 1, n):
                f = f << 1 | (ai >> lab[j] & 1)
        return f

    def search(cells: list[int], path: tuple[int, ...]):
        nonlocal best_form, best_lab, best_path
        cells = refine(adj, cells)
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
                        o_union(v, perm[v])
                t = 0
                limit = min(len(path), len(best_path))
                while t < limit and path[t] == best_path[t]:
                    t += 1
                return t if t < len(path) else None
            return None

        cell = cells[tgt]
        prefix, suffix = cells[:tgt], cells[tgt + 1:]
        tried: list[int] = []
        seen_gens = -1
        lroot: list[int] = []

        def l_find(x: int) -> int:
            while lroot[x] != x:
                lroot[x] = lroot[lroot[x]]
                x = lroot[x]
            return x

        m = cell
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
                                ru, rg = l_find(u), l_find(g[u])
                                if ru != rg:
                                    lroot[max(ru, rg)] = min(ru, rg)
                if any(l_find(v) == l_find(u) for u in tried):
                    continue
            tried.append(v)
            res = search(prefix + [low, cell ^ low] + suffix, path + (v,))
            if res is not None and res < len(path):
                return res
        return None

    search(degree_cells(adj, n), ())
    rep = [0] * n
    for v in range(n):
        rep[v] = o_find(v)
    return best_form, best_lab, tuple(rep), gens


def _adjacent_transposition(n: int, i: int) -> tuple[int, ...]:
    perm = list(range(n))
    perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


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


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """labeling[pos] = original vertex placed at canonical position pos."""
    _, lab, _, _ = _search(g.adj, g.n)
    return lab


def automorphism_orbits(g: Graph) -> tuple[int, ...]:
    """Least orbit member per vertex under the full automorphism group."""
    _, _, rep, _ = _search(g.adj, g.n)
    return rep


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Permutations generating Aut(g) (not necessarily minimal)."""
    _, _, _, gens = _search(g.adj, g.n)
    return gens


def graph_from_form(cf: CanonicalForm) -> Graph:
    """Rebuild the canonically labeled graph from its packed form."""
    n = cf.n
    adj = [0] * n
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if cf.bits[k >> 3] >> (7 - (k & 7)) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return Graph(n, adj, check=False)
