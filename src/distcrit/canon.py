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
    """
    if n == 0:
        return 0, (), (), []
    if n == 1:
        return 0, (0,), (0,), []
    full = (1 << n) - 1
    npairs = n * (n - 1) // 2

    if all(adj[v] == full ^ (1 << v) for v in range(n)):
        gens = [_transposition(n, i, i + 1) for i in range(n - 1)]
        return (1 << npairs) - 1, tuple(range(n)), (0,) * n, gens
    if all(a == 0 for a in adj):
        gens = [_transposition(n, i, i + 1) for i in range(n - 1)]
        return 0, tuple(range(n)), (0,) * n, gens

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
    search(stable, ())
    rep = tuple(_find(orbit, v) for v in range(n))
    return best_form, best_lab, rep, gens


def _automorphism_taking(adj: tuple[int, ...], n: int, stable: list[int],
                         w: int, u: int) -> "tuple[int, ...] | None":
    """An automorphism that maps w to u, or None if there is none.

    stable must be refine(adj, degree_cells(adj, n)), with w and u in one
    of its cells.  Both sides individualize their vertex and refine; the
    w side then follows one fixed branch (the least vertex of its first
    non-singleton cell) while the u side tries every vertex of the
    matching cell, as long as the two partitions have equal cell sizes.
    A discrete pair is a bijection, returned only if it preserves
    adjacency, which makes the search sound.  It is complete because
    refine is label-invariant: an automorphism taking w to u maps every
    partition on the w branch to one on the u side, cell by cell, and
    the branch that follows it ends in that automorphism.
    """

    def match(pw: list[int], pu: list[int]) -> "tuple[int, ...] | None":
        if len(pw) != len(pu) or any(
                a.bit_count() != b.bit_count() for a, b in zip(pw, pu)):
            return None
        t = next((i for i, c in enumerate(pw) if c & (c - 1)), -1)
        if t < 0:
            perm = [0] * n
            for a, b in zip(pw, pu):
                perm[a.bit_length() - 1] = b.bit_length() - 1
            if all(adj[perm[v]] >> perm[x] & 1
                   for v in range(n) for x in bits(adj[v])):
                return tuple(perm)
            return None
        pw = _individualize(adj, pw, t, pw[t] & -pw[t])
        m = pu[t]
        while m:
            low = m & -m
            m ^= low
            perm = match(pw, _individualize(adj, pu, t, low))
            if perm is not None:
                return perm
        return None

    if w == u:
        return tuple(range(n))
    t = next(i for i, c in enumerate(stable) if c >> w & 1)
    return match(_individualize(adj, stable, t, 1 << w),
                 _individualize(adj, stable, t, 1 << u))


def _transposition(n: int, a: int, b: int) -> tuple[int, ...]:
    perm = list(range(n))
    perm[a], perm[b] = b, a
    return tuple(perm)


def _twin_cell_generators(adj: tuple[int, ...], n: int,
                          stable: list[int]) -> "list[tuple[int, ...]] | None":
    """Generators of the automorphism group when every non-singleton cell
    of stable is a set of pairwise twins, else None.

    stable must be refine(adj, degree_cells(adj, n)).  Every automorphism
    fixes each of its cells, since refine is label-invariant, so the group
    lies in the product of the cells' symmetric groups.  Swapping two
    twins (same neighbours apart from each other) is an automorphism, so
    when each cell is all twins the group is that product, generated by
    the transpositions of consecutive members of each cell.  A vertex
    with a true twin (adjacent) has no false twin (not adjacent), so a
    cell is all twins once its least vertex is a twin of every other.  A
    discrete partition gives no generators.
    """
    gens = []
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
            gens.append(_transposition(n, prev, b))
            prev = b
    return gens


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
