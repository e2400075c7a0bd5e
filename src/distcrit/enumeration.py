"""Isomorph-free enumeration of connected graphs, with criticality tallies.

Connected graphs are generated one per isomorphism class by canonical
augmentation (McKay, "Isomorph-free exhaustive generation", J. Algorithms
26, 1998): every graph on k + 1 vertices arises from a parent on k
vertices by attaching a new vertex (numbered k) to a nonempty subset S of
the parent.  A candidate child is kept iff

  (a) S is the numerically least subset in its orbit under the parent's
      automorphism group (McKay's lower-object rule), and
  (b) the new vertex is, in the child, automorphic to the canonically last
      deletable vertex, where deletable means removal keeps the child
      connected (parents must stay connected; McKay's upper-object rule).

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

Rule (b) is decided cheaply for almost all candidates.  First an exact
degree filter: the new vertex, of degree |S|, can only come last if |S|
is at least the child degree of every deletable parent vertex.  As a set
that is the AND over u of: u is cut, or u is in S and |S| >= d_u + 1, or
u is not in S and |S| >= d_u.  If |S| is strictly above all of them (the
same AND with one more), the new vertex's degree cell holds no other
deletable vertex and no later cell holds one; refinement only splits
cells in place, so rule (b) holds with no refinement at all.  Rule (a)'s
orbit minima are ANDed in as one more set, and the candidates are the
set bits left, in ascending order.  Otherwise the equitable partition is
refined with an abort hook that looks at the last cell holding a
deletable vertex: it rejects as soon as the new vertex is not in that
cell, and accepts as soon as the new vertex is its only deletable vertex.

First-cell verdict: most of those hook verdicts come at the hook's first
call, and are read from the parent before the child is built
(_first_cell_verdict).  A candidate that passes the degree filter but is
no lead accept has a deletable parent vertex of child degree D = |S|, so
the cell of degree D holds the new vertex w and another deletable
vertex, and no later cell holds one.  Let L be the child's lowest degree
cell, made from the parent's degree classes (u has child degree d_u + 1
if u is in S, else d_u; w has degree D), and count for w and for each
deletable parent vertex of child degree D its neighbours in L: |S & L|
for w, and for u its parent neighbours in L, plus one when u is in S and
w is in L.  refine scans L first.  If the counts differ, L splits the
degree D cell, so L is the first splitter applied, and the hook's first
call sees that cell split into fragments of ascending count, with no
deletable vertex after them.  So w with the highest count alone is
accepted, some vertex counting more than w rejects it, and those are the
hook's own verdicts; on a tie at the top the candidate goes down the path
above.  A rejected candidate is never built.  In the census to n = 9
this decides 128,072 of the 283,839 candidates that would reach refine
(42,619 accepts and 85,453 rejects).

Twin-cell groups: rule (a) needs generators of the parent's automorphism
group.  Every automorphism fixes each cell of the parent's stable
partition, since refinement is label-invariant, so the group lies in the
product of the cells' symmetric groups.  When every non-singleton cell is
a set of pairwise twins (same neighbours apart from each other), each
transposition within a cell is an automorphism, so the group is that
product, generated by the transpositions of consecutive cell members
(canon._twin_cell_generators), and the canonical search is skipped.
_subset_reps depends only on the group, so rule (a) is unchanged.  In
the census to n = 9 this gives the generators of 5,440 of the 8,408
parents whose stable partition is not discrete.

A candidate that reaches a stable partition undecided first gets an orbit
certificate.  Let C be the last cell of the stable partition that holds a
deletable vertex.  Every leaf of the canonical search refines the stable
partition in cell order (individualization and refinement only split
cells in place), so the canonically last deletable vertex lies in C.  If
every deletable vertex of C is automorphic to the new vertex, so is the
canonically last one, and rule (b) holds: the verdict is the canonical
search's, without the search.  Each deletable u of C is checked in turn:
u may already be joined to the new vertex by the automorphisms found so
far; a twin of it (same neighbours apart from each other) is swapped with
it by a transposition; otherwise canon._automorphism_taking looks for an
automorphism that maps the new vertex to u, and finds one iff there is
one.  Only when some u has none does the canonical search, started from
the stable partition, decide.  In the census to n = 9 that happens for
221 of the 32,789 candidates that reach a stable partition.

A node carries only its adjacency and cut-vertex mask.  Its stable
partition and automorphism generators are computed when it is expanded,
so children at the last level, which are never expanded, cost no more
than their verdict.

Table-decided leaves: one generator, _iter_leaves, walks the nodes at
level n - 1 and builds each one's criticality table
(criticality._extension_table) once.  Bit S of it says whether the
child with neighbourhood S is critical, decided for all S at once from
the parent's determining pairs, so a leaf is critical iff bit S of its
parent's table is set, S being the new vertex's row, and no leaf is
tested on its own.  The census, iter_connected and the lemma universe in
verify all read their leaves from this generator; edge-maximality is
then tested on the critical leaves.  The walk starts at the root, the
one-vertex graph K1, which for n = 1 is the one leaf (not critical: it
has no parent table).

Critical-first leaves: a walk that only needs some leaves passes a keep
table, computed from the parent and its criticality table, to the
parent's child test.  The critical-only census keeps exactly the
criticality table, the lemma universe that table or the girth > 4 one.
A parent with an empty keep table is skipped before its cut sets,
refinement and automorphism search; otherwise the table is ANDed into
the candidates before rules (a) and (b).  Both rules are decided for
each candidate on its own (the union-find and the abort hook start
afresh per candidate), so dropping candidates changes no other verdict:
the stream is the full stream filtered by the table, in the same order,
and the frontier, and with it the shard and job split, is unchanged.  At
n = 10 only 4,261 of the 261,080 parents have a critical child.

Work splitting: the nodes at augmentation level max(1, n - 2) form a
frontier (for n <= 3 that is K1 alone, node 0).  Job j of J within shard
s of S owns frontier node f (in deterministic generation order) iff
f mod (S * J) = s + S * j, which is f mod S = s and (f div S) mod J = j:
S * J parts with one modulus rule.  The union over any partition layout
reproduces the unsharded run.  A job yields its leaves in ascending f,
and the jobs own disjoint sets of f, so the collected hits, tagged with
their f, merge back into the order of the single-job run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .canon import (_automorphism_taking, _find, _search,
                    _twin_cell_generators, _union, degree_cells, refine)
from .criticality import _extension_table, _is_edge_maximal_fast, _mask_sets
# _articulation_mask and _is_critical_fast are no longer called here (the cut
# sets and the extension table replace them) but stay module attributes:
# bench/layers.py traces them by name.
from .criticality import _is_critical_fast  # noqa: F401
from .graph import Graph, _articulation_mask, _reach_mask, bits  # noqa: F401

MAX_ENUM_N = 11

# _subset_reps results by (k, generators); cleared when it reaches the bound
_SUBSET_REPS: dict[tuple[int, tuple[tuple[int, ...], ...]], int] = {}
_SUBSET_REPS_MAX = 1 << 16


def _subset_reps(k: int, gens: Sequence[tuple[int, ...]]) -> int:
    """Bit S (1 <= S < 2^k) is set iff the mask S is the least member of
    its orbit under the group generated by gens.

    Each generator's image of every mask is built from the image of the
    mask without its top bit.  Orbit minima follow by least[S] =
    min(least[S], least[image of S]) over the generators and pointer
    jumping (least[S] = least[least[S]]), repeated until stable.  Parents
    share generator sets (1,645 distinct ones for the 8,408 calls at
    n = 9, 657 of them from twin cells), so results are cached by
    (k, gens), at most _SUBSET_REPS_MAX of them."""
    key = (k, tuple(gens))
    reps = _SUBSET_REPS.get(key)
    if reps is not None:
        return reps
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
    reps = int(bitstr[::-1], 2) & ~1
    if len(_SUBSET_REPS) >= _SUBSET_REPS_MAX:
        _SUBSET_REPS.clear()
    _SUBSET_REPS[key] = reps
    return reps


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
    has, none, ge = _mask_sets(k)
    ok = lead = (1 << (1 << k)) - 2
    for u, cut in enumerate(cuts):
        d = adj[u].bit_count()
        inside, outside = has[u], none[1 << u]
        ok &= cut | inside & ge[d + 1] | outside & ge[d]
        lead &= cut | inside & ge[d + 2] | outside & ge[d + 1]
    return ok, lead


def _first_cell_verdict(adj: tuple[int, ...], classes: dict[int, int],
                        s: int, cut: int) -> "bool | None":
    """Rule (b) for the child with neighbourhood s, read from the first
    splitter of its refinement (see the module docstring), or None when
    that splitter leaves it open.

    classes maps each parent degree, ascending, to its vertex mask; cut
    is the child's cut-vertex mask.  s must pass the degree filter and not
    be a lead accept, so some deletable parent vertex has child degree
    |s|.  L is the child's lowest degree cell, and each deletable vertex
    of the new vertex's degree cell is counted by its neighbours in L."""
    d = s.bit_count()
    d0 = next(iter(classes))
    lcell = classes[d0] & ~s
    if lcell:
        w_in_l = d == d0
    else:
        # every parent vertex of degree d0 is in s and one degree up
        lcell = classes[d0] | classes.get(d0 + 1, 0) & ~s
        w_in_l = d == d0 + 1
    cw = (s & lcell).bit_count()
    tie = False
    m = (classes.get(d, 0) & ~s | classes.get(d - 1, 0) & s) & ~cut
    while m:
        bit = m & -m
        m ^= bit
        c = (adj[bit.bit_length() - 1] & lcell).bit_count()
        if w_in_l and bit & s:
            c += 1
        if c > cw:
            return False
        if c == cw:
            tie = True
    return None if tie else True


# A node of the augmentation tree: adjacency rows and cut-vertex mask.
_State = tuple[tuple[int, ...], int]

_ROOT: _State = ((0,), 0)


def _child_states(
    state: _State,
    k: int,
    keep: "int | None" = None,
) -> Iterator[_State]:
    """The accepted children of a node on k vertices, in generation order.

    A child is yielded as soon as rule (b) is decided for it.  keep, when
    given, is an int whose bit S is set iff the child with neighbourhood S
    may be yielded (as criticality._extension_table); the other candidates
    are dropped before rules (a) and (b), and a parent with no candidate
    left is neither refined nor searched."""
    if keep == 0:
        return
    adj, cut_mask = state
    cuts = _cut_sets(adj, k, cut_mask)
    ok, lead = _degree_sets(adj, k, cuts)
    if keep is not None:
        ok &= keep
        if not ok:
            return

    dcells = degree_cells(adj, k)
    cells = refine(adj, dcells)
    gens = _twin_cell_generators(adj, k, cells)
    if gens is None:
        gens = _search(adj, k, cells)[3]
    if gens:
        # Subset-orbit pruning is exact after the degree filter because
        # automorphisms preserve popcount, degrees and cut vertices.
        ok &= _subset_reps(k, gens)
    classes = None
    if ok & ~lead:
        classes = {adj[(c & -c).bit_length() - 1].bit_count(): c
                   for c in dcells}

    # the parent cut vertices, with the S for which they stay cut; every
    # other parent vertex is cut only for the singleton S = {u}
    parent_cuts = [(1 << u, cuts[u]) for u in bits(cut_mask)]
    singles = k >= 2
    newbit = 1 << k
    nch = k + 1
    cfull = (1 << nch) - 1
    cnon = 0
    accepted = [False]

    def decided(cs: list[int]) -> bool:
        # The last cell holding a deletable vertex decides rule (b) early:
        # reject if the new vertex is not in it, accept if the new vertex
        # is its only deletable vertex.
        for cell in reversed(cs):
            if cell & cnon:
                if not cell & newbit:
                    accepted[0] = False
                    return True
                if cell & cnon == newbit:
                    accepted[0] = True
                    return True
                return False
        return False

    while ok:
        low = ok & -ok
        ok ^= low
        s = low.bit_length() - 1
        ccut_s = s if singles and not s & (s - 1) else 0
        for b, cut in parent_cuts:
            if cut & low:
                ccut_s |= b
        verdict = (True if lead & low
                   else _first_cell_verdict(adj, classes, s, ccut_s))
        if verdict is False:
            continue
        child_adj = list(adj)
        m = s
        while m:
            bit = m & -m
            child_adj[bit.bit_length() - 1] |= newbit
            m ^= bit
        child_adj.append(s)
        if verdict:
            yield tuple(child_adj), ccut_s
            continue
        cnon = cfull & ~ccut_s

        stable = refine(child_adj, degree_cells(child_adj, nch), decided)
        if stable is None:
            if accepted[0]:
                yield tuple(child_adj), ccut_s
            continue
        # The degree filter and the hook saw every partition on the way,
        # so the last deletable cell of the stable one holds the new
        # vertex and another deletable vertex.  The canonically last
        # deletable vertex is in that cell, so rule (b) holds if all its
        # deletable vertices are automorphic to the new one (the orbit
        # certificate of the module docstring).  Only when one of them is
        # not does the canonical labeling decide.
        child_adj = tuple(child_adj)
        orbit = list(range(nch))
        wrow = child_adj[k]
        for u in bits(next(c for c in reversed(stable) if c & cnon)
                      & cnon & ~newbit):
            if _find(orbit, u) == _find(orbit, k):
                continue
            if child_adj[u] & ~newbit == wrow & ~(1 << u):
                _union(orbit, u, k)
                continue
            perm = _automorphism_taking(child_adj, nch, stable, k, u)
            if perm is None:
                break
            for v, pv in enumerate(perm):
                _union(orbit, v, pv)
        else:
            yield child_adj, ccut_s
            continue
        _, lab, orep, _ = _search(child_adj, nch, stable)
        wstar = next(v for v in reversed(lab) if cnon >> v & 1)
        if orep[wstar] == orep[k]:
            yield child_adj, ccut_s


def _iter_leaves(
    n: int,
    owner: "Callable[[int], bool] | None" = None,
    keep: "Callable[[tuple[int, ...], int, int], int] | None" = None,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (adj, critical) for every accepted node on n >= 1 vertices,
    in generation order.  Each parent at level n - 1 builds its
    criticality table once; critical is bit adj[n - 1] of it, adj[n - 1]
    being the new vertex's neighbourhood, so it is the leaf's verdict.
    owner gates the frontier at level max(1, n - 2); keep(adj, n - 1,
    table), when given, is the parent's keep table (see _child_states).
    For n = 1 the root K1, frontier node 0 and not critical, is the one
    leaf."""
    if n == 1:
        if owner is None or owner(0):
            yield _ROOT[0], 0
        return
    frontier = max(1, n - 2)
    counter = 0

    def parents(state: _State, k: int) -> Iterator[_State]:
        nonlocal counter
        if owner is not None and k == frontier:
            idx = counter
            counter += 1
            if not owner(idx):
                return
        if k == n - 1:
            yield state
            return
        for child in _child_states(state, k):
            yield from parents(child, k + 1)

    for state in parents(_ROOT, 1):
        table = _extension_table(state[0], n - 1)
        kept = None if keep is None else keep(state[0], n - 1, table)
        for adj, _ in _child_states(state, n - 1, kept):
            yield adj, table >> adj[-1] & 1


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
    for adj, _ in _iter_leaves(n):
        yield Graph(n, adj, check=False)


@dataclass(frozen=True)
class EnumerationTally:
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
    collected hit comes as (f, adjacency), f its frontier node."""
    f_now = 0

    def owner(f: int) -> bool:
        nonlocal f_now
        f_now = f
        return f % parts == part

    connected = critical = maximal = 0
    hits: list[tuple[int, tuple[int, ...]]] = []
    keep = (lambda adj, k, table: table) if critical_only else None
    for adj, is_critical in _iter_leaves(n, None if parts == 1 else owner,
                                         keep):
        connected += 1
        if not is_critical:
            continue
        critical += 1
        if edge_maximal:
            if not _is_edge_maximal_fast(adj, n):
                continue
            maximal += 1
        if collect:
            hits.append((f_now, adj))
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
    jobs parts run on at most os.cpu_count() worker processes.
    critical_only walks only the critical leaves (see the module
    docstring): the same counts and graphs in the same order, but no
    connected_count.
    """
    _check_args(n, shards, shard, jobs)
    t0 = time.perf_counter()
    # job j of shard s is part s + shards * j of shards * jobs
    argv = [(n, shards * jobs, shard + shards * j, edge_maximal, collect,
             critical_only) for j in range(jobs)]
    if jobs == 1:
        results = [_tally_shard(*argv[0])]
    else:
        # imported here: it is the costliest import left, and only a pool
        # needs it
        from multiprocessing import get_context
        ctx = get_context("fork")
        with ctx.Pool(min(jobs, os.cpu_count() or 1)) as pool:
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
    Catalog members must be pairwise non-isomorphic per size.
    """

    def rec(remaining: int, size_cap: int, idx_min: int,
            acc: list[Graph]) -> Iterator[Graph]:
        if remaining == 0:
            total = sum(g.n for g in acc)
            adj: list[int] = []
            off = 0
            for g in acc:
                adj.extend(row << off for row in g.adj)
                off += g.n
            yield Graph(total, adj, check=False)
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
    catalogs = {k: list(iter_connected(k)) for k in range(1, n + 1)}
    return _iter_unions(catalogs, n)
