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
u.  One numpy table per parent holds the child cut mask for all 2^k - 1
subsets.

Rule (b) is decided cheaply for almost all candidates.  First an exact
degree filter: the new vertex, of degree |S|, can only come last if |S|
is at least the child degree of every deletable parent vertex.  If |S|
is strictly above all of them, the new vertex's degree cell holds no
other deletable vertex and no later cell holds one; refinement only
splits cells in place, so rule (b) holds with no refinement at all.
Otherwise the equitable partition is refined with an abort hook that
looks at the last cell holding a deletable vertex: it rejects as soon as
the new vertex is not in that cell, and accepts as soon as the new
vertex is its only deletable vertex.

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

Work splitting: the nodes at augmentation level max(1, n - 2) form a
frontier; node f (in deterministic generation order) belongs to shard s of
S iff f mod S = s, and within a shard to job j of J iff (f div S) mod
J = j.  The union over any partition layout reproduces the unsharded run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable, Iterator, Sequence

import numpy as np

from .canon import _automorphism_taking, _search, degree_cells, refine
from .criticality import _is_critical_fast, _is_edge_maximal_fast
# _articulation_mask is no longer called here (the child cut table replaces
# it) but stays a module attribute: bench/layers.py traces it by name.
from .graph import Graph, _articulation_mask, bits  # noqa: F401

MAX_ENUM_N = 11

_SHIFTS = np.arange(MAX_ENUM_N, dtype=np.int64)

_SUBSET_TABLES: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _tables(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All nonempty subset masks of range(k), their popcounts, and their
    bits as a 0/1 matrix with one row per mask."""
    t = _SUBSET_TABLES.get(k)
    if t is None:
        masks = np.arange(1, 1 << k, dtype=np.int64)
        bitmat = masks[:, None] >> _SHIFTS[:k] & 1
        _SUBSET_TABLES[k] = t = (masks, bitmat.sum(axis=1), bitmat)
    return t


def _subset_reps(k: int, gens: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Boolean array over masks 1..2^k-1: True iff the mask is the least
    member of its orbit under the group generated by gens.

    The images of all masks under every generator come from one product
    of the mask bit matrix with the generators' bit values.  Orbit minima
    follow by least = min(least, least[image]) over the generators and
    pointer jumping (least = least[least]), repeated until stable."""
    masks, _, bitmat = _tables(k)
    images = np.zeros((len(gens), 1 << k), dtype=np.int64)
    images[:, 1:] = (bitmat @ (1 << np.array(gens, dtype=np.int64).T)).T
    least = np.arange(1 << k, dtype=np.int64)
    while True:
        prev = least
        for img in images:
            least = np.minimum(least, least[img])
        least = least[least]
        if np.array_equal(least, prev):
            return least[1:] == masks


def _components_without(adj: tuple[int, ...], k: int, u: int) -> list[int]:
    """Vertex masks of the components of the parent minus u."""
    rest = ((1 << k) - 1) & ~(1 << u)
    comps = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            nb = 0
            for v in bits(frontier):
                nb |= adj[v]
            frontier = nb & rest & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def _child_cut_table(adj: tuple[int, ...], k: int, cut_mask: int) -> np.ndarray:
    """Cut-vertex mask of every child of a connected parent on k vertices,
    indexed by S - 1 where S is the new vertex's neighbourhood.

    The new vertex is never a cut vertex (deleting it leaves the parent).
    A parent vertex u is one iff S = {u} (for k >= 2: the new vertex is
    left isolated), or u is a cut vertex of the parent and S misses some
    component of the parent minus u (Hopcroft and Tarjan, CACM 1973,
    applied to one added vertex).
    """
    masks, pc, _ = _tables(k)
    table = np.where(pc == 1, masks, 0) if k >= 2 else np.zeros_like(masks)
    for u in bits(cut_mask):
        missed = np.zeros(len(masks), dtype=bool)
        for comp in _components_without(adj, k, u):
            missed |= (masks & comp) == 0
        table[missed] |= 1 << u
    return table


# A node of the augmentation tree: adjacency rows and cut-vertex mask.
_State = tuple[tuple[int, ...], int]

_ROOT: _State = ((0,), 0)


def _child_states(state: _State, k: int) -> Iterator[_State]:
    """The accepted children of a node on k vertices, in generation order.

    A child is yielded as soon as rule (b) is decided for it."""
    adj, cut_mask = state
    masks, pc, bitmat = _tables(k)
    ccut = _child_cut_table(adj, k, cut_mask)

    # Rule (b) needs the new vertex, of degree |S|, at least as late in
    # degree order as every deletable vertex of the child, so |S| must be
    # at least the child degree of every deletable parent vertex u: its
    # parent degree, plus one when u is in S.
    deletable = (ccut[:, None] >> _SHIFTS[:k] & 1) == 0
    deg = np.array([a.bit_count() for a in adj], dtype=np.int64)
    need = np.where(deletable, deg + bitmat, 0).max(axis=1)
    ok = pc >= need
    # With |S| above all of them, the new vertex's degree cell holds no
    # other deletable vertex and no later cell holds one, which refinement
    # keeps: rule (b) holds outright.
    lead = pc > need

    cells = refine(adj, degree_cells(adj, k))
    gens = _search(adj, k, cells)[3] if any(c & (c - 1) for c in cells) else []
    if gens:
        # Subset-orbit pruning is exact after the degree filter because
        # automorphisms preserve popcount, degrees and cut vertices.
        ok &= _subset_reps(k, gens)

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

    orbit: list[int] = []

    def find(x: int) -> int:
        # union-find over the automorphisms found for one candidate
        while orbit[x] != x:
            orbit[x] = x = orbit[orbit[x]]
        return x

    for s, ccut_s, lead_s in zip(masks[ok].tolist(), ccut[ok].tolist(),
                                 lead[ok].tolist()):
        child_adj = list(adj)
        m = s
        while m:
            low = m & -m
            child_adj[low.bit_length() - 1] |= newbit
            m ^= low
        child_adj.append(s)
        if lead_s:
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
            if find(u) == find(k):
                continue
            if child_adj[u] & ~newbit == wrow & ~(1 << u):
                orbit[find(u)] = find(k)
                continue
            perm = _automorphism_taking(child_adj, nch, stable, k, u)
            if perm is None:
                break
            for v, pv in enumerate(perm):
                orbit[find(v)] = find(pv)
        else:
            yield child_adj, ccut_s
            continue
        _, lab, orep, _ = _search(child_adj, nch, stable)
        wstar = next(v for v in reversed(lab) if cnon >> v & 1)
        if orep[wstar] == orep[k]:
            yield child_adj, ccut_s


def _iter_adj(
    n: int,
    owner: "Callable[[int], bool] | None" = None,
) -> Iterator[tuple[int, ...]]:
    """Yield the adjacency of every accepted node on n vertices.  owner
    gates the frontier at level max(1, n - 2)."""
    frontier = max(1, n - 2)
    counter = 0

    def rec(state: _State, k: int) -> Iterator[tuple[int, ...]]:
        nonlocal counter
        if owner is not None and k == frontier:
            idx = counter
            counter += 1
            if not owner(idx):
                return
        if k == n:
            yield state[0]
            return
        for child in _child_states(state, k):
            yield from rec(child, k + 1)

    yield from rec(_ROOT, 1)


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
    for adj in _iter_adj(n):
        yield Graph(n, adj, check=False)


@dataclass(frozen=True)
class EnumerationTally:
    """Census of one enumeration run (possibly one shard of one).

    partition is (shard index, shard total); elapsed is wall time in
    seconds and is deliberately excluded from to_json_dict so identical
    runs serialize identically.
    """

    n: int
    connected_count: int
    critical_count: int
    maximal_count: "int | None"
    partition: tuple[int, int]
    elapsed: float

    def to_json_dict(self) -> dict:
        d: dict = {
            "n": self.n,
            "connected_count": self.connected_count,
            "critical_count": self.critical_count,
        }
        if self.maximal_count is not None:
            d["maximal_count"] = self.maximal_count
        d["partition"] = list(self.partition)
        return d


def _tally_shard(
    n: int,
    shards: int,
    shard: int,
    jobs: int,
    job: int,
    edge_maximal: bool,
    collect: bool,
) -> tuple[int, int, int, list[tuple[int, ...]]]:
    if shards == 1 and jobs == 1:
        owner = None
    else:
        def owner(f: int) -> bool:
            return f % shards == shard and (f // shards) % jobs == job

    connected = critical = maximal = 0
    hits: list[tuple[int, ...]] = []
    for adj in _iter_adj(n, owner):
        connected += 1
        if not _is_critical_fast(adj, n):
            continue
        critical += 1
        if edge_maximal:
            if not _is_edge_maximal_fast(adj, n):
                continue
            maximal += 1
        if collect:
            hits.append(adj)
    return connected, critical, maximal, hits


def _pool_worker(args) -> tuple[int, int, int, list[tuple[int, ...]]]:
    return _tally_shard(*args)


def run_enumeration(
    n: int,
    *,
    shards: int = 1,
    shard: int = 0,
    jobs: int = 1,
    edge_maximal: bool = False,
    collect: bool = False,
) -> tuple[EnumerationTally, "list[Graph] | None"]:
    """Count (and optionally collect) distance-critical graphs on n
    vertices; with edge_maximal also count/collect the edge-maximal ones.

    The collected list holds the critical graphs, or just the edge-maximal
    ones when edge_maximal is set, in deterministic order.
    """
    _check_args(n, shards, shard, jobs)
    t0 = time.perf_counter()
    if jobs == 1:
        parts = [_tally_shard(n, shards, shard, 1, 0, edge_maximal, collect)]
    else:
        ctx = get_context("fork")
        argv = [(n, shards, shard, jobs, j, edge_maximal, collect)
                for j in range(jobs)]
        with ctx.Pool(jobs) as pool:
            parts = pool.map(_pool_worker, argv)
    connected = sum(p[0] for p in parts)
    critical = sum(p[1] for p in parts)
    maximal = sum(p[2] for p in parts) if edge_maximal else None
    hits: "list[Graph] | None" = None
    if collect:
        hits = [Graph(n, adj, check=False) for p in parts for adj in p[3]]
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
