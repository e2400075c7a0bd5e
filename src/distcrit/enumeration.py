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
is at least the child degree of every deletable parent vertex.  Then the
equitable partition is refined with an abort hook that rejects as soon as
some deletable vertex is forced after the new vertex in cell order, and
when the last deletable cell of the stable partition is the new vertex
alone, acceptance follows without computing a canonical form at all.

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

from .canon import _search, degree_cells, refine
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


# A node of the augmentation tree: adjacency rows, stable equitable cells,
# cut-vertex mask, and automorphism generators (None = not yet computed,
# [] = known trivial).
_State = tuple[tuple[int, ...], list[int], int, "list[tuple[int, ...]] | None"]

_ROOT: _State = ((0,), [1], 0, [])


def _child_states(state: _State, k: int) -> Iterator[_State]:
    adj, cells, cut_mask, gens = state
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

    if gens is None:
        if all(c & (c - 1) == 0 for c in cells):
            gens = []
        else:
            gens = _search(adj, k)[3]
    if gens:
        # Subset-orbit pruning is exact after the degree filter because
        # automorphisms preserve popcount, degrees and cut vertices.
        ok &= _subset_reps(k, gens)

    newbit = 1 << k
    nch = k + 1
    cfull = (1 << nch) - 1
    kn_box = [0]

    def aborted(cs: list[int]) -> bool:
        kn = kn_box[0]
        after = False
        for cell in cs:
            if after and cell & kn:
                return True
            if cell & newbit:
                after = True
        return False

    for s, ccut_s in zip(masks[ok].tolist(), ccut[ok].tolist()):
        child_adj = list(adj)
        m = s
        while m:
            low = m & -m
            child_adj[low.bit_length() - 1] |= newbit
            m ^= low
        child_adj.append(s)
        cnon = cfull & ~ccut_s
        kn_box[0] = cnon

        stable = refine(child_adj, degree_cells(child_adj, nch), aborted)
        if stable is None:
            continue
        last = 0
        for cell in reversed(stable):
            if cell & cnon:
                last = cell
                break
        if not last & newbit:
            continue
        child_gens: list[tuple[int, ...]] | None
        if last & cnon == newbit:
            # Orbits refine stable cells, and the canonically last
            # deletable vertex lives in the last deletable cell; if that
            # is the new vertex alone, rule (b) holds outright.
            child_gens = [] if all(c & (c - 1) == 0 for c in stable) else None
        else:
            _, lab, orep, child_gens = _search(tuple(child_adj), nch)
            wstar = -1
            for i in range(nch - 1, -1, -1):
                if cnon >> lab[i] & 1:
                    wstar = lab[i]
                    break
            if orep[wstar] != orep[k]:
                continue
        yield tuple(child_adj), stable, ccut_s, child_gens


def _iter_adj(
    n: int,
    owner: "Callable[[int], bool] | None" = None,
    all_levels: bool = False,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (k, adjacency) for accepted nodes, at level n only unless
    all_levels is set.  owner gates the frontier at level max(1, n - 2)."""
    frontier = max(1, n - 2)
    counter = 0

    def rec(state: _State, k: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        nonlocal counter
        if owner is not None and k == frontier:
            idx = counter
            counter += 1
            if not owner(idx):
                return
        if all_levels or k == n:
            yield k, state[0]
        if k == n:
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


def iter_connected(n: int, *, shards: int = 1, shard: int = 0) -> Iterator[Graph]:
    """All connected graphs on n vertices, one per isomorphism class."""
    _check_args(n, shards, shard)
    owner = None if shards == 1 else (lambda f: f % shards == shard)
    for _, adj in _iter_adj(n, owner):
        yield Graph(n, adj, check=False)


def enumerate_connected(
    n: int,
    visitor: Callable[[Graph], None],
    *,
    shards: int = 1,
    shard: int = 0,
) -> int:
    """Feed every connected class on n vertices to visitor (serially, in
    deterministic order); returns the number of graphs visited."""
    count = 0
    for g in iter_connected(n, shards=shards, shard=shard):
        visitor(g)
        count += 1
    return count


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
    for _, adj in _iter_adj(n, owner):
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


def count_distance_critical(
    n: int, *, shards: int = 1, shard: int = 0, jobs: int = 1
) -> EnumerationTally:
    """Tally of connected and distance-critical classes on n vertices."""
    tally, _ = run_enumeration(n, shards=shards, shard=shard, jobs=jobs)
    return tally


def count_edge_maximal(
    n: int, *, shards: int = 1, shard: int = 0, jobs: int = 1
) -> EnumerationTally:
    """Like count_distance_critical, also tallying edge-maximal criticals
    (critical graphs where adding any missing edge breaks criticality)."""
    tally, _ = run_enumeration(
        n, shards=shards, shard=shard, jobs=jobs, edge_maximal=True
    )
    return tally


def tally_levels(n: int, *, edge_maximal: bool = False) -> dict[int, EnumerationTally]:
    """Single unsharded sweep tallying every level 1..n at once."""
    _check_args(n, 1, 0)
    t0 = time.perf_counter()
    counts = {k: [0, 0, 0] for k in range(1, n + 1)}
    for k, adj in _iter_adj(n, None, all_levels=True):
        row = counts[k]
        row[0] += 1
        if _is_critical_fast(adj, k):
            row[1] += 1
            if edge_maximal and _is_edge_maximal_fast(adj, k):
                row[2] += 1
    elapsed = time.perf_counter() - t0
    return {
        k: EnumerationTally(
            n=k,
            connected_count=row[0],
            critical_count=row[1],
            maximal_count=row[2] if edge_maximal else None,
            partition=(0, 1),
            elapsed=elapsed,
        )
        for k, row in counts.items()
    }


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
    if not 1 <= n <= MAX_ENUM_N:
        raise ValueError(f"n must be in 1..{MAX_ENUM_N}")
    catalogs = {k: list(iter_connected(k)) for k in range(1, n + 1)}
    return _iter_unions(catalogs, n)
