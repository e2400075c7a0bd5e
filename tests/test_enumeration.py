"""Isomorph-free enumeration against census values and a dedup oracle."""

from __future__ import annotations

import hashlib
import itertools

import pytest

from distcrit import (
    Graph,
    canonical_form,
    is_connected,
    iter_all_graphs,
    iter_connected,
    run_enumeration,
)
from distcrit import enumeration
from distcrit.canon import _automorphism_taking, _search, refine
from distcrit.criticality import (
    _extension_table,
    _is_critical_fast,
    _is_edge_maximal_fast,
)
from distcrit.enumeration import (
    MAX_ENUM_N,
    _child_states,
    _cut_sets,
    _degree_sets,
    _iter_adj,
    _subset_reps,
)
from distcrit.graph import _articulation_mask, bits
from distcrit.graph6 import encode_graph6
from conftest import augmentation_nodes, child_adjacencies

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CRITICAL_COUNTS = {1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 1, 7: 4, 8: 15}
MAXIMAL_COUNTS = {5: 1, 6: 1, 7: 2, 8: 4}


def subset_reps_dfs(k: int, gens) -> int:
    """Least orbit members by a depth-first walk of each orbit, the
    implementation the numpy orbit table replaced; bit S set iff S is
    the least of its orbit."""
    size = 1 << k
    rep = 0
    seen = bytearray(size)
    for m in range(1, size):
        if seen[m]:
            continue
        rep |= 1 << m
        stack = [m]
        seen[m] = 1
        while stack:
            x = stack.pop()
            for g in gens:
                y = 0
                xx = x
                while xx:
                    low = xx & -xx
                    y |= 1 << g[low.bit_length() - 1]
                    xx ^= low
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return rep


def brute_connected_forms(n: int) -> set:
    """Canonical forms of connected graphs via exhaustive labeled dedup."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    forms = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            forms.add(canonical_form(g))
    return forms


class TestConnectedCensus:
    def test_counts_match_catalog(self, connected_by_n):
        for n, want in CONNECTED_COUNTS.items():
            assert len(connected_by_n[n]) == want

    def test_visits_are_isomorph_free_and_complete(self, connected_by_n):
        for n in range(1, 8):
            forms = {canonical_form(g) for g in connected_by_n[n]}
            assert len(forms) == CONNECTED_COUNTS[n]
            assert all(is_connected(g) for g in connected_by_n[n])
            assert all(g.n == n for g in connected_by_n[n])

    def test_against_labeled_brute_force(self, connected_by_n):
        for n in range(1, 7):
            assert {canonical_form(g) for g in connected_by_n[n]} == \
                brute_connected_forms(n)

    def test_visit_order_is_deterministic(self):
        first = [canonical_form(g) for g in iter_connected(6)]
        second = [canonical_form(g) for g in iter_connected(6)]
        assert first == second

    def test_graph6_output_is_pinned(self):
        # graph6 lines of every class on 7 and then 8 vertices, in
        # generation order; the hash was taken before the child cut table,
        # inert splitters and numpy orbit table went in
        digest = hashlib.sha256()
        for n in (7, 8):
            for g in iter_connected(n):
                digest.update(encode_graph6(g).encode() + b"\n")
        assert digest.hexdigest() == (
            "5bdebe7a10afd84a7f9df64401f9df8091f672205dd07fa31ae7055ae1efed12")


class TestAugmentationSteps:
    """Each fast step of the child test against the code it replaced."""

    def test_child_cut_sets_match_tarjan(self):
        children = 0
        for k, (adj, cut_mask) in augmentation_nodes(7):
            # the cut mask each node carries, from its parent's cut sets
            assert cut_mask == _articulation_mask(adj, k)
            cuts = _cut_sets(adj, k, cut_mask)
            assert len(cuts) == k
            assert all(not c & 1 and not c >> (1 << k) for c in cuts)
            for s, child in child_adjacencies(adj, k):
                got = sum(1 << u for u, c in enumerate(cuts) if c >> s & 1)
                assert got == _articulation_mask(child, k + 1)
                children += 1
        assert children == 116146

    def test_degree_sets_match_child_degrees(self):
        # ok: |S| is at least the child degree of every parent vertex that
        # is not a cut vertex of the child; lead: strictly above all of them
        children = oks = leads = 0
        for k, (adj, cut_mask) in augmentation_nodes(7):
            ok, lead = _degree_sets(adj, k, _cut_sets(adj, k, cut_mask))
            assert not (ok | lead) & 1 and not (ok | lead) >> (1 << k)
            for s, child in child_adjacencies(adj, k):
                cut = _articulation_mask(child, k + 1)
                need = max((child[u].bit_count() for u in range(k)
                            if not cut >> u & 1), default=0)
                assert ok >> s & 1 == (s.bit_count() >= need)
                assert lead >> s & 1 == (s.bit_count() > need)
                children += 1
                oks += ok >> s & 1
                leads += lead >> s & 1
        assert children == 116146
        assert 0 < leads < oks < children

    def test_subset_reps_match_orbit_dfs(self):
        checked = 0
        for k, (adj, _) in augmentation_nodes(8):
            gens = _search(adj, k)[3]
            if not gens:
                continue
            got = _subset_reps(k, gens)
            assert isinstance(got, int)
            assert got == subset_reps_dfs(k, gens)
            checked += 1
        assert checked == 8408


def parent_state(adj: tuple[int, ...]):
    """The augmentation node for the connected graph adj."""
    return adj, _articulation_mask(adj, len(adj))


def children_by_path(monkeypatch, state, k: int) -> dict:
    """Candidate child adjacency -> (how rule (b) was decided, accepted),
    for every candidate that passed rule (a) and the degree filter.  The
    paths are "lead" (no refine call), "early" (refine stopped early),
    and at a stable partition "twin" (no search of any kind),
    "automorphism" (an automorphism search but no canonical search) or
    "fallback" (the canonical search)."""
    stopped: dict[tuple[int, ...], bool] = {}
    automorphism_searched: set[tuple[int, ...]] = set()
    searched: set[tuple[int, ...]] = set()

    def recording_refine(adj, cells, abort=None):
        out = refine(adj, cells, abort)
        stopped[tuple(adj)] = out is None
        return out

    def recording_automorphism(adj, n, stable, w, u):
        automorphism_searched.add(adj)
        return _automorphism_taking(adj, n, stable, w, u)

    def recording_search(adj, n, stable=None):
        searched.add(adj)
        return _search(adj, n, stable)

    monkeypatch.setattr(enumeration, "refine", recording_refine)
    monkeypatch.setattr(enumeration, "_automorphism_taking",
                        recording_automorphism)
    monkeypatch.setattr(enumeration, "_search", recording_search)
    accepted = [child[0] for child in _child_states(state, k)]
    monkeypatch.undo()
    paths = {}
    # the parent is refined (and searched) when it is expanded
    for child_adj in accepted + [a for a in stopped if len(a) == k + 1]:
        if child_adj not in stopped:
            path = "lead"
        elif stopped[child_adj]:
            path = "early"
        elif child_adj in searched:
            path = "fallback"
        elif child_adj in automorphism_searched:
            path = "automorphism"
        else:
            path = "twin"
        paths[child_adj] = path, child_adj in accepted
    return paths


def least_in_orbit(s: int, gens) -> bool:
    """Rule (a): s is the least subset in its orbit, by an orbit walk."""
    seen = {s}
    stack = [s]
    while stack:
        x = stack.pop()
        for g in gens:
            y = sum(1 << g[v] for v in bits(x))
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return min(seen) == s


def new_vertex_comes_last(child: list[int], k: int) -> bool:
    """Rule (b): the new vertex k is in the orbit of the last non-cut
    vertex of the child's canonical labeling."""
    cut = _articulation_mask(child, k + 1)
    _, lab, orep, _ = _search(tuple(child), k + 1)
    last = next(v for v in reversed(lab) if not cut >> v & 1)
    return orep[last] == orep[k]


class TestLeafDecision:
    """Rule (b) is decided as soon as its verdict is known, at every level;
    the accepted children and their order are those of the definition."""

    def test_children_match_the_definition(self):
        candidates = accepts = 0
        for k, state in augmentation_nodes(6):
            adj = state[0]
            gens = _search(adj, k)[3]
            want = [tuple(child) for s, child in child_adjacencies(adj, k)
                    if least_in_orbit(s, gens)
                    and new_vertex_comes_last(child, k)]
            got = list(_child_states(state, k))
            assert [child[0] for child in got] == want
            candidates += (1 << k) - 1
            accepts += len(want)
        assert candidates == 7815
        assert accepts == sum(CONNECTED_COUNTS[n] for n in range(2, 8)) == 995

    @staticmethod
    def child_path(monkeypatch, adj: tuple[int, ...], s: int):
        """(path, accepted) of the child of parent adj with neighbourhood
        s, and that child's adjacency."""
        paths = children_by_path(monkeypatch, parent_state(adj), len(adj))
        child = next(a for a in paths if a[-1] == s)
        return paths[child], child

    def test_strict_degree_lead(self, monkeypatch):
        # star K1,4 with centre 0 and S = {1, 2, 3}: the centre stays a cut
        # vertex, and |S| = 3 beats the child degree 2 of every leaf
        path, _ = self.child_path(monkeypatch, (0b11110, 1, 1, 1, 1), 0b01110)
        assert path == ("lead", True)

    def test_early_accept(self, monkeypatch):
        # star K1,3 with centre 0 and S = {1}: the new vertex ties the
        # leaves 2 and 3 on degree, and the first split, by vertex 1, leaves
        # it alone in the last deletable cell
        path, _ = self.child_path(monkeypatch, (0b1110, 1, 1, 1), 0b0010)
        assert path == ("early", True)

    def test_twin_accept(self, monkeypatch):
        # edge 01 and S = {0}: the path 1-0-2 is already equitable, and its
        # last deletable cell {1, 2} holds twins
        path, _ = self.child_path(monkeypatch, (0b10, 0b01), 0b01)
        assert path == ("twin", True)

    def test_automorphism_accept(self, monkeypatch):
        # path 1-0-2 and S = {1}: in the path 2-0-1-3 the ends 2 and 3 are
        # not twins, but the reversal of the path swaps them
        path, _ = self.child_path(monkeypatch, (0b110, 1, 1), 0b010)
        assert path == ("automorphism", True)

    def test_fallback_accept(self, monkeypatch):
        # the child is the complement of C3 + C4 (triangle 123, 4-cycle
        # 0-4-5-6), 4-regular, so its stable partition is one cell; the
        # new vertex 6 has no automorphism to the triangle, and the
        # canonical labeling ends on a vertex of its own 4-cycle orbit
        path, child = self.child_path(
            monkeypatch, (46, 49, 49, 49, 14, 15), 0b11110)
        assert path == ("fallback", True)
        assert new_vertex_comes_last(list(child), 6)

    def test_fallback_reject(self, monkeypatch):
        # triangles 025 and 146 on the edge 01, and the new vertex 7 on the
        # path 0-3-7-1: refinement leaves the six degree-2 vertices in one
        # cell, none of the triangle vertices is automorphic to 7, and the
        # canonical labeling ends on a triangle vertex
        path, child = self.child_path(
            monkeypatch, (46, 81, 33, 1, 66, 5, 18), 0b1010)
        assert path == ("fallback", False)
        assert not new_vertex_comes_last(list(child), 7)


class TestCriticalTallies:
    def test_table_of_critical_counts(self):
        for n in range(1, 9):
            tally = run_enumeration(n)[0]
            assert tally.n == n
            assert tally.connected_count == CONNECTED_COUNTS[n]
            assert tally.critical_count == CRITICAL_COUNTS[n]
            assert tally.maximal_count is None

    def test_table_of_maximal_counts(self):
        for n in range(1, 9):
            tally = run_enumeration(n, edge_maximal=True)[0]
            assert tally.connected_count == CONNECTED_COUNTS[n]
            assert tally.critical_count == CRITICAL_COUNTS[n]
            assert tally.maximal_count == MAXIMAL_COUNTS.get(n, 0)

    def test_collected_hits_match_filter(self, connected_by_n):
        # the verdicts read from the parents' tables, in generation order
        for n in range(1, 9):
            crit = [g for g in connected_by_n[n] if _is_critical_fast(g.adj, n)]
            tally, hits = run_enumeration(n, collect=True)
            assert hits == crit and tally.critical_count == len(crit)
            maximal = [g for g in crit if _is_edge_maximal_fast(g.adj, n)]
            tally, hits = run_enumeration(n, edge_maximal=True, collect=True)
            assert hits == maximal and tally.maximal_count == len(maximal)

    def test_json_shape(self):
        d = run_enumeration(5)[0].to_json_dict()
        assert d == {"n": 5, "connected_count": 21, "critical_count": 1,
                     "partition": [0, 1]}
        d = run_enumeration(5, edge_maximal=True)[0].to_json_dict()
        assert d["maximal_count"] == 1
        tally = run_enumeration(5, critical_only=True)[0]
        assert tally.connected_count is None
        assert tally.to_json_dict() == {"n": 5, "critical_count": 1,
                                        "partition": [0, 1]}


class TestCriticalFirst:
    """Candidates filtered by the per-parent criticality table before
    rules (a) and (b): the critical graphs of the full run, in order."""

    def test_stream_is_the_filtered_full_stream(self, connected_by_n):
        for n in range(2, 9):
            want = [g.adj for g in connected_by_n[n]
                    if _is_critical_fast(g.adj, n)]
            assert list(_iter_adj(n, keep=_extension_table)) == want
        for n in range(1, 9):
            full, hits = run_enumeration(n, edge_maximal=True, collect=True)
            fast, fast_hits = run_enumeration(n, edge_maximal=True,
                                              collect=True,
                                              critical_only=True)
            assert (fast.critical_count, fast.maximal_count) == \
                (full.critical_count, full.maximal_count)
            assert fast_hits == hits

    def test_shards_and_jobs_permute_the_serial_hits(self):
        serial = run_enumeration(8, collect=True, critical_only=True)[1]
        assert len(serial) == CRITICAL_COUNTS[8]
        shards = [run_enumeration(8, shards=3, shard=s, collect=True,
                                  critical_only=True)
                  for s in range(3)]
        assert sum(t.critical_count for t, _ in shards) == len(serial)
        assert all(t.connected_count is None for t, _ in shards)
        for hits in ([g for _, gs in shards for g in gs],
                     run_enumeration(8, jobs=2, collect=True,
                                     critical_only=True)[1]):
            assert sorted(g.adj for g in hits) == \
                sorted(g.adj for g in serial)

    def test_empty_table_skips_the_parent(self, monkeypatch):
        # a parent with no critical child is never refined, searched or
        # given cut sets
        def unreachable(*args, **kwargs):
            raise AssertionError("an empty table reached the child test")

        empty = [(k, state) for k, state in augmentation_nodes(7)
                 if not _extension_table(state[0], k)]
        for name in ("refine", "_search", "_cut_sets"):
            monkeypatch.setattr(enumeration, name, unreachable)
        for k, state in empty:
            table = _extension_table(state[0], k)
            assert list(_child_states(state, k, table)) == []
        # 960 of the 996 connected graphs on up to 7 vertices
        assert len(empty) == 960


class TestSharding:
    def test_shards_partition_the_space(self):
        # frontier node f goes to shard f mod shards, and within it to job
        # (f div shards) mod jobs, as in run_enumeration
        full = list(_iter_adj(7))
        assert len(full) == 853
        for shards, jobs in ((4, 1), (2, 2)):
            pieces = [
                list(_iter_adj(7, lambda f: (
                    f % shards == shard and (f // shards) % jobs == job)))
                for shard in range(shards) for job in range(jobs)]
            assert len(pieces) == 4
            assert all(pieces)
            merged = list(itertools.chain.from_iterable(pieces))
            assert sorted(merged) == sorted(full)

    def test_sharded_tallies_sum(self):
        whole = run_enumeration(7, edge_maximal=True)[0]
        parts = [run_enumeration(7, shards=3, shard=s, edge_maximal=True)[0]
                 for s in range(3)]
        assert sum(p.connected_count for p in parts) == whole.connected_count
        assert sum(p.critical_count for p in parts) == whole.critical_count
        assert sum(p.maximal_count for p in parts) == whole.maximal_count
        assert [p.partition for p in parts] == [(0, 3), (1, 3), (2, 3)]

    def test_jobs_parallel_equals_serial(self):
        serial = run_enumeration(7)[0]
        parallel = run_enumeration(7, jobs=2)[0]
        assert (serial.connected_count, serial.critical_count) == \
            (parallel.connected_count, parallel.critical_count)


class TestAllGraphs:
    def test_counts_include_disconnected(self, all_graphs_by_n):
        for n, want in ALL_COUNTS.items():
            assert len(all_graphs_by_n[n]) == want

    def test_isomorph_free(self, all_graphs_by_n):
        for n in range(1, 8):
            forms = {canonical_form(g) for g in all_graphs_by_n[n]}
            assert len(forms) == ALL_COUNTS[n]


class TestValidation:
    def test_argument_errors(self):
        with pytest.raises(ValueError):
            list(iter_connected(0))
        with pytest.raises(ValueError):
            list(iter_connected(MAX_ENUM_N + 1))
        with pytest.raises(ValueError):
            run_enumeration(5, shards=2, shard=2)
        with pytest.raises(ValueError):
            run_enumeration(5, shards=0)
        with pytest.raises(ValueError):
            run_enumeration(5, jobs=0)
        with pytest.raises(ValueError):
            list(iter_all_graphs(0))
