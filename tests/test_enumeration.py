"""Isomorph-free enumeration against census values and a dedup oracle."""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from distcrit import (
    Graph,
    canonical_form,
    count_distance_critical,
    count_edge_maximal,
    enumerate_connected,
    is_connected,
    iter_all_graphs,
    iter_connected,
    run_enumeration,
    tally_levels,
)
from distcrit.canon import _search
from distcrit.enumeration import MAX_ENUM_N, _child_cut_table, _subset_reps
from distcrit.graph import _articulation_mask
from distcrit.graph6 import encode_graph6
from conftest import augmentation_nodes, child_adjacencies

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CRITICAL_COUNTS = {1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 1, 7: 4, 8: 15}
MAXIMAL_COUNTS = {5: 1, 6: 1, 7: 2, 8: 4}


def subset_reps_dfs(k: int, gens) -> np.ndarray:
    """Least orbit members by a depth-first walk of each orbit, the
    implementation the numpy orbit table replaced."""
    size = 1 << k
    rep = np.zeros(size - 1, dtype=bool)
    seen = bytearray(size)
    for m in range(1, size):
        if seen[m]:
            continue
        rep[m - 1] = True
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

    def test_enumerate_connected_visitor(self):
        seen = []
        total = enumerate_connected(5, seen.append)
        assert total == 21 == len(seen)

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

    def test_child_cut_table_matches_tarjan(self):
        children = 0
        for k, (adj, _, cut_mask, _) in augmentation_nodes(7):
            table = _child_cut_table(adj, k, cut_mask).tolist()
            for s, child in child_adjacencies(adj, k):
                assert table[s - 1] == _articulation_mask(child, k + 1)
                children += 1
        assert children == 116146

    def test_subset_reps_match_orbit_dfs(self):
        checked = 0
        for k, (adj, cells, _, gens) in augmentation_nodes(8):
            if gens is None:
                gens = _search(adj, k)[3]
            if not gens:
                continue
            got = _subset_reps(k, gens)
            assert got.dtype == bool
            assert np.array_equal(got, subset_reps_dfs(k, gens))
            checked += 1
        assert checked == 8408


class TestCriticalTallies:
    def test_table_of_critical_counts(self):
        for n in range(1, 9):
            tally = count_distance_critical(n)
            assert tally.n == n
            assert tally.connected_count == CONNECTED_COUNTS[n]
            assert tally.critical_count == CRITICAL_COUNTS[n]
            assert tally.maximal_count is None

    def test_table_of_maximal_counts(self):
        for n in range(5, 9):
            tally = count_edge_maximal(n)
            assert tally.critical_count == CRITICAL_COUNTS[n]
            assert tally.maximal_count == MAXIMAL_COUNTS[n]

    def test_tally_levels_matches_per_level_runs(self):
        levels = tally_levels(8, edge_maximal=True)
        assert set(levels) == set(range(1, 9))
        for n, tally in levels.items():
            assert tally.connected_count == CONNECTED_COUNTS[n]
            assert tally.critical_count == CRITICAL_COUNTS[n]
            if n >= 5:
                assert tally.maximal_count == MAXIMAL_COUNTS.get(n, 0)

    def test_collected_hits_match_filter(self, criticals_by_n):
        for n in (5, 6, 7):
            tally, hits = run_enumeration(n, collect=True)
            assert hits is not None and len(hits) == tally.critical_count
            assert {canonical_form(g) for g in hits} == \
                {canonical_form(g) for g in criticals_by_n[n]}

    def test_json_shape(self):
        d = count_distance_critical(5).to_json_dict()
        assert d == {"n": 5, "connected_count": 21, "critical_count": 1,
                     "partition": [0, 1]}
        d = count_edge_maximal(5).to_json_dict()
        assert d["maximal_count"] == 1


class TestSharding:
    def test_shards_partition_the_space(self):
        full = [canonical_form(g) for g in iter_connected(7)]
        pieces: list[list] = []
        for shard in range(4):
            pieces.append(
                [canonical_form(g) for g in iter_connected(7, shards=4,
                                                           shard=shard)])
        merged = list(itertools.chain.from_iterable(pieces))
        assert len(merged) == len(full) == 853
        assert set(merged) == set(full)
        sizes = sorted(len(p) for p in pieces)
        assert sizes[0] > 0

    def test_sharded_tallies_sum(self):
        whole = count_edge_maximal(7)
        parts = [count_edge_maximal(7, shards=3, shard=s) for s in range(3)]
        assert sum(p.connected_count for p in parts) == whole.connected_count
        assert sum(p.critical_count for p in parts) == whole.critical_count
        assert sum(p.maximal_count for p in parts) == whole.maximal_count
        assert [p.partition for p in parts] == [(0, 3), (1, 3), (2, 3)]

    def test_jobs_parallel_equals_serial(self):
        serial = count_distance_critical(7)
        parallel = count_distance_critical(7, jobs=2)
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
            list(iter_connected(5, shards=2, shard=2))
        with pytest.raises(ValueError):
            list(iter_connected(5, shards=0))
        with pytest.raises(ValueError):
            run_enumeration(5, jobs=0)
        with pytest.raises(ValueError):
            list(iter_all_graphs(0))
