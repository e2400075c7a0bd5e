"""Lemma harness and the tree distance-determinant sanity suite."""

from __future__ import annotations

import hashlib
import inspect
import json
import random

import pytest

from distcrit import (
    Graph,
    LEMMA_IDS,
    all_pairs_distances,
    check_product_lemmas,
    disjoint_union,
    girth,
    graham_pollak_determinant,
    is_distance_critical,
    run_all_lemmas,
    run_lemma,
)
from distcrit import criticality, enumeration, verify
from distcrit.constructions import cycle
from distcrit.criticality import _girth_table
from distcrit.graph6 import encode_graph6
from distcrit.verify import pendant_deletion_check
from conftest import cofactor_determinant, prufer_tree

CHECKED_AT_7 = {
    "GIRTH": 4, "CYCLE5": 6, "NO_DOM": 6, "EDGE_ADD": 0, "DEG3": 1,
    "S_SIZE": 6, "DPSTAR": 125, "ANTICHAIN": 6, "MIN_EDGES": 9,
    "MAX_DEG": 5, "REG_BOUND": 6, "NONEDGE_S": 4, "T_CLIQUE": 4,
    "MAXL_CONN": 6,
}


def distance_matrix(g: Graph) -> list[list[int]]:
    rows = all_pairs_distances(g)
    return [list(r) for r in rows]


class TestLemmaHarness:
    def test_all_lemmas_pass_at_cap_7(self):
        checks = run_all_lemmas(7)
        assert [c.id for c in checks] == list(LEMMA_IDS)
        for c in checks:
            assert c.ok and c.violations == ()
        assert {c.id: c.checked for c in checks} == CHECKED_AT_7

    def test_each_lemma_alone_checks_the_same_instances(self):
        for lid, want in CHECKED_AT_7.items():
            check = run_lemma(lid, 7)
            assert check.ok and check.checked == want

    def test_one_sweep_feeds_every_lemma(self, monkeypatch):
        walks = []
        real = verify._iter_leaves

        def counting(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            walks.append(bound.arguments)
            return real(*args, **kwargs)

        expanded = []
        real_children = enumeration._child_states

        def counting_children(adj, k, *args):
            expanded.append(k)
            return real_children(adj, k, *args)

        monkeypatch.setattr(verify, "_iter_leaves", counting)
        monkeypatch.setattr(enumeration, "_child_states", counting_children)
        run_all_lemmas(7)
        # one walk over the orders 1..7, which expands every node on 1..5
        # vertices once, and opens only the 12 of the 112 nodes on 6
        # vertices that its alive sets or its keep admit
        assert [(w["n"], w["parts"], w["part"]) for w in walks] == \
            [(7, 1, 0)]
        assert [expanded.count(k) for k in range(1, 7)] == \
            [1, 1, 2, 6, 21, 12]
        assert len(expanded) == 43
        # the walk keeps the critical table or the girth > 4 one: on the
        # path P4 a new vertex on a single vertex or on {0, 3} leaves
        # girth > 4
        path = (0b10, 0b101, 0b1010, 0b100)
        wide = sum(1 << s for s in (0b1, 0b10, 0b100, 0b1000, 0b1001))
        assert _girth_table(path, 4) == wide
        keep = walks[0]["keep"]
        assert keep(path, 4, 0) == wide
        assert keep(path, 4, 1 << 0b110) == wide | 1 << 0b110

    def test_universe_is_the_filtered_full_walk(self, connected_by_n,
                                                monkeypatch):
        # critical-first leaves keep every catalog graph, in order
        uni = verify._Universe(8)
        girth5 = []
        for k in range(1, 9):
            assert uni.criticals[k] == [g for g in connected_by_n[k]
                                        if is_distance_critical(g)]
            girth5 += [g for g in connected_by_n[k] if g.min_degree() >= 2
                       and (girth(g) or 0) > 4]
        assert uni.girth5 == girth5 and len(girth5) == 9
        # GIRTH's graphs come from their own table, so a criticality table
        # that missed them could not hide a counterexample; every
        # criticality table is read from the pairless sets, and here the
        # new vertex never has a pair
        monkeypatch.setattr(enumeration, "_pairless_sets",
                            lambda adj, k: (-1, [0] * k))
        empty = verify._Universe(8)
        assert not any(empty.criticals.values())
        assert empty.girth5 == girth5

    def test_one_certificate_per_failed_instance(self, monkeypatch):
        # with every DPSTAR instance failing, each of its 125 instances
        # at cap 7 certifies its graph, so the 6 graphs repeat
        monkeypatch.setattr(verify, "determining_pairs_of",
                            lambda g, z: [(-1, -1)])
        check = run_lemma("DPSTAR", 7)
        assert check.checked == len(check.violations) == 125
        assert len(set(check.violations)) == 6

    def test_verdicts_come_from_the_pair_test(self, monkeypatch):
        # with no vertex ever finding a determining pair, every instance
        # whose verdict is "this graph is critical" must fail: no girth
        # test may stand in for the pairs
        monkeypatch.setattr(criticality, "_witness_for",
                            lambda adj, v, masks: None)
        checks = {lid: run_lemma(lid, 8)
                  for lid in ("GIRTH", "MIN_EDGES", "REG_BOUND")}
        assert {lid: (len(c.violations), c.checked)
                for lid, c in checks.items()} == {
            "GIRTH": (9, 9), "MIN_EDGES": (4, 25), "REG_BOUND": (4, 10)}
        # the failed witnesses of MIN_EDGES are the cycles C5 to C8
        assert checks["MIN_EDGES"].violations == tuple(
            encode_graph6(cycle(k)) for k in range(5, 9))

    def test_product_laws_json_is_pinned(self):
        # the hash was taken while the criticality test still had a
        # girth > 4 shortcut
        checks = check_product_lemmas(6)
        blob = json.dumps([c.to_json_dict() for c in checks], sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "0b0f62211a011f260f484acffbd35ca4c67d464f8644048c4935c24c7beb4c69")

    def test_product_laws_are_not_lemmas(self):
        assert not {"CARTESIAN", "TENSOR", "STRONG"} & set(LEMMA_IDS)
        with pytest.raises(ValueError):
            run_lemma("TENSOR", 6)

    def test_no_dominating_vertex_instance_count(self):
        # 21 distance-critical graphs exist up to 8 vertices
        check = run_lemma("NO_DOM", 8)
        assert check.ok and check.checked == 21

    def test_reports_are_deterministic(self):
        a = run_lemma("S_SIZE", 7).to_json_dict()
        b = run_lemma("S_SIZE", 7).to_json_dict()
        assert a == b

    def test_json_shape(self):
        d = run_lemma("MAX_DEG", 6).to_json_dict()
        assert set(d) == {"id", "universe", "checked", "violations", "ok"}
        assert d["ok"] is True and d["violations"] == []

    def test_validation(self):
        with pytest.raises(ValueError):
            run_lemma("NOT_A_LEMMA", 6)
        with pytest.raises(ValueError):
            run_lemma("GIRTH", 0)
        with pytest.raises(ValueError):
            run_lemma("GIRTH", 11)
        with pytest.raises(ValueError):
            run_all_lemmas(0)


class TestDistanceDeterminant:
    def test_all_trees_up_to_7_match_cofactor_oracle(self, connected_by_n):
        seen = 0
        for n in range(2, 8):
            for g in connected_by_n[n]:
                if g.edge_count() != n - 1:
                    continue
                seen += 1
                det = graham_pollak_determinant(g)
                assert det == cofactor_determinant(distance_matrix(g))
                assert det == -(n - 1) * (-2) ** (n - 2)
        assert seen == 1 + 1 + 2 + 3 + 6 + 11  # tree census for n = 2..7

    def test_random_trees_magnitude_and_sign(self):
        rng = random.Random(4242)
        for _ in range(100):
            n = rng.randint(2, 12)
            seq = [rng.randrange(n) for _ in range(n - 2)]
            g = prufer_tree(seq, n)
            det = graham_pollak_determinant(g)
            assert abs(det) == (n - 1) * 2 ** (n - 2)
            assert det == -(n - 1) * (-2) ** (n - 2)

    def test_star_value(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert graham_pollak_determinant(star) == -12

    def test_independent_of_labeling(self):
        rng = random.Random(77)
        base = prufer_tree([2, 3, 2, 5], 6)
        want = graham_pollak_determinant(base)
        for _ in range(10):
            perm = list(range(6))
            rng.shuffle(perm)
            relab = Graph.from_edges(
                6, [(perm[x], perm[y]) for x, y in base.edges()])
            assert graham_pollak_determinant(relab) == want

    def test_rejects_non_trees(self):
        with pytest.raises(ValueError):
            graham_pollak_determinant(cycle(5))
        forest = disjoint_union(Graph.from_edges(2, [(0, 1)]),
                                Graph.from_edges(2, [(0, 1)]))
        with pytest.raises(ValueError):
            graham_pollak_determinant(forest)
        with pytest.raises(ValueError):
            graham_pollak_determinant(Graph.empty(1))


class TestPendantDeletion:
    def test_holds_on_random_trees(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 10)
            seq = [rng.randrange(n) for _ in range(n - 2)]
            assert pendant_deletion_check(prufer_tree(seq, n))

    def test_paths_and_stars(self):
        path = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
        star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
        assert pendant_deletion_check(path)
        assert pendant_deletion_check(star)
