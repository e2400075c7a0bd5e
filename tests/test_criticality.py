"""Criticality decisions: witness method vs deletion method, and reports."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from distcrit import (
    Graph,
    all_pairs_distances,
    common_neighbors,
    determining_pairs_of,
    disjoint_union,
    involved_set,
    is_distance_critical,
    is_distance_critical_direct,
    is_distance_critical_pairs,
    is_connected,
    is_edge_maximal_critical,
    pendant_deletion_check,
)
from distcrit.constructions import cycle
from distcrit import criticality
from distcrit.graph import UNREACHABLE, _bfs_row
from distcrit.criticality import (
    _deletion_changes_distances,
    _extension_table,
    _girth_exceeds_4,
    _girth_table,
    _is_critical_fast,
)
from conftest import augmentation_nodes, child_adjacencies, random_graph


def deletion_changes_some_distance(g: Graph, v: int) -> bool:
    """Spell out the definition with explicit index bookkeeping."""
    before = all_pairs_distances(g)
    after = all_pairs_distances(g.delete_vertex(v))
    keep = [u for u in range(g.n) if u != v]
    return any(
        before[keep[i]][keep[j]] != after[i][j]
        for i in range(len(keep)) for j in range(i + 1, len(keep)))


class TestTwoMethodsAgree:
    def test_all_graphs_up_to_6(self, all_graphs_by_n):
        for n in range(1, 7):
            for g in all_graphs_by_n[n]:
                assert is_distance_critical_pairs(g).verdict == \
                    is_distance_critical_direct(g)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 10 ** 9))
    def test_random_graphs(self, n, seed):
        g = random_graph(n, 0.45, random.Random(seed))
        assert is_distance_critical_pairs(g).verdict == \
            is_distance_critical_direct(g)

    def test_fast_path_matches(self, connected_by_n):
        for n in range(1, 8):
            for g in connected_by_n[n]:
                assert is_distance_critical(g) == \
                    is_distance_critical_pairs(g).verdict


class TestDefinition:
    def test_direct_method_spells_out_definition(self):
        rng = random.Random(321)
        for _ in range(80):
            g = random_graph(rng.randint(2, 7), 0.5, rng)
            want = all(deletion_changes_some_distance(g, v) for v in range(g.n))
            assert is_distance_critical_direct(g) == want

    def test_small_conventions(self):
        assert not is_distance_critical(Graph.empty(1))
        assert not is_distance_critical(Graph.from_edges(2, [(0, 1)]))
        assert not is_distance_critical(Graph.empty(2))

    def test_known_graphs(self, petersen, dodecahedron, antipodal_c8):
        assert is_distance_critical(cycle(5))
        assert is_distance_critical(cycle(8))
        assert not is_distance_critical(cycle(4))
        assert not is_distance_critical(cycle(3))
        k5 = Graph.from_edges(5, [(i, j) for i in range(5)
                                  for j in range(i + 1, 5)])
        assert not is_distance_critical(k5)
        assert is_distance_critical(petersen)
        assert is_distance_critical(dodecahedron)
        assert is_distance_critical(antipodal_c8)

    def test_disconnected_graphs(self):
        two_c5 = disjoint_union(cycle(5), cycle(5))
        assert is_distance_critical(two_c5)
        c5_plus_isolated = disjoint_union(cycle(5), Graph.empty(1))
        assert not is_distance_critical(c5_plus_isolated)
        c5_plus_k3 = disjoint_union(cycle(5), cycle(3))
        assert not is_distance_critical(c5_plus_k3)


def first_changed_row(g: Graph, v: int) -> "int | None":
    """The least vertex of g - v whose distance row differs from its row
    in g (both without v), or None."""
    before = all_pairs_distances(g)
    after = all_pairs_distances(g.delete_vertex(v))
    keep = [u for u in range(g.n) if u != v]
    for i, row in enumerate(after):
        if any(before[keep[i]][keep[j]] != d for j, d in enumerate(row)):
            return i
    return None


def random_tree(n: int, rng: random.Random) -> Graph:
    """Each vertex joins a random earlier one, then labels are shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(
        n, [(perm[i], perm[rng.randrange(i)]) for i in range(1, n)])


class TestDirectMethod:
    """The direct method stops at the first changed row of g - v; every
    deletion verdict against the definition spelled out above."""

    @staticmethod
    def assert_agrees(g: Graph) -> list:
        """Check every deletion of g; return the first changed rows."""
        base = all_pairs_distances(g)
        firsts = []
        for v in range(g.n):
            want = deletion_changes_some_distance(g, v)
            assert _deletion_changes_distances(g, base, v) == want
            first = first_changed_row(g, v)
            assert (first is not None) == want
            firsts.append(first)
        assert is_distance_critical_direct(g) == \
            (g.n > 0 and None not in firsts)
        return firsts

    def test_disconnected_graphs(self):
        rng = random.Random(29)
        graphs = [disjoint_union(cycle(5), Graph.empty(1)),
                  disjoint_union(Graph.empty(2), cycle(6)),
                  disjoint_union(cycle(5), cycle(3)),
                  disjoint_union(cycle(5), cycle(5))]
        graphs += [random_graph(rng.randint(2, 9), 0.2, rng)
                   for _ in range(60)]
        disconnected = 0
        for g in graphs:
            if any(UNREACHABLE in row for row in all_pairs_distances(g)):
                disconnected += 1
            self.assert_agrees(g)
        assert disconnected >= 50

    def test_only_rows_of_the_deleted_component_are_computed(
            self, monkeypatch):
        # in C5 + C5 + K1, deleting a vertex of the second cycle computes
        # rows of that cycle only, and deleting the isolated vertex none
        g = disjoint_union(disjoint_union(cycle(5), cycle(5)),
                           Graph.empty(1))
        base = all_pairs_distances(g)
        sources = []

        def recording_bfs_row(adj, n, src):
            sources.append(src)
            return _bfs_row(adj, n, src)

        monkeypatch.setattr(criticality, "_bfs_row", recording_bfs_row)
        for v in range(5, 10):
            sources.clear()
            assert _deletion_changes_distances(g, base, v)
            assert sources and all(5 <= s < 9 for s in sources)
        sources.clear()
        assert not _deletion_changes_distances(g, base, 10)
        assert sources == []

    def test_first_changed_row_past_row_0(self, petersen):
        # in C5 + C5 no row of the first cycle changes when a vertex of
        # the second is deleted; in C8 deleting the antipode of 0 leaves
        # row 0 as it was
        firsts = self.assert_agrees(disjoint_union(cycle(5), cycle(5)))
        assert all(first >= 5 for first in firsts[5:])
        assert self.assert_agrees(cycle(8))[4] == 2
        rng = random.Random(31)
        late = 0
        for g in [petersen, disjoint_union(cycle(6), cycle(5))] + [
                random_graph(rng.randint(4, 9), 0.4, rng)
                for _ in range(40)]:
            late += sum(1 for f in self.assert_agrees(g) if f)
        assert late >= 20

    def test_pendant_deletion_trees(self):
        rng = random.Random(37)
        trees = [Graph.from_edges(5, [(i, i + 1) for i in range(4)]),
                 Graph.from_edges(6, [(0, i) for i in range(1, 6)])]
        trees += [random_tree(rng.randint(2, 12), rng) for _ in range(40)]
        for t in trees:
            firsts = self.assert_agrees(t)
            # a leaf deletion changes nothing, any other one disconnects
            assert [f is None for f in firsts] == \
                [t.degree(v) == 1 for v in range(t.n)]
            assert pendant_deletion_check(t)

    def test_long_cycle(self):
        assert is_distance_critical_direct(cycle(512))


class TestWitnesses:
    def test_report_witnesses_are_sound(self, criticals_by_n):
        for n in range(5, 8):
            for g in criticals_by_n[n]:
                rep = is_distance_critical_pairs(g)
                assert rep.verdict and rep.n == n and rep.method == "pairs"
                assert len(rep.witnesses) == n
                for v, pair in enumerate(rep.witnesses):
                    assert pair is not None
                    a, b = pair
                    assert not g.has_edge(a, b) and a != b
                    assert common_neighbors(g, a, b) == (v,)

    def test_determining_pairs_of_is_complete(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_graph(rng.randint(2, 7), 0.5, rng)
            for v in range(g.n):
                pairs = set(determining_pairs_of(g, v))
                nbrs = g.neighbors(v)
                want = set()
                for i, a in enumerate(nbrs):
                    for b in nbrs[i + 1:]:
                        if not g.has_edge(a, b) and \
                                common_neighbors(g, a, b) == (v,):
                            want.add((a, b))
                assert pairs == want

    def test_pair_scan_against_oracle(self, all_graphs_by_n):
        # Oracle: every nonadjacent pair with exactly one common neighbor,
        # found by testing each third vertex; pairs come in lex order.
        for n in range(1, 8):
            for g in all_graphs_by_n[n]:
                pairs: dict[int, list] = {v: [] for v in range(n)}
                for a in range(n):
                    for b in range(a + 1, n):
                        if g.has_edge(a, b):
                            continue
                        common = [c for c in range(n)
                                  if g.has_edge(a, c) and g.has_edge(b, c)]
                        if len(common) == 1:
                            pairs[common[0]].append((a, b))
                rep = is_distance_critical_pairs(g)
                assert rep.witnesses == tuple(
                    p[0] if p else None for p in pairs.values())
                involved = {x for p in pairs.values() for ab in p for x in ab}
                assert rep.involved == involved_set(g) == \
                    tuple(sorted(involved))
                for v in range(n):
                    assert determining_pairs_of(g, v) == pairs[v]

    def test_involved_set_on_cycles(self):
        assert involved_set(cycle(5)) == (0, 1, 2, 3, 4)
        assert involved_set(cycle(8)) == tuple(range(8))

    def test_report_json_shape(self):
        d = is_distance_critical_pairs(cycle(5)).to_json_dict()
        assert set(d) == {"n", "critical", "method", "witnesses", "involved"}
        assert d["critical"] is True and d["n"] == 5
        assert all(len(w) == 3 for w in d["witnesses"])


class TestEdgeMaximal:
    def test_rejects_non_critical_input(self):
        with pytest.raises(ValueError):
            is_edge_maximal_critical(cycle(4))

    def test_matches_brute_force_definition(self, criticals_by_n):
        for n in range(5, 8):
            for g in criticals_by_n[n]:
                want = not any(
                    is_distance_critical(g.add_edge(x, y))
                    for x, y in g.non_edges())
                assert is_edge_maximal_critical(g) == want

    def test_known_values(self, antipodal_c8):
        assert is_edge_maximal_critical(cycle(5))
        assert is_edge_maximal_critical(antipodal_c8)
        assert not is_edge_maximal_critical(cycle(8))


class TestExtensionTables:
    """The per-parent tables against the per-child predicates they
    replace, on every child of every connected graph up to 7 vertices."""

    def test_tables_match_the_child_predicates(self):
        children = critical = short_free = 0
        for k, (adj, _) in augmentation_nodes(7):
            crit = _extension_table(adj, k)
            free = _girth_table(adj, k)
            assert crit >> (1 << k) == free >> (1 << k) == 0
            assert not crit & 1 and not free & 1
            for s, child in child_adjacencies(adj, k):
                want = _is_critical_fast(child, k + 1)
                assert crit >> s & 1 == want
                assert free >> s & 1 == _girth_exceeds_4(child, k + 1)
                children += 1
                critical += want
                short_free += free >> s & 1
        # counted over all (parent, S) pairs, so one class is met many
        # times
        assert (children, critical, short_free) == (116146, 91, 367)

    def test_tables_on_ten_vertex_parents(self, petersen):
        # the largest parents the enumeration builds tables for (n = 11)
        rng = random.Random(2011)
        parents = [petersen, cycle(10)]
        while len(parents) < 60:
            g = random_graph(10, rng.choice((0.2, 0.3, 0.45)), rng)
            if is_connected(g):
                parents.append(g)
        critical = 0
        for g in parents:
            crit = _extension_table(g.adj, 10)
            free = _girth_table(g.adj, 10)
            for s, child in child_adjacencies(g.adj, 10):
                assert crit >> s & 1 == _is_critical_fast(child, 11)
                assert free >> s & 1 == _girth_exceeds_4(child, 11)
            critical += crit.bit_count()
        assert critical > 0
        # Petersen has girth 5 and diameter 2: no new vertex has a pair at
        # distance 3, and only a pendant keeps the girth above 4
        assert _extension_table(petersen.adj, 10) == 0
        assert _girth_table(petersen.adj, 10) == \
            sum(1 << (1 << v) for v in range(10))
