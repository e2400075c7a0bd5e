"""Criticality decisions: witness method vs deletion method, and reports."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from distcrit import (
    Graph,
    all_pairs_distances,
    determining_pairs_of,
    disjoint_union,
    involved_set,
    is_distance_critical,
    is_distance_critical_direct,
    is_distance_critical_pairs,
    is_connected,
    is_edge_maximal_critical,
)
from distcrit.cli import run
from distcrit.constructions import cycle, gamma, regular_extremal
from distcrit import criticality
from distcrit.graph6 import encode_graph6
from distcrit.verify import pendant_deletion_check
from distcrit.graph import UNREACHABLE, _reach_mask, _width, bits, girth
from distcrit.criticality import (
    _BLOCK_BREAK_EVEN,
    _KERNEL_BREAK_EVEN,
    _alive_set,
    _all_sole_partners,
    _block_changers,
    _distance_changers,
    _girth_table,
    _is_critical_fast,
    _mask_sets,
    _pair_scan,
    _pairless_sets,
    _sole_parents,
    _sole_partners,
    _table_of,
    _witness_for,
)
from distcrit.enumeration import (_ROOT, _attach, _child_cut_mask,
                                  _child_states, _cut_sets)
from conftest import (
    augmentation_nodes,
    child_sets,
    child_adjacencies,
    random_graph,
    random_tree,
    relabeled,
)


def _pairless_of(px: int, pl: list[int], s: int) -> int:
    """The vertex mask of the pairless vertices of G + x for A = s, read
    from _pairless_sets; x is vertex len(pl)."""
    q = (px >> s & 1) << len(pl)
    for v, p in enumerate(pl):
        if p >> s & 1:
            q |= 1 << v
    return q


def _no_critical_child(adj, q: int) -> bool:
    """Whether some v in q has no neighbour a outside q with
    N(a) & q = {v}, q being the vertices of adj with no determining pair.
    If so, no graph adj + y is critical, whatever the neighbourhood S of
    its new vertex y.

    Proof.  As in _pairless_sets, adding y makes no pair of adj
    determining, so a pairless v gains a pair in adj + y only as (a, y):
    v is in S, and a is a neighbour of v outside S with N(a) & S = {v}.
    So in a critical adj + y all of q lies in S, and each v in q has such
    an a, outside S and hence outside q, with N(a) & q inside
    N(a) & S = {v} and holding v.
    """
    m = q
    while m:
        low = m & -m
        m ^= low
        out = adj[low.bit_length() - 1] & ~q
        while out:
            a = out & -out
            if adj[a.bit_length() - 1] & q == low:
                break
            out ^= a
        else:
            return True
    return False


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

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_random_graphs_up_to_40(self, data):
        # G(n, p), or disjoint cycles with a few chords: both verdicts and
        # disconnected inputs occur
        rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
        if data.draw(st.booleans()):
            n = data.draw(st.integers(0, 40))
            g = random_graph(n, rng.choice((0.05, 0.1, 0.2, 0.4, 0.7)), rng)
        else:
            lengths = data.draw(st.lists(st.integers(3, 12), min_size=1,
                                         max_size=4))
            g = Graph.empty(0)
            for k in lengths:
                g = disjoint_union(g, cycle(k))
            for _ in range(data.draw(st.integers(0, 3))):
                x, y = rng.sample(range(g.n), 2)
                if not g.has_edge(x, y):
                    g = g.add_edge(x, y)
        assert is_distance_critical_pairs(g).verdict == \
            is_distance_critical_direct(g)

    def test_fast_path_matches(self, connected_by_n):
        for n in range(1, 8):
            for g in connected_by_n[n]:
                assert is_distance_critical(g) == \
                    is_distance_critical_pairs(g).verdict

    def test_girth_above_4_past_seven_vertices(self, petersen,
                                               dodecahedron):
        # girth > 4 with minimum degree >= 2 implies criticality (the
        # GIRTH law); the fast test must reach that verdict through
        # determining pairs, so hold it against BFS on such graphs
        graphs = [petersen, dodecahedron] + [cycle(k) for k in range(5, 65)]
        rng = random.Random(2405)
        for _ in range(150):
            n = rng.randint(10, 40)
            g = random_tree(n, rng)
            for _ in range(rng.randint(0, 4 * n)):
                x, y = rng.sample(range(n), 2)
                if not g.has_edge(x, y):
                    h = g.add_edge(x, y)
                    if girth(h) > 4:
                        g = h
            graphs.append(g)
        # Petersen with a pendant vertex
        graphs.append(Graph.from_edges(11, list(petersen.edges()) + [(0, 10)]))
        verdicts = []
        for g in graphs:
            # trees that took no chord are acyclic
            assert (girth(g) or 5) > 4
            verdict = is_distance_critical(g)
            assert verdict == is_distance_critical_direct(g)
            verdicts.append(verdict)
        assert verdicts[:62] == [True] * 62 and not verdicts[-1]
        # 31 of the random graphs have minimum degree >= 2
        assert sum(verdicts[62:-1]) == 31


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


def row_changers(g: Graph) -> list[int]:
    """Per source x, the mask of the v != x whose deletion changes a
    distance from x, read off all_pairs_distances of g and of each g - v."""
    before = all_pairs_distances(g)
    rows = [0] * g.n
    for v in range(g.n):
        after = all_pairs_distances(g.delete_vertex(v))
        for x in range(g.n):
            if x == v:
                continue
            i = x - (x > v)
            if any(before[x][y] != after[i][y - (y > v)]
                   for y in range(g.n) if y != v):
                rows[x] |= 1 << v
    return rows


def union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


class TestDirectMethod:
    """The direct method's one BFS pass per source finds the vertices whose
    deletion changes a distance from that source (_sole_parents); every
    source's set against the definition, at the granularity of one
    deletion and one source, read off the distance rows of g - v."""

    @staticmethod
    def assert_agrees(g: Graph) -> list[int]:
        """Check every (deletion, source) pair of g; return the masks of
        row_changers."""
        rows = row_changers(g)
        assert [_sole_parents(g.adj, x) for x in range(g.n)] == rows
        changers = union(rows)
        assert _distance_changers(g.adj, g.n) == changers
        assert [changers >> v & 1 == 1 for v in range(g.n)] == \
            [deletion_changes_some_distance(g, v) for v in range(g.n)]
        assert is_distance_critical_direct(g) == \
            (g.n > 0 and changers == (1 << g.n) - 1)
        return rows

    @staticmethod
    def disconnected_graphs() -> list[Graph]:
        rng = random.Random(29)
        graphs = [disjoint_union(cycle(5), Graph.empty(1)),
                  disjoint_union(Graph.empty(2), cycle(6)),
                  disjoint_union(cycle(5), cycle(3)),
                  disjoint_union(cycle(5), cycle(5))]
        return graphs + [random_graph(rng.randint(2, 9), 0.2, rng)
                         for _ in range(60)]

    def test_disconnected_graphs(self):
        disconnected = 0
        for g in self.disconnected_graphs():
            if any(UNREACHABLE in row for row in all_pairs_distances(g)):
                disconnected += 1
            self.assert_agrees(g)
        assert disconnected >= 50

    def test_sole_parents_stay_in_the_source_component(self):
        # in C5 + C5 + K1 the BFS from a vertex of the second cycle meets
        # that cycle only, where each neighbour of x is the one parent of
        # a vertex at distance 2; from the isolated vertex it meets nothing
        g = disjoint_union(disjoint_union(cycle(5), cycle(5)),
                           Graph.empty(1))
        for x in range(5, 10):
            assert _sole_parents(g.adj, x) == g.adj[x]
        assert _sole_parents(g.adj, 10) == 0
        rng = random.Random(43)
        for _ in range(40):
            g = random_graph(rng.randint(2, 12), 0.15, rng)
            for x in range(g.n):
                comp = _reach_mask(g.adj, 1 << x)
                assert _sole_parents(g.adj, x) & ~comp == 0

    def test_first_changed_row_past_row_0(self, petersen):
        # in C5 + C5 no row of the first cycle changes when a vertex of
        # the second is deleted; in C8 deleting the antipode of 0 leaves
        # row 0 as it was, and row 2 changes
        rows = self.assert_agrees(disjoint_union(cycle(5), cycle(5)))
        assert all(rows[x] >> 5 == 0 for x in range(5))
        rows = self.assert_agrees(cycle(8))
        assert not rows[0] >> 4 & 1 and rows[2] >> 4 & 1
        rng = random.Random(31)
        late = 0
        for g in [petersen, disjoint_union(cycle(6), cycle(5))] + [
                random_graph(rng.randint(4, 9), 0.4, rng)
                for _ in range(40)]:
            rows = self.assert_agrees(g)
            changers = union(rows)
            # deletions that change some row, but not the row of the
            # least vertex left
            for v in range(g.n):
                first = 1 if v == 0 else 0
                late += changers >> v & 1 and not rows[first] >> v & 1
        assert late >= 20

    def test_rows_against_the_definition(self):
        # every (v, source) pair, including sources whose BFS from some
        # layer on runs only through v
        rng = random.Random(41)
        graphs = [cycle(6), disjoint_union(cycle(5), Graph.empty(2))]
        graphs += [random_graph(rng.randint(2, 9), rng.choice([0.2, 0.5]),
                                rng) for _ in range(40)]
        only_v = 0
        for g in graphs:
            rows = self.assert_agrees(g)
            dist = all_pairs_distances(g)
            for x in range(g.n):
                for v in range(g.n):
                    d = dist[x][v]
                    layer = [y for y in range(g.n) if dist[x][y] == d]
                    if v != x and d != UNREACHABLE and layer == [v]:
                        only_v += 1
                        # a layer of v alone, with more layers after it
                        if any(d < e != UNREACHABLE for e in dist[x]):
                            assert rows[x] >> v & 1
        assert only_v >= 100

    def test_a_layer_of_only_v_cuts_off_the_rest(self):
        # the middle of P3 and every inner vertex of a pendant path: some
        # layer from some source is exactly {v}, so v is the only parent
        # of the next layer
        p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert _sole_parents(p3.adj, 0) == 1 << 1
        assert self.assert_agrees(p3) == [1 << 1, 0, 1 << 1]
        # C5 on 0..4 with the pendant path 0-5-6-7
        g = Graph.from_edges(8, [(i, (i + 1) % 5) for i in range(5)]
                             + [(0, 5), (5, 6), (6, 7)])
        rows = self.assert_agrees(g)
        for v in (6, 5, 0):
            assert rows[7] >> v & 1
        assert union(rows) == (1 << 7) - 1
        # a star: every leaf's second layer is the centre alone
        star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        assert self.assert_agrees(star) == [0] + [1] * 4

    def test_pendant_deletion_trees(self):
        rng = random.Random(37)
        trees = [Graph.from_edges(5, [(i, i + 1) for i in range(4)]),
                 Graph.from_edges(6, [(0, i) for i in range(1, 6)])]
        trees += [random_tree(rng.randint(2, 12), rng) for _ in range(40)]
        for t in trees:
            changers = union(self.assert_agrees(t))
            # a leaf deletion changes nothing, any other one disconnects
            assert [not changers >> v & 1 for v in range(t.n)] == \
                [t.degree(v) == 1 for v in range(t.n)]
            assert pendant_deletion_check(t)

    def test_long_cycle(self):
        assert is_distance_critical_direct(cycle(512))

    def test_low_degree_rejected_before_any_bfs(self, monkeypatch,
                                                all_graphs_by_n):
        # a vertex of degree 0 or 1 is no sole parent from any source, so
        # such a graph is rejected without a BFS; every graph on up to 7
        # vertices still gets the definition's verdict
        sole_parents = criticality._sole_parents

        def guarded(adj, x):
            assert all(row & (row - 1) for row in adj)
            return sole_parents(adj, x)

        monkeypatch.setattr(criticality, "_sole_parents", guarded)
        low = 0
        for n in range(1, 8):
            for g in all_graphs_by_n[n]:
                want = all(deletion_changes_some_distance(g, v)
                           for v in range(g.n))
                assert is_distance_critical_direct(g) == want
                low += min(g.degree(v) for v in range(g.n)) < 2
        assert low == 665


def per_source(g: Graph) -> int:
    """The union of _sole_parents over every source of g."""
    return union(_sole_parents(g.adj, x) for x in range(g.n))


def stream_graphs() -> list[Graph]:
    """The graphs that the check items of the benchmark's graph stream
    draw: G(n, 3/n), G(n, 1/2), cycles and gamma graphs, relabelled."""
    rng = random.Random(11)
    graphs = [random_graph(n, 3 / n, rng) for n in (16, 24, 32, 48, 64, 96)]
    graphs += [random_graph(n, 0.5, rng) for n in (16, 32, 48, 64, 96)]
    graphs += [cycle(n) for n in (16, 32, 64, 96)]
    return graphs + [relabeled(gamma(m)[0], rng) for m in range(3, 9)]


class TestBlocks:
    """The packed path of the direct method, _block_changers, forced
    against the union of _sole_parents over every source, and the rule
    that picks it."""

    @staticmethod
    def assert_blocks_agree(monkeypatch, graphs, blocks=(32,)) -> int:
        """Check every graph in blocks of each size; return how many are
        critical."""
        critical = 0
        for g in graphs:
            want = per_source(g)
            for block in blocks:
                monkeypatch.setattr(criticality, "_BLOCK", block)
                assert _block_changers(g.adj, g.n) == want
            monkeypatch.undo()
            critical += g.n > 0 and want == (1 << g.n) - 1
        return critical

    def test_small_and_disconnected_graphs(self, monkeypatch,
                                           all_graphs_by_n):
        # one block of every source, and blocks of 2 and 3, with which
        # the seven critical graphs (C5, C6, C7 and C5 + C5 among them)
        # stop after a block that completes the union
        graphs = [g for n in range(1, 8) for g in all_graphs_by_n[n]]
        graphs += TestDirectMethod.disconnected_graphs()
        assert self.assert_blocks_agree(monkeypatch, graphs,
                                        (32, 3, 2)) == 7

    def test_random_graphs_at_block_edges(self, monkeypatch):
        # one source more and one less than a whole number of blocks, at
        # the packed widths 32, 64 and 128 and the first width past each
        rng = random.Random(37)
        graphs = [random_graph(n, p, rng)
                  for n in (31, 32, 33, 63, 64, 65, 127, 128, 129)
                  for p in (3 / n, 0.1, 0.3, 0.5, 0.9)]
        self.assert_blocks_agree(monkeypatch, graphs)

    def test_families(self, monkeypatch):
        rng = random.Random(38)
        graphs = [gamma(m)[0] for m in range(3, 10)]
        graphs += [relabeled(gamma(m)[0], rng) for m in (4, 6, 8)]
        graphs += [regular_extremal(n) for n in (*range(5, 41), 64, 96)]
        graphs += [cycle(n) for n in (*range(3, 12), 31, 32, 33, 64, 65)]
        critical = self.assert_blocks_agree(monkeypatch, graphs)
        # all but the triangle and C4
        assert critical == len(graphs) - 2

    @staticmethod
    def direct_path(monkeypatch, g: Graph, check=None) -> str:
        """Which way _distance_changers takes on g, through check (by
        default _distance_changers itself), with both ways stubbed so
        that nothing is computed."""
        paths = set()
        monkeypatch.setattr(criticality, "_block_changers",
                            lambda adj, n: paths.add("blocks") or 0)
        monkeypatch.setattr(criticality, "_sole_parents",
                            lambda adj, x: paths.add("per-source") or 0)
        if check is None:
            _distance_changers(g.adj, g.n)
        else:
            check(g)
        monkeypatch.undo()
        (path,) = paths
        return path

    def test_block_rule(self, monkeypatch):
        # dense graphs of up to a few hundred vertices take the blocks;
        # cycles, sparse graphs, trees and every graph on 1024 vertices
        # stay per source
        rng = random.Random(97)
        full = (1 << 1024) - 1
        for g, path in [
                (random_graph(96, 0.5, rng), "blocks"),
                (gamma(8)[0], "blocks"),
                (regular_extremal(64), "blocks"),
                (cycle(64), "per-source"),
                (cycle(1024), "per-source"),
                (random_graph(96, 3 / 96, rng), "per-source"),
                (random_graph(1024, 3 / 1024, rng), "per-source"),
                (random_graph(1024, 0.5, rng), "per-source"),
                (regular_extremal(1024), "per-source"),
                (Graph(1024, [full ^ 1 << v for v in range(1024)],
                       check=False), "per-source")]:
            assert self.direct_path(monkeypatch, g) == path
        for n in (40, 100, 300):
            tree = random_tree(n, rng)
            assert self.direct_path(monkeypatch, tree,
                                    pendant_deletion_check) == "per-source"

    def test_block_rule_across_the_threshold(self, monkeypatch):
        # the least edge count that takes the blocks, and one edge less:
        # at n = 32 and 40 the average degree n / 4 binds, at n = 129 the
        # width; on both sides the blocks equal every source's union
        rng = random.Random(38)
        complete = Graph.from_edges(31, [(a, b) for a in range(31)
                                         for b in range(a + 1, 31)])
        assert self.direct_path(monkeypatch, complete) == "per-source"
        for n in (32, 40, 129):
            need = max(-(-n * n // 4),
                       -(-(n * _width(n)) ** 2 // _BLOCK_BREAK_EVEN))
            m = (need + 1) // 2
            edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
            rng.shuffle(edges)
            for k, path in ((m - 1, "per-source"), (m, "blocks")):
                g = Graph.from_edges(n, edges[:k])
                assert self.direct_path(monkeypatch, g) == path
                assert _block_changers(g.adj, n) == per_source(g) == \
                    _distance_changers(g.adj, n)

    def test_no_bfs_from_the_last_source(self, monkeypatch):
        # on non-critical graphs with minimum degree 2 the union never
        # completes, so every source that runs is seen: per source, each
        # of 0..n - 2 runs once; in blocks, the blocks start at multiples
        # of 32 and none at n - 1 for n = 33 and 65, where it would hold
        # that one source alone.  A block's first frontier is the packed
        # rows of its sources.
        rng = random.Random(3365)
        graphs = [random_graph(n, 0.5, rng) for n in (33, 65)]
        graphs += [random_graph(n, 0.3, rng) for n in (12, 40)]
        packed_layer = criticality._packed_layer
        sole_parents = criticality._sole_parents
        for g in graphs:
            n = g.n
            assert min(map(int.bit_count, g.adj)) >= 2
            want = per_source(g)
            assert want != (1 << n) - 1
            m, w = criticality._pack(g.adj)
            starts = []

            def first_frontiers(adj, f, cols, w):
                rows = -(-f.bit_length() // w)
                for lo in range(0, n, 32):
                    if f and f == m >> lo * w & (1 << rows * w) - 1:
                        starts.append((lo, rows))
                return packed_layer(adj, f, cols, w)

            monkeypatch.setattr(criticality, "_packed_layer",
                                first_frontiers)
            assert _block_changers(g.adj, n) == want
            last = (n - 2) // 32 * 32
            assert starts == [(lo, 32) for lo in range(0, last, 32)] + \
                [(last, n - 1 - last)]
            sources = []
            monkeypatch.setattr(criticality, "_sole_parents",
                                lambda adj, x: sources.append(x)
                                or sole_parents(adj, x))
            monkeypatch.setattr(criticality, "_BLOCK_BREAK_EVEN", 0)
            assert _distance_changers(g.adj, n) == want
            assert sources == list(range(n - 1))
            monkeypatch.undo()
        assert self.direct_path(monkeypatch, graphs[0]) == "blocks"

    def test_direct_method_reads_no_sole_partner_mask(self, monkeypatch,
                                                      capsys):
        # the direct method decides the stream's graphs with both mask
        # builders refusing, the blocks taken on some; check --method both
        # then finds the pairs method agreeing
        def refuse(*args):
            raise AssertionError("a sole-partner mask was read")

        graphs = stream_graphs()
        blocks = []
        block_changers = criticality._block_changers
        monkeypatch.setattr(criticality, "_sole_partners", refuse)
        monkeypatch.setattr(criticality, "_all_sole_partners", refuse)
        monkeypatch.setattr(criticality, "_block_changers",
                            lambda adj, n: blocks.append(n)
                            or block_changers(adj, n))
        direct = [is_distance_critical_direct(g) for g in graphs]
        monkeypatch.undo()
        # the G(n, 1/2) with n >= 32 and gamma(6), gamma(7), gamma(8)
        assert sorted(blocks) == [32, 33, 42, 48, 52, 64, 96]
        assert 0 < sum(direct) < len(graphs)
        for g, verdict in zip(graphs, direct):
            code = run(["check", "--method", "both",
                        "--graph", encode_graph6(g)])
            d = json.loads(capsys.readouterr().out)
            assert d["agree"] and d["direct"] == verdict
            assert code == (0 if verdict else 1)


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
                    assert g.adj[a] & g.adj[b] == 1 << v

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
                                g.adj[a] & g.adj[b] == 1 << v:
                            want.add((a, b))
                assert pairs == want

    @staticmethod
    def assert_matches_oracle(g: Graph) -> None:
        # Oracle: every nonadjacent pair with exactly one common neighbor,
        # found by testing each third vertex; pairs come in lex order.
        n = g.n
        pairs: dict[int, list] = {v: [] for v in range(n)}
        for a in range(n):
            for b in range(a + 1, n):
                if g.has_edge(a, b):
                    continue
                common = [c for c in range(n)
                          if g.has_edge(a, c) and g.has_edge(b, c)]
                if len(common) == 1:
                    pairs[common[0]].append((a, b))
        witnesses = tuple(p[0] if p else None for p in pairs.values())
        involved = tuple(sorted(
            {x for p in pairs.values() for ab in p for x in ab}))
        rep = is_distance_critical_pairs(g)
        assert rep.witnesses == witnesses
        assert rep.involved == involved_set(g) == involved
        assert _pair_scan(g.adj, n) == (witnesses, involved)
        for v in range(n):
            assert determining_pairs_of(g, v) == pairs[v]
            assert criticality._witness_for(g.adj, v, [None] * n) == \
                witnesses[v]

    def test_pair_scan_against_oracle(self, all_graphs_by_n):
        for n in range(1, 8):
            for g in all_graphs_by_n[n]:
                self.assert_matches_oracle(g)

    @staticmethod
    def dense_graphs() -> list[Graph]:
        # at n = 20..60 a vertex has up to about 50 neighbours; from
        # density 0.4 on most pairs share several of them, so most
        # sole-partner masks are empty, and below it many pairs are
        # determining
        rng = random.Random(59)
        return [random_graph(rng.randint(20, 60),
                             rng.choice((0.15, 0.25, 0.4, 0.6, 0.8)), rng)
                for _ in range(30)]

    def test_pair_scan_on_dense_graphs(self):
        witnessed = 0
        for g in self.dense_graphs():
            self.assert_matches_oracle(g)
            witnessed += sum(w is not None
                             for w in is_distance_critical_pairs(g).witnesses)
        assert witnessed >= 100

    @staticmethod
    def kernel_graphs() -> list[Graph]:
        # complete graphs, stars, isolated vertices before and after the
        # edges, and G(n, 3/n) and G(n, 1/2) on each side of the packed
        # widths 8, 64, 128 and 256
        rng = random.Random(36)
        graphs = [Graph.from_edges(n, [(a, b) for a in range(n)
                                       for b in range(a + 1, n)])
                  for n in (1, 2, 3, 4, 9, 17, 64, 65)]
        graphs += [Graph.from_edges(n, [(0, b) for b in range(1, n)])
                   for n in (1, 2, 3, 4, 9, 64, 65, 129)]
        for n, k in ((5, 1), (9, 3), (30, 7), (62, 3)):
            g = random_graph(n, 0.4, rng)
            graphs += [disjoint_union(Graph.empty(k), g),
                       disjoint_union(g, Graph.empty(k))]
        for n in [*range(18), 63, 64, 65, 127, 128, 129, 255, 256, 257]:
            graphs += [random_graph(n, 3 / max(n, 1), rng),
                       random_graph(n, 0.5, rng)]
        return graphs

    def test_sole_partner_masks(self, all_graphs_by_n):
        # the mask of a holds every b != a that is not adjacent to a and
        # shares exactly one neighbour with it, so the masks are symmetric;
        # the packed kernel builds the same list at once; one list filled
        # over all vertices gives the witnesses a fresh list gives each
        # call, and what it holds are the masks
        graphs = [g for n in range(1, 8) for g in all_graphs_by_n[n]]
        for g in graphs + self.dense_graphs() + self.kernel_graphs():
            adj, n = g.adj, g.n
            masks = [_sole_partners(adj, a) for a in range(n)]
            assert _all_sole_partners(adj) == masks
            for a in range(n):
                assert masks[a] == sum(
                    1 << b for b in range(n)
                    if b != a and not g.has_edge(a, b)
                    and (adj[a] & adj[b]).bit_count() == 1)
                assert all(masks[b] >> a & 1 for b in bits(masks[a]))
            shared = [None] * n
            for v in range(n):
                assert _witness_for(adj, v, shared) == \
                    _witness_for(adj, v, [None] * n)
            assert all(m is None or m == masks[a]
                       for a, m in enumerate(shared))

    @staticmethod
    def scan_path(monkeypatch, g: Graph) -> str:
        """Which way _pair_scan builds the masks of g, with both ways
        stubbed so that nothing is computed."""
        paths = set()
        monkeypatch.setattr(criticality, "_all_sole_partners",
                            lambda adj: paths.add("kernel") or [0] * g.n)
        monkeypatch.setattr(criticality, "_sole_partners",
                            lambda adj, a: paths.add("per-vertex") or 0)
        _pair_scan(g.adj, g.n)
        monkeypatch.undo()
        (path,) = paths
        return path

    def test_pair_scan_rule(self, monkeypatch):
        # dense graphs of up to a hundred vertices pay for the kernel; at
        # n = 1024 no graph does, not even the complete one
        rng = random.Random(96)
        full = (1 << 1024) - 1
        for g, path in [
                (random_graph(96, 0.5, rng), "kernel"),
                (gamma(8)[0], "kernel"),
                (cycle(1024), "per-vertex"),
                (random_graph(1024, 3 / 1024, rng), "per-vertex"),
                (random_graph(1024, 0.5, rng), "per-vertex"),
                (Graph(1024, [full ^ 1 << v for v in range(1024)],
                       check=False), "per-vertex")]:
            assert self.scan_path(monkeypatch, g) == path

    def test_pair_scan_across_the_threshold(self, monkeypatch):
        # the least edge count that takes the kernel, and one edge less;
        # on both sides the scan equals the scan through either way
        rng = random.Random(37)
        for n in (40, 96, 129):
            ends = -(-(n * _width(n)) ** 2 // _KERNEL_BREAK_EVEN)
            m = (ends + 1) // 2
            edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
            rng.shuffle(edges)
            for k, path in ((m - 1, "per-vertex"), (m, "kernel")):
                g = Graph.from_edges(n, edges[:k])
                assert self.scan_path(monkeypatch, g) == path
                got = _pair_scan(g.adj, n)
                for forced in (0, float("inf")):
                    monkeypatch.setattr(criticality, "_KERNEL_BREAK_EVEN",
                                        forced)
                    assert _pair_scan(g.adj, n) == got
                    monkeypatch.undo()
                self.assert_matches_oracle(g)

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


def girth_above_4(adj) -> bool:
    """Girth > 4 or acyclic, by graph.girth, which walks BFS layers of its
    own and shares no code with criticality._layer."""
    found = girth(Graph(len(adj), adj, check=False))
    return found is None or found > 4


def _alive_by_oracle(adj, k: int, sets) -> int:
    """_alive_set read child by child: bit A is set iff
    _no_critical_child fails on the child with neighbourhood A."""
    return sum(1 << s for s in range(1 << k)
               if not _no_critical_child(_attach(adj, s),
                                         _pairless_of(*sets, s)))


class TestMaskSets:
    def test_sets_against_their_definitions(self):
        # every X and A for k <= 6: SUP[X] holds the A that contain X,
        # NONE[X] those disjoint from X, and each is the AND of one
        # HAS[a] (or ~HAS[a]) per a in X, SUP[{a}] being HAS[a]
        for k in range(7):
            has, none, sup, ge = _mask_sets(k)
            every = (1 << (1 << k)) - 1
            assert [(1 << s) & h != 0 for h in has for s in range(1 << k)] \
                == [s >> a & 1 == 1 for a in range(k) for s in range(1 << k)]
            for x in range(1 << k):
                assert sup[x] == sum(1 << s for s in range(1 << k)
                                     if s & x == x)
                assert none[x] == sum(1 << s for s in range(1 << k)
                                      if not s & x)
                for a in range(k):
                    assert every & ~has[a] & none[x] == none[x | 1 << a]
                    assert has[a] & sup[x] == sup[x | 1 << a]
            assert [sup[1 << a] for a in range(k)] == has
            assert ge[0] == every and ge[k + 1] == ge[k + 2] == 0


class TestExtensionTables:
    """The per-parent tables against the per-child predicates they
    replace, on every child of every connected graph up to 7 vertices."""

    def test_tables_match_the_child_predicates(self):
        children = critical = short_free = 0
        for k, (adj, _) in augmentation_nodes(7):
            crit = _table_of(*_pairless_sets(adj, k))
            free = _girth_table(adj, k)
            assert crit >> (1 << k) == free >> (1 << k) == 0
            assert not crit & 1 and not free & 1
            for s, child in child_adjacencies(adj, k):
                want = _is_critical_fast(child, k + 1)
                assert crit >> s & 1 == want
                assert free >> s & 1 == girth_above_4(child)
                children += 1
                critical += want
                short_free += free >> s & 1
        # counted over all (parent, S) pairs, so one class is met many
        # times
        assert (children, critical, short_free) == (116146, 91, 367)

    def test_pairless_sets_match_the_witnesses(self):
        # every child on up to 7 vertices, of every (parent, S) pair
        children = pairless = 0
        for k, (adj, _) in augmentation_nodes(6):
            sets = _pairless_sets(adj, k)
            assert all(p >> (1 << k) == 0 for p in (sets[0], *sets[1]))
            for s, child in child_adjacencies(adj, k):
                q = _pairless_of(*sets, s)
                assert q == sum(1 << v for v in range(k + 1)
                                if _witness_for(child, v, [None] * (k + 1))
                                is None)
                children += 1
                pairless += q.bit_count()
        assert (children, pairless) == (7815, 40242)

    def test_tables_on_ten_vertex_parents(self, petersen):
        # the largest parents the enumeration builds tables for (n = 11)
        rng = random.Random(2011)
        parents = [petersen, cycle(10)]
        while len(parents) < 60:
            g = random_graph(10, rng.choice((0.2, 0.3, 0.45)), rng)
            if is_connected(g):
                parents.append(g)
        critical = alive = 0
        for g in parents:
            sets = _pairless_sets(g.adj, 10)
            crit = _table_of(*sets)
            live = _alive_set(g.adj, 10, *sets)
            free = _girth_table(g.adj, 10)
            for s, child in child_adjacencies(g.adj, 10):
                assert crit >> s & 1 == _is_critical_fast(child, 11)
                assert free >> s & 1 == girth_above_4(child)
            assert live == _alive_by_oracle(g.adj, 10, sets)
            # a critical child has nothing pairless, so it is alive
            assert not crit & ~live
            critical += crit.bit_count()
            alive += live.bit_count()
        assert 0 < critical < alive < 60 << 10
        # Petersen has girth 5 and diameter 2: no new vertex has a pair at
        # distance 3, and only a pendant keeps the girth above 4
        assert _table_of(*_pairless_sets(petersen.adj, 10)) == 0
        assert _girth_table(petersen.adj, 10) == \
            sum(1 << (1 << v) for v in range(10))


class TestDeadChildren:
    """_no_critical_child on every child of the augmentation tree up to
    level 8, with the pairless set its parent's sets give it."""

    def test_a_dead_child_has_an_empty_table(self):
        # (children, passed, nonempty tables) per level 2..8
        seen = {}
        for k, state in augmentation_nodes(7):
            adj = state[0]
            sets = _pairless_sets(adj, k)
            row = seen.setdefault(k + 1, [0, 0, 0])
            for s in child_sets(k, state):
                child = _attach(adj, s)
                dead = _no_critical_child(child, _pairless_of(*sets, s))
                table = _table_of(*_pairless_sets(child, k + 1))
                assert not (dead and table)
                row[0] += 1
                row[1] += not dead
                row[2] += table != 0
        assert seen == {2: [1, 0, 0], 3: [2, 0, 0], 4: [6, 1, 1],
                        5: [21, 2, 1], 6: [112, 8, 8], 7: [853, 41, 26],
                        8: [11117, 373, 307]}

    def test_the_rule_by_hand(self):
        # C5 minus the vertex 4 is the path 0-1-2-3: its ends have no
        # pair, and 0's only neighbour 1 sees 0 alone in {0, 3}, as 2 sees
        # 3, so a child may still be critical (C5 is one)
        path = (0b10, 0b101, 0b1010, 0b100)
        assert not _no_critical_child(path, 0b1001)
        assert _table_of(*_pairless_sets(path, 4)) >> 0b1001 & 1
        # in the star K1,3 every leaf has its centre 0 as only neighbour,
        # and 0 sees all three pairless leaves: no child is critical
        star = (0b1110, 0b1, 0b1, 0b1)
        assert _no_critical_child(star, 0b1110)
        assert _table_of(*_pairless_sets(star, 4)) == 0
        # nothing pairless: the graph itself may be critical
        assert not _no_critical_child(cycle(5).adj, 0)
        # a P4 and a K1,3, as above, are the children of the path 0-1-2
        # on {2} and on {1}: its alive set holds the first and not the
        # second, nor the 4-cycle (on {0, 2}) or an isolated vertex (on
        # nothing)
        short = (0b10, 0b101, 0b10)
        live = _alive_set(short, 3, *_pairless_sets(short, 3))
        assert live >> 0b100 & 1
        assert not live & (1 << 0b10 | 1 << 0b101 | 1)


class TestAliveSets:
    """_alive_set against its oracle, _no_critical_child on the pairless
    set that _pairless_of reads, for every neighbourhood A (0 included)
    of every node of the augmentation tree up to level 7."""

    def test_alive_set_is_the_per_child_test(self):
        nodes = children = alive = 0
        for k, (adj, _) in augmentation_nodes(7):
            sets = _pairless_sets(adj, k)
            live = _alive_set(adj, k, *sets)
            assert live >> (1 << k) == 0
            for s in range(1 << k):
                q = _pairless_of(*sets, s)
                want = not _no_critical_child(_attach(adj, s), q)
                assert live >> s & 1 == want
                alive += want
            nodes += 1
            children += 1 << k
        assert (nodes, children, alive) == (996, 117142, 3883)

    def test_alive_set_on_nine_vertex_nodes(self):
        # the n = 11 walk computes alive sets on its 9-vertex nodes: a
        # seeded sample of them, each reached by a random path down the
        # augmentation tree.  A uniform child at each step reaches K9 on
        # most paths, so each step draws among the children whose
        # neighbourhood is at most 0-2 vertices above the least.
        rng = random.Random(909)
        nodes = set()
        while len(nodes) < 300:
            adj, cut_mask = _ROOT
            for k in range(1, 9):
                cuts = _cut_sets(adj, k, cut_mask)
                kids = list(_child_states(adj, k, cuts))
                d = min(s.bit_count() for s in kids) + rng.randrange(3)
                s = rng.choice([s for s in kids if s.bit_count() <= d])
                adj, cut_mask = _attach(adj, s), _child_cut_mask(cuts, s)
            nodes.add(adj)
        alive = some = 0
        for adj in nodes:
            sets = _pairless_sets(adj, 9)
            live = _alive_set(adj, 9, *sets)
            assert live == _alive_by_oracle(adj, 9, sets)
            alive += live.bit_count()
            some += live != 0
        # 20 of the 300 nodes have a nonempty alive set
        assert (some, alive) == (20, 649)
