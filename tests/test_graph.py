"""Core graph type and distance computations against brute-force oracles."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from distcrit import (
    MAX_VERTICES,
    UNREACHABLE,
    Graph,
    all_pairs_distances,
    articulation_points,
    determining_pairs_of,
    disjoint_union,
    girth,
    is_connected,
    is_two_connected,
)
from distcrit import graph
from distcrit.constructions import cycle
from distcrit.graph import _layer, _peel, _transpose, _with_each_non_edge, bits
from conftest import (WIDTH_BOUNDARIES, random_graph, random_tree, relabeled,
                      to_nx)


def floyd_warshall(g: Graph) -> list[list[int]]:
    inf = float("inf")
    d = [[0 if i == j else inf for j in range(g.n)] for i in range(g.n)]
    for x, y in g.edges():
        d[x][y] = d[y][x] = 1
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return [[UNREACHABLE if v == inf else int(v) for v in row] for row in d]


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 2)])
        assert g.edge_count() == 2
        assert g.has_edge(0, 1) and g.has_edge(2, 1)
        assert not g.has_edge(0, 2)
        assert g.degree_sequence() == (0, 1, 1, 2)
        assert g.neighbors(1) == (0, 2)

    def test_rejects_bad_vertex_counts(self):
        with pytest.raises(ValueError):
            Graph.from_edges(-1, [])
        with pytest.raises(ValueError):
            Graph.from_edges(MAX_VERTICES + 1, [])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])
        # checked before the rows are allocated: 10**12 of them would
        # need terabytes
        for n in (-1, MAX_VERTICES + 1, 10**12):
            with pytest.raises(ValueError, match="vertex count"):
                Graph.empty(n)
        assert Graph.empty(MAX_VERTICES).edge_count() == 0

    def test_out_of_range_messages(self):
        # a graph on n vertices names its range 0..n-1; the null graph
        # has none to name
        null = Graph.empty(0)
        cases = [
            (lambda: Graph.from_edges(0, [(0, 1)]), "edge 0-1"),
            (lambda: null.add_edge(0, 1), "edge 0-1"),
            (lambda: null.delete_vertex(0), "vertex 0"),
            (lambda: determining_pairs_of(null, 0), "vertex 0"),
        ]
        for call, what in cases:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == \
                f"{what} outside the graph, which has no vertices"
        g = Graph.empty(3)
        for call, message in [
                (lambda: Graph.from_edges(3, [(0, 3)]),
                 "edge 0-3 outside 0..2"),
                (lambda: g.add_edge(0, 5), "edge 0-5 outside 0..2"),
                (lambda: g.delete_vertex(3), "vertex 3 outside 0..2"),
                (lambda: determining_pairs_of(g, -1),
                 "vertex -1 outside 0..2")]:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message

    def test_vertex_queries_refuse_vertices_outside(self):
        # -1 is no alias of the last vertex, and n is refused with the
        # same message, not an IndexError or a negative shift; has_edge
        # checks both ends, against u, the other end (in the graph, but
        # for the null graph, which has no vertex to pair v with)
        def queries(g, v):
            u = 0 if g.n else v
            return [lambda: g.degree(v), lambda: g.neighbors(v),
                    lambda: g.has_edge(v, u), lambda: g.has_edge(u, v),
                    lambda: g.delete_vertex(v),
                    lambda: determining_pairs_of(g, v)]

        null = Graph.empty(0)
        for v in (-1, 0):
            for call in queries(null, v):
                with pytest.raises(ValueError) as err:
                    call()
                assert str(err.value) == \
                    f"vertex {v} outside the graph, which has no vertices"
        g = cycle(5)
        for v in (-1, 5):
            for call in queries(g, v):
                with pytest.raises(ValueError) as err:
                    call()
                assert str(err.value) == f"vertex {v} outside 0..4"
        assert [g.degree(4), g.neighbors(4), g.has_edge(4, 0),
                g.has_edge(0, 4)] == [2, (0, 3), True, True]

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))
        with pytest.raises(ValueError):
            Graph(1, (0b1,))

        def first_asymmetric_edge(rows) -> "str | None":
            # the per-edge scan: the least v, then the least u with u in
            # rows[v] and v not in rows[u]
            for v, row in enumerate(rows):
                for u in bits(row):
                    if not rows[u] >> v & 1:
                        return f"edge {v}-{u} is not symmetric"
            return None

        rng = random.Random(61)
        named = 0
        for n in (2, 3, 5, 8, 9, 16, 17, 64, 65, 200, MAX_VERTICES):
            g = random_graph(n, min(0.5, 8 / n), rng)
            for flips in (1, 2, 5):
                rows = list(g.adj)
                for _ in range(flips):
                    x, y = rng.sample(range(n), 2)
                    rows[x] ^= 1 << y
                want = first_asymmetric_edge(rows)
                if want is None:
                    assert Graph(n, rows).adj == tuple(rows)
                    continue
                with pytest.raises(ValueError) as err:
                    Graph(n, rows)
                assert str(err.value) == want
                named += 1
        assert named >= 25

    def test_immutable(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n = 3

    def test_add_edge_returns_new_graph(self):
        g = Graph.from_edges(3, [(0, 1)])
        h = g.add_edge(1, 2)
        assert not g.has_edge(1, 2) and h.has_edge(1, 2)
        with pytest.raises(ValueError):
            g.add_edge(0, 1)
        with pytest.raises(ValueError):
            g.add_edge(2, 2)

    def test_non_edge_trials_add_each_non_edge(self, all_graphs_by_n):
        # the rows per non-edge against add_edge, in the order of the
        # masks the former non_edges read row by row
        for n in range(8):
            for g in all_graphs_by_n.get(n, [Graph.empty(n)]):
                want = []
                for v in range(n):
                    absent = ~(g.adj[v] | ((1 << (v + 1)) - 1)) & \
                        ((1 << n) - 1)
                    want.extend((v, u) for u in bits(absent))
                got = []
                for x, y, rows in _with_each_non_edge(g.adj):
                    assert tuple(rows) == g.add_edge(x, y).adj
                    got.append((x, y))
                assert got == want == g.non_edges()

    def test_non_edge_trials_leave_their_input(self):
        rng = random.Random(30)
        for _ in range(50):
            g = random_graph(rng.randint(2, 12), 0.4, rng)
            rows = list(g.adj)
            trials = _with_each_non_edge(rows)
            # abandoned after a few trials, and run to the end
            for _, (x, y, trial) in zip(range(rng.randint(1, 3)), trials):
                assert trial is not rows and rows == list(g.adj)
            trials.close()
            assert rows == list(g.adj)
            for _ in _with_each_non_edge(rows):
                pass
            assert rows == list(g.adj)

    def test_delete_vertex_induces_subgraph(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_graph(rng.randint(1, 8), 0.5, rng)
            v = rng.randrange(g.n)
            h = g.delete_vertex(v)
            keep = [u for u in range(g.n) if u != v]
            assert h.n == g.n - 1
            want = {(keep.index(a), keep.index(b))
                    for a, b in g.edges() if v not in (a, b)}
            assert set(h.edges()) == want

    def test_eq_and_hash_are_labeled(self):
        g = Graph.from_edges(3, [(0, 1)])
        h = Graph.from_edges(3, [(1, 2)])
        assert g != h and g == Graph.from_edges(3, [(0, 1)])
        assert len({g, h, Graph.from_edges(3, [(0, 1)])}) == 2


class TestDistances:
    def test_against_floyd_warshall(self):
        rng = random.Random(5)
        for _ in range(300):
            g = random_graph(rng.randint(1, 7), rng.choice([0.2, 0.5, 0.8]), rng)
            assert all_pairs_distances(g) == tuple(
                tuple(row) for row in floyd_warshall(g))

    def test_unreachable_on_disconnected(self):
        g = disjoint_union(Graph.from_edges(2, [(0, 1)]),
                           Graph.from_edges(1, []))
        t = all_pairs_distances(g)
        assert t[0][1] == 1 and t[0][2] == UNREACHABLE and t[2][2] == 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_metric_properties(self, data):
        n = data.draw(st.integers(1, 8))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        picked = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                           ) if pairs else []
        g = Graph.from_edges(n, picked)
        t = all_pairs_distances(g)
        for i in range(n):
            assert t[i][i] == 0
            for j in range(n):
                assert t[i][j] == t[j][i]
                if i != j and t[i][j] != UNREACHABLE:
                    assert t[i][j] >= 1
                for k in range(n):
                    if (t[i][k] != UNREACHABLE and t[k][j] != UNREACHABLE
                            and t[i][j] != UNREACHABLE):
                        assert t[i][j] <= t[i][k] + t[k][j]

    def test_distance_table_indexing(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        t = all_pairs_distances(g)
        assert t[0][2] == 2
        assert t == all_pairs_distances(g)


class TestConnectivity:
    def test_against_networkx(self):
        rng = random.Random(23)
        graphs = [random_graph(rng.randint(1, 8), rng.choice([0.2, 0.4, 0.7]), rng)
                  for _ in range(200)]
        for _ in range(60):
            n = rng.randint(9, 200)
            # average degree from below 1 (a forest) to about 8
            graphs.append(random_graph(n, rng.choice([0.5, 1, 2, 4, 8]) / n, rng))
        graphs += [random_tree(rng.randint(2, 200), rng) for _ in range(20)]
        for _ in range(40):
            # several components, each its own DFS root, with isolated
            # vertices between them
            g = Graph.empty(rng.randint(0, 3))
            for _ in range(rng.randint(2, 4)):
                part = rng.choice([random_tree(rng.randint(1, 30), rng),
                                   random_graph(rng.randint(1, 30), 0.15, rng),
                                   cycle(rng.randint(3, 12))])
                g = disjoint_union(disjoint_union(g, part),
                                   Graph.empty(rng.randint(0, 2)))
            graphs.append(g)
        # P_1024, where the DFS path holds every vertex, and G(1024, 1/2)
        path = Graph.from_edges(MAX_VERTICES,
                                [(v, v + 1) for v in range(MAX_VERTICES - 1)])
        assert articulation_points(path) == tuple(range(1, MAX_VERTICES - 1))
        graphs += [path, random_graph(MAX_VERTICES, 0.5, rng)]
        for g in graphs:
            h = to_nx(g)
            assert is_connected(g) == nx.is_connected(h)
            cuts = sorted(nx.articulation_points(h))
            assert articulation_points(g) == tuple(cuts)
            if g.n >= 3:
                assert is_two_connected(g) == (nx.is_connected(h) and not cuts)

    def test_empty_and_single(self):
        assert is_connected(Graph.empty(1))
        assert not is_connected(Graph.empty(2))
        assert articulation_points(Graph.empty(1)) == ()


class TestGirth:
    def test_known_values(self, petersen):
        assert girth(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])) == 3
        assert girth(Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])) == 5
        assert girth(petersen) == 5
        assert girth(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])) is None
        assert girth(Graph.empty(6)) is None

    @staticmethod
    def nx_girth(g: Graph) -> "int | None":
        want = nx.girth(to_nx(g))
        return None if want == float("inf") else want

    def test_against_networkx(self):
        rng = random.Random(37)
        for _ in range(200):
            g = random_graph(rng.randint(3, 8), rng.choice([0.3, 0.6]), rng)
            assert girth(g) == self.nx_girth(g)

    def test_every_graph_up_to_7(self, all_graphs_by_n):
        for n in range(1, 8):
            for g in all_graphs_by_n[n]:
                assert girth(g) == self.nx_girth(g)

    def test_against_networkx_on_larger_graphs(self, petersen, dodecahedron):
        rng = random.Random(43)
        graphs = [petersen, dodecahedron]
        graphs += [cycle(n) for n in (10, 13, 31, 60)]
        for _ in range(60):
            t = random_tree(rng.randint(10, 60), rng)
            edges = set(t.edges())
            for _ in range(rng.randint(0, 3)):
                x, y = sorted(rng.sample(range(t.n), 2))
                edges.add((x, y))
            graphs.append(Graph.from_edges(t.n, edges))
        for _ in range(30):
            a = rng.randint(5, 30)
            b = rng.randint(5, 30)
            p = rng.choice([0.05, 0.1, 0.3])
            graphs.append(Graph.from_edges(a + b, [
                (x, a + y) for x in range(a) for y in range(b)
                if rng.random() < p]))
        found = set()
        for g in graphs:
            got = girth(g)
            assert got == self.nx_girth(g)
            found.add(got if got is None or got < 7 else 7)
        assert found == {None, 3, 4, 5, 6, 7}

    def test_sources_taken_by_a_cycle(self, monkeypatch):
        # the first BFS finds the cycle, and the peel after it deletes
        # every vertex: none is left to be a source.  C_4..C_6 are not
        # peeled, as their girth is at most 6, so every vertex is one
        rng = random.Random(4104)
        sources = []
        inner = graph._cycle_from

        def counted(adj, src, best, alive):
            sources.append(src)
            return inner(adj, src, best, alive)

        monkeypatch.setattr(graph, "_cycle_from", counted)
        for n in (3, 4, 5, 6, 7, 8, 48, 1024):
            sources.clear()
            assert girth(relabeled(cycle(n), rng)) == n
            assert sources == (list(range(n)) if 4 <= n <= 6 else [0])

    @staticmethod
    def cycles_with_trees(rng: random.Random, cap: int) -> Graph:
        """One to three cycles of 3..cap/2 vertices, joined by paths,
        with pendant trees hung on them and 0..3 chords, relabeled."""
        edges = []
        n = 0
        for c in range(rng.randint(1, 3)):
            length = rng.randint(3, cap // 2 // (c + 1))
            edges += [(n + i, n + (i + 1) % length) for i in range(length)]
            if n:
                # a path from an earlier vertex to the new cycle
                prev = rng.randrange(n)
                path = list(range(n + length, n + length + rng.randint(0, 5)))
                edges += list(zip([prev] + path, path + [n]))
                n += len(path)
            n += length
        for v in range(n, rng.randint(n, cap)):
            edges.append((v, rng.randrange(v)))
            n = v + 1
        for _ in range(rng.randint(0, 3)):
            x, y = rng.sample(range(n), 2)
            edges.append((x, y))
        edges = {(min(e), max(e)) for e in edges}
        return relabeled(Graph.from_edges(n, edges), rng)

    def test_long_cycles_with_trees_against_networkx(self):
        rng = random.Random(4105)
        found = set()
        for _ in range(150):
            g = self.cycles_with_trees(rng, 300)
            got = girth(g)
            assert got == self.nx_girth(g)
            found.add(got if got < 40 else 40)
        assert {3, 4, 5, 6, 7, 40} <= found

    def test_peel_of_everything_is_the_2_core(self):
        rng = random.Random(4106)
        graphs = [Graph.empty(0), Graph.empty(5), cycle(7)]
        graphs += [self.cycles_with_trees(rng, 120) for _ in range(40)]
        graphs += [random_tree(rng.randint(1, 80), rng) for _ in range(20)]
        for _ in range(60):
            n = rng.randint(1, 150)
            graphs.append(random_graph(n, rng.uniform(0.5, 4) / n, rng))
        cores = set()
        for g in graphs:
            full = (1 << g.n) - 1
            want = sum(1 << v for v in nx.k_core(to_nx(g), 2))
            assert _peel(g.adj, full, full) == want
            cores.add(0 < want < full)
        assert cores == {False, True}


class TestTranspose:
    def test_random_rows(self):
        rng = random.Random(37)
        for n in (*range(18), 63, 64, 65, *WIDTH_BOUNDARIES, MAX_VERTICES):
            for draws in (1, 5):
                # each bit set with probability 1/2, or 1/32
                rows = [-1] * n
                for _ in range(draws):
                    rows = [row & rng.getrandbits(n) for row in rows]
                want = [0] * n
                for u, row in enumerate(rows):
                    for v in bits(row):
                        want[v] |= 1 << u
                got = _transpose(rows)
                assert got == want
                assert _transpose(got) == rows


class TestLayer:
    """_layer over rows that are no adjacency rows, as criticality's alive
    set runs it: one 2^k-bit int per vertex, against a plain count."""

    def test_once_and_twice_count_the_selected_rows(self):
        rng = random.Random(3210)
        partial = 0
        for k in range(11):
            for _ in range(20):
                # AND-ing draws makes some rows sparse, so that two rows
                # need not share a bit
                rows = []
                for _ in range(k):
                    row = -1
                    for _ in range(rng.randint(1, 4)):
                        row &= rng.getrandbits(1 << k)
                    rows.append(row)
                masks = {0, (1 << k) - 1}
                if k:
                    masks.add(1 << rng.randrange(k))
                for mask in masks:
                    once, twice = _layer(rows, mask)
                    for b in range(1 << k):
                        count = sum(rows[x] >> b & 1 for x in range(k)
                                    if mask >> x & 1)
                        assert once >> b & 1 == (count >= 1)
                        assert twice >> b & 1 == (count >= 2)
                    assert once >> (1 << k) == twice >> (1 << k) == 0
                    partial += 0 != twice != once
        assert partial > 0


def test_disjoint_union_offsets():
    g = disjoint_union(Graph.from_edges(2, [(0, 1)]),
                       Graph.from_edges(3, [(0, 2)]))
    assert g.n == 5
    assert set(g.edges()) == {(0, 1), (2, 4)}


def test_disjoint_union_keeps_the_vertex_limit():
    # a larger union would encode to graph6 that decode_graph6 refuses
    half = Graph.empty(512)
    assert disjoint_union(half, half).n == 1024
    with pytest.raises(ValueError, match="vertex count 1025"):
        disjoint_union(Graph.empty(1024), Graph.empty(1))
