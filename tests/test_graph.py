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
    disjoint_union,
    girth,
    is_connected,
    is_two_connected,
)
from distcrit.constructions import cycle
from conftest import random_graph, random_tree


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


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

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))
        with pytest.raises(ValueError):
            Graph(1, (0b1,))

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
        for _ in range(200):
            g = random_graph(rng.randint(1, 8), rng.choice([0.2, 0.4, 0.7]), rng)
            h = to_nx(g)
            assert is_connected(g) == nx.is_connected(h)
            assert set(articulation_points(g)) == set(nx.articulation_points(h))
            if g.n >= 3:
                cut_free = not list(nx.articulation_points(h))
                assert is_two_connected(g) == (nx.is_connected(h) and cut_free)

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


def test_disjoint_union_offsets():
    g = disjoint_union(Graph.from_edges(2, [(0, 1)]),
                       Graph.from_edges(3, [(0, 2)]))
    assert g.n == 5
    assert set(g.edges()) == {(0, 1), (2, 4)}
