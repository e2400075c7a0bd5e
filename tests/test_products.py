"""Graph products: shape oracles, networkx cross-checks, criticality lemmas."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from distcrit import (
    Graph,
    ProductKind,
    canonical_form,
    check_product_lemmas,
    is_distance_critical,
    product,
)
from distcrit.constructions import cycle
from conftest import random_graph


def nx_product(kind: ProductKind, g: Graph, h: Graph) -> Graph:
    build = {
        ProductKind.CARTESIAN: nx.cartesian_product,
        ProductKind.TENSOR: nx.tensor_product,
        ProductKind.STRONG: nx.strong_product,
    }[kind]
    a, b = nx.Graph(g.edges()), nx.Graph(h.edges())
    a.add_nodes_from(range(g.n))
    b.add_nodes_from(range(h.n))
    p = build(a, b)
    edges = [(x * h.n + y, u * h.n + v) for (x, y), (u, v) in p.edges()]
    return Graph.from_edges(g.n * h.n, edges)


class TestShapes:
    def test_small_identities(self):
        k2 = Graph.from_edges(2, [(0, 1)])
        assert canonical_form(product(ProductKind.CARTESIAN, k2, k2)) == \
            canonical_form(cycle(4))
        k4 = Graph.from_edges(4, [(i, j) for i in range(4)
                                  for j in range(i + 1, 4)])
        assert canonical_form(product(ProductKind.STRONG, k2, k2)) == \
            canonical_form(k4)
        # tensor of two K2 is a perfect matching on 4 vertices
        t = product(ProductKind.TENSOR, k2, k2)
        assert t.degree_sequence() == (1, 1, 1, 1) and t.edge_count() == 2

    def test_vertex_indexing_is_row_major(self):
        p2 = Graph.from_edges(2, [(0, 1)])
        p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
        prod = product(ProductKind.CARTESIAN, p2, p3)
        # vertex (x, y) = x * 3 + y; (0,0)-(1,0) is an edge of the K2 layer
        assert prod.has_edge(0, 3) and prod.has_edge(0, 1)
        assert not prod.has_edge(1, 3)

    def test_degrees(self):
        rng = random.Random(8)
        for _ in range(60):
            g = random_graph(rng.randint(1, 5), 0.5, rng)
            h = random_graph(rng.randint(1, 5), 0.5, rng)
            cart = product(ProductKind.CARTESIAN, g, h)
            tens = product(ProductKind.TENSOR, g, h)
            strg = product(ProductKind.STRONG, g, h)
            for x in range(g.n):
                for y in range(h.n):
                    dg, dh = g.degree(x), h.degree(y)
                    v = x * h.n + y
                    assert cart.degree(v) == dg + dh
                    assert tens.degree(v) == dg * dh
                    assert strg.degree(v) == dg + dh + dg * dh

    def test_against_networkx(self):
        rng = random.Random(9)
        for _ in range(60):
            g = random_graph(rng.randint(1, 5), 0.5, rng)
            h = random_graph(rng.randint(1, 5), 0.5, rng)
            for kind in ProductKind:
                assert product(kind, g, h) == nx_product(kind, g, h)

    def test_commutative_up_to_isomorphism(self):
        rng = random.Random(10)
        for _ in range(40):
            g = random_graph(rng.randint(1, 5), 0.5, rng)
            h = random_graph(rng.randint(1, 5), 0.5, rng)
            for kind in ProductKind:
                assert canonical_form(product(kind, g, h)) == \
                    canonical_form(product(kind, h, g))


class TestCriticalityLemmas:
    def test_cartesian_with_arbitrary_connected(self, connected_by_n):
        c5 = cycle(5)
        for n in range(1, 6):
            for h in connected_by_n[n]:
                assert is_distance_critical(product(ProductKind.CARTESIAN, c5, h))

    def test_tensor_and_strong_of_criticals(self):
        c5 = cycle(5)
        assert is_distance_critical(product(ProductKind.TENSOR, c5, c5))
        assert is_distance_critical(product(ProductKind.STRONG, c5, c5))

    def test_counterexamples_with_non_critical_factor(self):
        c5, c4 = cycle(5), cycle(4)
        assert not is_distance_critical(product(ProductKind.TENSOR, c5, c4))
        assert not is_distance_critical(product(ProductKind.STRONG, c5, c4))
        # cartesian keeps criticality even with a non-critical factor
        assert is_distance_critical(product(ProductKind.CARTESIAN, c5, c4))

    def test_lemma_sweep_reports_no_violations(self):
        checks = check_product_lemmas(5)
        assert all(c.ok and c.violations == () for c in checks)
        # criticals up to n=5: just C5; connected graphs n <= 5: 31
        assert [(c.id, c.checked) for c in checks] == [
            ("CARTESIAN", 31), ("TENSOR", 1), ("STRONG", 1)]

    def test_lemma_sweep_at_cap_6(self):
        # 2 criticals up to n=6 (C5 and one on 6 vertices), 143 connected
        checks = check_product_lemmas(6)
        assert all(c.ok for c in checks)
        assert [(c.id, c.checked) for c in checks] == [
            ("CARTESIAN", 286), ("TENSOR", 4), ("STRONG", 4)]
        assert checks[1].universe == (
            "tensor products of two distance-critical factors, n <= 6")

    def test_lemma_sweep_cap_validation(self):
        with pytest.raises(ValueError):
            check_product_lemmas(0)
        with pytest.raises(ValueError):
            check_product_lemmas(7)


def test_kind_parsing():
    assert ProductKind("cartesian") is ProductKind.CARTESIAN
    with pytest.raises(ValueError):
        ProductKind("lexicographic")
