"""Maximum clique against a combinations brute force."""

from __future__ import annotations

import itertools
import random

import networkx as nx

from distcrit import Graph, max_clique_size
from distcrit.clique import _color_order
from distcrit.constructions import gamma
from conftest import random_graph, to_nx


def brute_clique_size(g: Graph) -> int:
    for size in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), size):
            if all(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
                return size
    return 0


def test_against_brute_force():
    rng = random.Random(99)
    for _ in range(200):
        g = random_graph(rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]), rng)
        assert max_clique_size(g) == brute_clique_size(g)


def test_known_values(petersen):
    assert max_clique_size(petersen) == 2
    k7 = Graph.from_edges(7, [(i, j) for i in range(7) for j in range(i + 1, 7)])
    assert max_clique_size(k7) == 7
    assert max_clique_size(Graph.empty(5)) == 1
    assert max_clique_size(Graph.empty(0)) == 0
    for m in (3, 4, 5):
        g, _ = gamma(m)
        assert max_clique_size(g) == m * (m - 1) // 2


def test_clique_deeper_than_the_recursion_limit():
    # the search keeps one frame per clique vertex; at K_1000 a recursive
    # search would pass the interpreter's default limit of 1000 frames
    k = Graph(1000, [((1 << 1000) - 1) ^ 1 << v for v in range(1000)],
              check=False)
    assert max_clique_size(k) == 1000


def test_against_networkx_on_larger_graphs():
    # find_cliques lists every maximal clique, so its cost grows with
    # their number: 5.7 s on one G(64, 0.9), hence the smaller n there
    rng = random.Random(4102)
    sizes = {0.3: range(20, 65, 2), 0.5: range(20, 65, 2),
             0.7: range(20, 65, 2), 0.9: range(20, 45, 2)}
    for p, ns in sizes.items():
        for n in ns:
            g = random_graph(n, p, rng)
            assert max_clique_size(g) == max(map(len, nx.find_cliques(to_nx(g))))


def test_color_order_lists_the_classes_from_kmin():
    rng = random.Random(4103)
    for _ in range(60):
        g = random_graph(rng.randint(1, 40), rng.choice([0.2, 0.5, 0.8]), rng)
        cand = rng.getrandbits(g.n)
        full = _color_order(g.adj, cand, 1)
        # the classes are independent and partition cand, in class order
        assert sorted(v for v, _ in full) == [v for v in range(g.n)
                                              if cand >> v & 1]
        assert [c for _, c in full] == sorted(c for _, c in full)
        for (a, ca), (b, cb) in itertools.combinations(full, 2):
            assert ca != cb or not g.has_edge(a, b)
        top = max((c for _, c in full), default=0)
        for kmin in range(-1, top + 2):
            assert _color_order(g.adj, cand, kmin) == [
                (v, c) for v, c in full if c >= kmin]
