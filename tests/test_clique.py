"""Maximum clique against a combinations brute force."""

from __future__ import annotations

import itertools
import random

from distcrit import Graph, max_clique_size
from distcrit.constructions import gamma
from conftest import random_graph


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
