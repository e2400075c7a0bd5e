"""Shared catalogs and fixture graphs.

The session-scoped catalogs are built once from the enumeration engine and
reused across test modules; independent oracles (brute-force dedup,
networkx) validate them in the individual test files.
"""

from __future__ import annotations

import random

import pytest

from distcrit import Graph, is_distance_critical, iter_all_graphs, iter_connected
from distcrit.constructions import regular_extremal
from distcrit.enumeration import _ROOT, _child_states


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    """Each vertex joins a random earlier one, then labels are shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(
        n, [(perm[i], perm[rng.randrange(i)]) for i in range(1, n)])


def augmentation_nodes(max_k: int, state=_ROOT, k: int = 1):
    """(k, state) for every node of the augmentation tree with k <= max_k,
    in generation order."""
    yield k, state
    if k < max_k:
        for child in _child_states(state, k):
            yield from augmentation_nodes(max_k, child, k + 1)


def child_adjacencies(adj: tuple[int, ...], k: int):
    """(S, child adjacency) for every nonempty neighbourhood S of a new
    vertex k attached to the parent adj."""
    for s in range(1, 1 << k):
        child = [row | (1 << k) if s >> v & 1 else row
                 for v, row in enumerate(adj)]
        child.append(s)
        yield s, child


@pytest.fixture(scope="session")
def connected_by_n() -> dict[int, list[Graph]]:
    return {n: list(iter_connected(n)) for n in range(1, 9)}


@pytest.fixture(scope="session")
def all_graphs_by_n() -> dict[int, list[Graph]]:
    return {n: list(iter_all_graphs(n)) for n in range(1, 9)}


@pytest.fixture(scope="session")
def criticals_by_n(connected_by_n) -> dict[int, list[Graph]]:
    return {n: [g for g in gs if is_distance_critical(g)]
            for n, gs in connected_by_n.items()}


@pytest.fixture(scope="session")
def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


@pytest.fixture(scope="session")
def dodecahedron() -> Graph:
    """Generalized Petersen graph GP(10, 2)."""
    outer = [(i, (i + 1) % 10) for i in range(10)]
    spokes = [(i, 10 + i) for i in range(10)]
    inner = [(10 + i, 10 + (i + 2) % 10) for i in range(10)]
    return Graph.from_edges(20, outer + spokes + inner)


@pytest.fixture(scope="session")
def antipodal_c8() -> Graph:
    """C8 plus the four antipodal chords; 3-regular on 8 vertices."""
    g = regular_extremal(8)
    assert g.edge_count() == 12
    return g


@pytest.fixture
def announce(capsys):
    """Print a line that bypasses pytest capture (acceptance reporting)."""
    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)
    return _announce
