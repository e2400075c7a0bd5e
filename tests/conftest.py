"""Shared catalogs and fixture graphs.

The session-scoped catalogs are built once from the enumeration engine and
reused across test modules; independent oracles (brute-force dedup,
networkx) validate them in the individual test files.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import distcrit
from distcrit import (Graph, is_distance_critical, iter_all_graphs,
                      iter_connected, run_enumeration)
from distcrit.constructions import regular_extremal
from distcrit.enumeration import (_ROOT, _attach, _child_cut_mask,
                                  _child_states, _cut_sets, _iter_leaves)


# the directory this distcrit is imported from, for the PYTHONPATH of a
# new python process, so the process runs the code under test
SRC = str(Path(distcrit.__file__).resolve().parents[1])

# graph._transpose packs n rows into the next power of two at or above n,
# so its width changes just past each of these
WIDTH_BOUNDARIES = (127, 128, 129, 255, 256, 257, 511, 512, 513, 1023)


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


def relabeled(g: Graph, rng: random.Random) -> Graph:
    """g with its vertices renamed by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def to_nx(g: Graph):
    """g as a networkx graph, for the networkx oracles."""
    import networkx as nx
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def cofactor_determinant(matrix: list[list[int]]) -> int:
    """Exact integer determinant by first-row Laplace expansion."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for col in range(n):
        if matrix[0][col] == 0:
            continue
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        sign = 1 if col % 2 == 0 else -1
        total += sign * matrix[0][col] * cofactor_determinant(minor)
    return total


def prufer_tree(seq: list[int], n: int) -> Graph:
    """The labelled tree on n vertices with Pruefer sequence seq."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return Graph.from_edges(n, edges)


def run_capped(args: list[str], cap_mb: int = 400):
    """Run python with args in a new process whose address space is capped
    at cap_mb, with this distcrit importable; returns the CompletedProcess.

    Under the cap, building a structure of gigabytes fails at once with
    MemoryError instead of taking the machine's memory."""
    cap = cap_mb << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={"PYTHONPATH": SRC},
                          preexec_fn=limit, timeout=120)


def child_sets(k: int, state) -> list[int]:
    """The S of every accepted child of the node state on k vertices, in
    generation order, with the node's cut sets computed as the walk
    computes them."""
    adj, cut_mask = state
    return list(_child_states(adj, k, _cut_sets(adj, k, cut_mask)))


def augmentation_nodes(max_k: int, state=_ROOT, k: int = 1):
    """(k, state) for every node of the augmentation tree with k <= max_k,
    in generation order; state is (adjacency, cut-vertex mask), each
    child's mask derived from its parent's cut sets as the walk derives
    it (enumeration._child_cut_mask)."""
    yield k, state
    if k < max_k:
        adj, cut_mask = state
        cuts = _cut_sets(adj, k, cut_mask)
        for s in _child_states(adj, k, cuts):
            yield from augmentation_nodes(
                max_k, (_attach(adj, s), _child_cut_mask(cuts, s)), k + 1)


def leaf_items(*args, **kwargs):
    """_iter_leaves(*args, **kwargs) flattened into one item (f, parent,
    s, critical) per child S of each record, critical being bit S of the
    record's table."""
    for f, parent, table, children in _iter_leaves(*args, **kwargs):
        for s in children:
            yield f, parent, s, table >> s & 1


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
def critical_runs() -> dict:
    """n -> (tally, hits) of a critical-only run collecting the critical
    graphs, for n = 1..10, on up to 2 jobs: the one n = 10 critical-only
    walk of the suite."""
    jobs = min(2, os.cpu_count() or 1)
    return {n: run_enumeration(n, jobs=jobs, collect=True, critical_only=True)
            for n in range(1, 11)}


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
