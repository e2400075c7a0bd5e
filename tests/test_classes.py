"""The critical and edge-maximal classes for n <= 10, up to isomorphism.

tests/data holds the graph6 lines of every connected critical graph on
1..10 vertices (2,441) and of the edge-maximal ones (104), taken from the
engine (see tests/data/README.md).  A run is matched against them as a
multiset of isomorphism classes, so a change of canonical labels or of
generation order passes, while a lost, extra or repeated class fails.

Graphs are bucketed by an invariant (edge count, degree sequence, sorted
distance rows), and within a bucket matched by networkx's VF2, which
shares no code with distcrit.canon.
"""

from __future__ import annotations

import random
from collections import defaultdict
from pathlib import Path

import networkx as nx
import pytest

from distcrit import (Graph, all_pairs_distances, decode_graph6,
                      is_distance_critical)
from distcrit.constructions import max_degree_extremal, regular_extremal
from distcrit.criticality import _is_edge_maximal_fast
from conftest import relabeled, to_nx

DATA = Path(__file__).resolve().parent / "data"


def load(name: str) -> list[Graph]:
    return [decode_graph6(line)
            for line in (DATA / name).read_text().splitlines()]


def invariant(g: Graph) -> tuple:
    rows = tuple(sorted(tuple(sorted(row)) for row in all_pairs_distances(g)))
    return g.n, g.edge_count(), tuple(sorted(g.degree_sequence())), rows


def mismatches(got: list[Graph], want: list[Graph]) -> list[str]:
    """How got and want differ as multisets of isomorphism classes: one
    line per graph of got with no unused isomorphic partner in want, and
    one per graph of want left unmatched.  Empty iff they are equal."""
    buckets: dict[tuple, list[nx.Graph]] = defaultdict(list)
    for g in want:
        buckets[invariant(g)].append(to_nx(g))
    out = []
    for i, g in enumerate(got):
        bucket = buckets[invariant(g)]
        h = to_nx(g)
        j = next((j for j, c in enumerate(bucket)
                  if nx.is_isomorphic(h, c)), None)
        if j is None:
            out.append(f"extra: hit {i} (n={g.n}, {g.edge_count()} edges)")
        else:
            bucket.pop(j)
    for key, bucket in buckets.items():
        out += [f"missing: a class with n={key[0]}, {key[1]} edges"
                ] * len(bucket)
    return out


@pytest.fixture(scope="module")
def engine_classes(critical_runs) -> tuple[list[Graph], list[Graph]]:
    """The critical hits of a critical-only run per n = 1..10, and the
    edge-maximal ones among them."""
    critical = [g for n in range(1, 11) for g in critical_runs[n][1]]
    maximal = [g for g in critical if _is_edge_maximal_fast(g.adj, g.n)]
    return critical, maximal


class TestIsomorphismClasses:
    def test_data_are_distinct_classes(self):
        critical = load("critical_n1-10.g6")
        maximal = load("maximal_n1-10.g6")
        by_n: dict[int, int] = defaultdict(int)
        for g in critical:
            by_n[g.n] += 1
        assert dict(by_n) == {5: 1, 6: 1, 7: 4, 8: 15, 9: 168, 10: 2252}
        assert len(maximal) == 104
        # no two lines of the critical file are isomorphic
        buckets = defaultdict(list)
        for g in critical:
            buckets[invariant(g)].append(to_nx(g))
        assert not any(nx.is_isomorphic(a, b) for bucket in buckets.values()
                       for i, a in enumerate(bucket) for b in bucket[:i])
        # and the edge-maximal classes are among them
        lines = mismatches(maximal, critical)
        assert len(lines) == 2441 - 104
        assert all(line.startswith("missing") for line in lines)

    def test_run_matches_the_data(self, engine_classes):
        critical, maximal = engine_classes
        assert mismatches(critical, load("critical_n1-10.g6")) == []
        assert mismatches(maximal, load("maximal_n1-10.g6")) == []

    def test_a_lost_or_repeated_class_fails(self, engine_classes):
        critical = engine_classes[0]
        want = load("critical_n1-10.g6")
        rng = random.Random(1)
        # a run that drops one graph
        i = len(critical) // 2
        assert mismatches(critical[:i] + critical[i + 1:], want) == [
            f"missing: a class with n={critical[i].n}, "
            f"{critical[i].edge_count()} edges"]
        # a run that yields a relabeled copy of one hit in place of
        # another hit of the same order and edge count
        pairs = defaultdict(list)
        for i, g in enumerate(critical):
            pairs[g.n, g.edge_count()].append(i)
        i, j = next(ij[:2] for ij in pairs.values() if len(ij) > 1)
        mutant = list(critical)
        mutant[j] = relabeled(critical[i], rng)
        assert len(mismatches(mutant, want)) == 2


def profile(graphs: list[nx.Graph]) -> tuple:
    """(graphs, fewest edges, most edges, graphs with the most edges,
    largest clique number, largest maximum degree, largest minimum
    degree, regular graphs, largest degree of a regular graph) of a
    nonempty list of graphs."""
    edges = [h.number_of_edges() for h in graphs]
    degrees = [sorted(d for _, d in h.degree) for h in graphs]
    regular = [ds[0] for ds in degrees if ds[0] == ds[-1]]
    return (
        len(graphs),
        min(edges),
        max(edges),
        edges.count(max(edges)),
        max(max(map(len, nx.find_cliques(h))) for h in graphs),
        max(ds[-1] for ds in degrees),
        max(ds[0] for ds in degrees),
        len(regular),
        max(regular, default=0),
    )


@pytest.fixture(scope="module")
def profiles() -> dict[str, list[tuple]]:
    """The columns of the profiles of orders 5..10 of the critical and of
    the edge-maximal class data."""
    out = {}
    for name in ("critical_n1-10.g6", "maximal_n1-10.g6"):
        by_n: dict[int, list[nx.Graph]] = defaultdict(list)
        for g in load(name):
            by_n[g.n].append(to_nx(g))
        out[name] = list(zip(*(profile(by_n[n]) for n in range(5, 11))))
    return out


class TestExtremalProfile:
    """The extremal profile of the critical and edge-maximal classes on
    5..10 vertices, recomputed with networkx from the class data, and the
    extremal families against it."""

    def test_profile_is_pinned(self, profiles):
        assert profiles["critical_n1-10.g6"] == [
            (1, 1, 4, 15, 168, 2252),  # graphs
            (5, 6, 7, 8, 9, 10),  # fewest edges: the cycles
            (5, 6, 10, 12, 18, 21),  # most edges
            (1, 1, 1, 3, 2, 4),  # graphs with the most edges
            (2, 2, 3, 3, 4, 5),  # largest clique number
            (2, 2, 3, 4, 5, 6),  # largest maximum degree
            (2, 2, 2, 3, 4, 4),  # largest minimum degree
            (1, 1, 1, 3, 2, 14),  # regular critical graphs
            (2, 2, 2, 3, 4, 4),  # their largest degree
        ]
        # which meets the bound floor((n - 1) / 4) + floor(n / 4)
        assert profiles["critical_n1-10.g6"][8] == tuple(
            (n - 1) // 4 + n // 4 for n in range(5, 11))

    def test_edge_maximal_profile_is_pinned(self, profiles):
        assert profiles["maximal_n1-10.g6"] == [
            (1, 1, 2, 4, 14, 82),  # graphs
            (5, 6, 7, 11, 12, 14),  # fewest edges
            (5, 6, 10, 12, 18, 21),  # most edges
            (1, 1, 1, 3, 2, 4),  # graphs with the most edges
            (2, 2, 3, 3, 4, 5),  # largest clique number
            (2, 2, 3, 4, 5, 6),  # largest maximum degree
            (2, 2, 2, 3, 4, 4),  # largest minimum degree
            (1, 1, 1, 2, 1, 1),  # regular edge-maximal graphs
            (2, 2, 2, 3, 4, 4),  # their largest degree
        ]

    def test_families_meet_the_census(self, profiles):
        # max_degree_extremal(n) (n >= 6) attains the census's largest
        # maximum degree, and regular_extremal(n) its largest regular
        # degree
        census = profiles["critical_n1-10.g6"]
        for i, n in enumerate(range(5, 11)):
            if n >= 6:
                g = max_degree_extremal(n)
                assert is_distance_critical(g)
                assert g.max_degree() == census[5][i]
            g = regular_extremal(n)
            assert is_distance_critical(g)
            assert g.min_degree() == g.max_degree() == census[8][i]
