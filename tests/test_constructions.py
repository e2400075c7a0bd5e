"""Explicit families: structural invariants and criticality."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

from distcrit import (
    Graph,
    canonical_form,
    cycle,
    cycle_power,
    embed_host,
    encode_graph6,
    gamma,
    is_distance_critical,
    is_distance_critical_direct,
    max_clique_size,
    max_degree_extremal,
    regular_extremal,
)
from distcrit.criticality import _is_critical_fast
from distcrit.graph import bits
from conftest import random_graph, run_capped


class TestCycles:
    def test_cycle_basics(self):
        c6 = cycle(6)
        assert c6.edge_count() == 6 and c6.is_regular() and c6.degree(0) == 2
        with pytest.raises(ValueError):
            cycle(2)

    def test_cycle_power_edges(self):
        g = cycle_power(9, 2)
        assert g.is_regular() and g.degree(0) == 4
        assert g.has_edge(0, 2) and not g.has_edge(0, 3)
        assert cycle_power(5, 1) == cycle(5)

    def test_cycle_power_matches_the_definition(self):
        for n in range(3, 41):
            for k in range(1, n):
                g = cycle_power(n, k)
                assert g.edges() == [
                    (i, j) for i in range(n) for j in range(i + 1, n)
                    if min(j - i, n - j + i) <= k]
        g = cycle_power(1024, 255)
        assert g.is_regular() and g.degree(0) == 510
        assert g.neighbors(700) == tuple(sorted(
            (700 + d) % 1024 for d in range(-255, 256) if d))

    def test_cycle_power_saturates_to_complete(self):
        g = cycle_power(6, 3)
        assert g.edge_count() == 15

    def test_cycle_power_validation(self):
        with pytest.raises(ValueError):
            cycle_power(2, 1)
        with pytest.raises(ValueError):
            cycle_power(6, 0)
        with pytest.raises(ValueError):
            cycle_power(6, 6)

    def test_square_cycles_critical(self):
        assert is_distance_critical(cycle_power(9, 2))
        assert is_distance_critical(cycle_power(10, 2))


class TestGamma:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_shape_and_criticality(self, m):
        g, layout = gamma(m)
        na = m * (m - 1) // 2
        assert g.n == m * (m + 5) // 2
        assert g.edge_count() == na * (na - 1) // 2 + 2 * na + 2 * m + 2 * m
        assert is_distance_critical(g)
        assert max_clique_size(g) == na
        assert layout.m == m
        assert sorted(layout.a.values()) + list(layout.b) + list(layout.c) \
            == list(range(g.n))

    def test_known_edge_counts(self):
        g3, _ = gamma(3)
        g5, _ = gamma(5)
        assert g3.edge_count() == 21
        assert g5.edge_count() == 85

    def test_layout_edge_roles(self):
        g, lay = gamma(4)
        # clique part: all pairs adjacent
        ids = sorted(lay.a.values())
        for x in ids:
            for y in ids:
                if x < y:
                    assert g.has_edge(x, y)
        # pair {i, j} meets exactly b_i and b_j in the middle layer
        for (i, j), v in lay.a.items():
            mids = [b for b in lay.b if g.has_edge(v, b)]
            assert mids == sorted((lay.b[i], lay.b[j]))
        # middle b_i meets exactly the antipodal rim pair c_i, c_{i+m}
        for i, bv in enumerate(lay.b):
            rims = [c for c in lay.c if g.has_edge(bv, c)]
            assert rims == sorted((lay.c[i], lay.c[i + lay.m]))
        # rim is a single cycle
        rim = set(lay.c)
        for t, cv in enumerate(lay.c):
            nbrs = [u for u in g.neighbors(cv) if u in rim]
            assert sorted(nbrs) == sorted((lay.c[(t - 1) % (2 * lay.m)],
                                           lay.c[(t + 1) % (2 * lay.m)]))

    def test_named_witness_pairs(self):
        g, lay = gamma(4)
        for (i, j), v in lay.a.items():
            assert g.adj[lay.b[i]] & g.adj[lay.b[j]] == 1 << v
        for i, bv in enumerate(lay.b):
            assert g.adj[lay.c[i]] & g.adj[lay.c[i + lay.m]] == 1 << bv
        for t, cv in enumerate(lay.c):
            prev_c = lay.c[(t - 1) % (2 * lay.m)]
            next_c = lay.c[(t + 1) % (2 * lay.m)]
            assert g.adj[prev_c] & g.adj[next_c] == 1 << cv

    def test_non_edge_count_at_least_n(self):
        for m in (3, 4, 5, 6):
            g, _ = gamma(m)
            non_edges = g.n * (g.n - 1) // 2 - g.edge_count()
            assert non_edges >= g.n

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            gamma(2)


class TestEmbedHost:
    def test_random_graphs_embed(self):
        rng = random.Random(2024)
        for _ in range(8):
            base = random_graph(rng.randint(3, 8), rng.choice([0.3, 0.6]), rng)
            host, inj = embed_host(base)
            assert is_distance_critical(host)
            assert sorted(inj) == list(range(base.n))
            image = [inj[v] for v in range(base.n)]
            assert len(set(image)) == base.n
            for x in range(base.n):
                for y in range(x + 1, base.n):
                    assert base.has_edge(x, y) == host.has_edge(inj[x], inj[y])

    def test_host_order_uses_smallest_m(self):
        g = random_graph(7, 0.4, random.Random(1))
        host, _ = embed_host(g)
        # smallest m with m(m-1)/2 >= 7 is 5; order n + ... = 7 + 3m
        assert host.n == 7 + 15

    def test_extreme_inputs(self):
        empty = Graph.empty(4)
        host, inj = embed_host(empty)
        assert is_distance_critical(host)
        assert all(not host.has_edge(inj[x], inj[y])
                   for x in range(4) for y in range(x + 1, 4))
        k5 = Graph.from_edges(5, [(i, j) for i in range(5)
                                  for j in range(i + 1, 5)])
        host, inj = embed_host(k5)
        assert is_distance_critical(host)
        with pytest.raises(ValueError):
            embed_host(Graph.empty(2))


class TestMaxDegreeExtremal:
    @pytest.mark.parametrize("n", range(6, 15))
    def test_degree_and_criticality(self, n):
        g = max_degree_extremal(n)
        assert g.n == n
        assert g.max_degree() == n - 4
        assert is_distance_critical(g)

    def test_seed_graphs(self):
        assert canonical_form(max_degree_extremal(6)) == canonical_form(cycle(6))
        with pytest.raises(ValueError):
            max_degree_extremal(5)


class TestRegularExtremal:
    @pytest.mark.parametrize("n", range(5, 17))
    def test_degree_and_criticality(self, n):
        g = regular_extremal(n)
        d = (n - 1) // 4 + n // 4
        assert g.is_regular() and g.degree(0) == d
        assert is_distance_critical(g)

    def test_antipodal_chords_at_8(self, antipodal_c8):
        got = regular_extremal(8)
        assert got == antipodal_c8
        chords = [(i, i + 4) for i in range(4)]
        want = cycle(8)
        for x, y in chords:
            want = want.add_edge(x, y)
        assert got == want

    def test_residue_one_is_pure_cycle_power(self):
        assert regular_extremal(9) == cycle_power(9, 2)
        assert regular_extremal(13) == cycle_power(13, 3)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            regular_extremal(4)

    def test_order_limit(self):
        # every multiple of 4 up to the vertex limit is built; above it,
        # the order is refused before any edge is built
        g = regular_extremal(1024)
        assert g.is_regular() and g.degree(0) == 511
        with pytest.raises(ValueError, match="exceeds 1024"):
            regular_extremal(1028)
        assert regular_extremal(37) == cycle_power(37, 9)
        assert regular_extremal(1023) == cycle_power(1023, 255)

    def test_multiple_of_four_refused_before_the_chords(self):
        # n = 4e8 would list 1e8 chords, gigabytes, before cycle_power saw
        # the order; under the cap that is a MemoryError, not the refusal
        code = ("from distcrit import regular_extremal\n"
                "try:\n"
                "    regular_extremal(400_000_000)\n"
                "except ValueError as exc:\n"
                "    print(exc)\n")
        proc = run_capped(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "construction order 400000000 exceeds 1024\n"


def least_critical_matching(n: int) -> Graph:
    """The chord search the closed form replaced: the first perfect
    matching of the complement of C_n^{(n-4)/4}, in lexicographic edge
    order (always matching the least uncovered vertex to its least
    available partner), whose addition is distance critical."""
    base = cycle_power(n, (n - 4) // 4)
    full = (1 << n) - 1
    comp = [~base.adj[v] & full & ~(1 << v) for v in range(n)]
    adj = list(base.adj)

    def extend(uncovered: int) -> bool:
        if uncovered == 0:
            return _is_critical_fast(adj, n)
        v = (uncovered & -uncovered).bit_length() - 1
        vbit = 1 << v
        for u in bits(comp[v] & uncovered & ~vbit):
            ubit = 1 << u
            adj[v] |= ubit
            adj[u] |= vbit
            if extend(uncovered & ~vbit & ~ubit):
                return True
            adj[v] &= ~ubit
            adj[u] &= ~vbit
        return False

    assert extend(full)
    return Graph(n, adj)


class TestRegularChords:
    """The closed-form chords for n divisible by 4."""

    # n = 8 took the antipodal chords before any search
    # (test_antipodal_chords_at_8)
    @pytest.mark.parametrize("n", range(12, 29, 4))
    def test_matches_the_matching_search(self, n):
        assert regular_extremal(n) == least_critical_matching(n)

    @pytest.mark.parametrize("n", [12, 20])
    def test_no_critical_circulant(self, n):
        # why the chords cannot be rotation invariant: every circulant of
        # degree n/2 - 1 (the antipodal jump and (n - 4)/4 jump pairs)
        # fails
        for jumps in combinations(range(1, n // 2), (n - 4) // 4):
            offsets = set(jumps) | {n // 2} | {n - x for x in jumps}
            g = Graph(n, [sum(1 << (v + d) % n for d in offsets)
                          for v in range(n)])
            assert not is_distance_critical(g)

    def test_output_pinned(self):
        # graph6 lines for n = 5..32, taken from the matching search
        digest = hashlib.sha256()
        for n in range(5, 33):
            digest.update(encode_graph6(regular_extremal(n)).encode() + b"\n")
        assert digest.hexdigest() == (
            "597eacd9d9df2471e16b7ee38d19c84eb9905c5d563ed7b0ad6af3effac58453")

    def test_regular_and_critical_to_400(self):
        for n in range(8, 401, 4):
            g = regular_extremal(n)
            assert g.is_regular() and g.degree(0) == n // 2 - 1, n
            assert is_distance_critical(g), n
            if n <= 64:
                assert is_distance_critical_direct(g), n
