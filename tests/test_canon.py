"""Canonical forms and automorphisms against brute-force oracles."""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

from distcrit import (Graph, automorphism_orbits, canonical_form,
                      decode_graph6, iter_all_graphs)
from distcrit.canon import _search, degree_cells, refine
from distcrit.graph import bits
from conftest import augmentation_nodes, child_adjacencies, random_graph


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[x], perm[y]) for x, y in g.edges()])


def pack_labeled_bits(g: Graph) -> bytes:
    """Pack g's upper triangle row-major, MSB first, without relabeling."""
    out = bytearray((g.n * (g.n - 1) // 2 + 7) // 8)
    k = 0
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.has_edge(i, j):
                out[k >> 3] |= 1 << (7 - (k & 7))
            k += 1
    return bytes(out)


def refine_rescan_all(adj, cells, abort=None):
    """Equitable refinement that rescans every cell from the first after
    each split, the implementation the inert-splitter refine replaced."""
    cells = list(cells)
    while True:
        for splitter in cells:
            new_cells = []
            for cell in cells:
                buckets: dict[int, int] = {}
                for v in range(len(adj)):
                    if cell >> v & 1:
                        c = (adj[v] & splitter).bit_count()
                        buckets[c] = buckets.get(c, 0) | 1 << v
                new_cells.extend(buckets[c] for c in sorted(buckets))
            if len(new_cells) > len(cells):
                cells = new_cells
                if abort is not None and abort(cells):
                    return None
                break
        else:
            return cells


def least_leaf_bits(g: Graph) -> bytes:
    """Least packed form over every leaf of the unpruned refinement tree:
    refine, individualize each vertex of the first non-singleton cell in
    turn, recurse."""
    best = None

    def walk(cells):
        nonlocal best
        cells = refine_rescan_all(g.adj, cells)
        target = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if target is None:
            pos = {cell.bit_length() - 1: i for i, cell in enumerate(cells)}
            leaf = pack_labeled_bits(relabel(g, [pos[v] for v in range(g.n)]))
            if best is None or leaf < best:
                best = leaf
            return
        cell = cells[target]
        for v in range(g.n):
            if cell >> v & 1:
                walk(cells[:target] + [1 << v, cell ^ 1 << v]
                     + cells[target + 1:])

    walk(degree_cells(g.adj, g.n))
    return best


def brute_orbit_reps(g: Graph) -> tuple[int, ...]:
    """Least orbit member per vertex, from a full permutation scan."""
    edges = {frozenset(e) for e in g.edges()}
    autos = [p for p in itertools.permutations(range(g.n))
             if {frozenset((p[x], p[y])) for x, y in g.edges()} == edges]
    return tuple(min(p[v] for p in autos) for v in range(g.n))


class TestCanonicalForm:
    def test_relabel_invariance(self):
        rng = random.Random(101)
        for _ in range(250):
            g = random_graph(rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]), rng)
            cf = canonical_form(g)
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == cf

    def test_separates_all_classes_exhaustively(self):
        # every labeled graph on n <= 5 vertices; class counts must match
        # the unlabeled-graph census 1, 2, 4, 11, 34
        want = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
        for n, count in want.items():
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            forms = set()
            for mask in range(1 << len(pairs)):
                edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
                forms.add(canonical_form(Graph.from_edges(n, edges)))
            assert len(forms) == count

    def test_connected_class_counts(self, connected_by_n):
        want = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
        for n, count in want.items():
            forms = {canonical_form(g) for g in connected_by_n[n]}
            assert len(forms) == count == len(connected_by_n[n])

    def test_form_is_lexicographically_least(self):
        # for n <= 5 the least leaf of the refinement tree is also the
        # minimum over all relabelings (not so from n = 6 on; see
        # test_form_is_not_the_global_minimum)
        rng = random.Random(202)
        for _ in range(40):
            g = random_graph(rng.randint(2, 5), rng.choice([0.3, 0.6]), rng)
            cf = canonical_form(g)
            least = min(
                pack_labeled_bits(relabel(g, list(p)))
                for p in itertools.permutations(range(g.n)))
            assert cf.bits == least

    def test_form_is_least_refinement_leaf(self):
        # the documented contract, on every class with 6 and 7 vertices
        for n in (6, 7):
            for g in iter_all_graphs(n):
                assert canonical_form(g).bits == least_leaf_bits(g)

    def test_form_is_not_the_global_minimum(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5),
                                 (3, 5)])
        global_least = min(
            pack_labeled_bits(relabel(g, list(p)))
            for p in itertools.permutations(range(6)))
        assert global_least == (0b000010110110001 << 1).to_bytes(2, "big")
        assert canonical_form(g).bits == \
            (0b000100101101001 << 1).to_bytes(2, "big")

    def test_labeling_produces_the_form(self):
        rng = random.Random(55)
        for _ in range(100):
            g = random_graph(rng.randint(1, 8), 0.5, rng)
            _, lab, _, _ = _search(g.adj, g.n)
            assert sorted(lab) == list(range(g.n))
            pos = {v: i for i, v in enumerate(lab)}
            h = relabel(g, [pos[v] for v in range(g.n)])
            assert canonical_form(g) == canonical_form(h)
            assert canonical_form(g).bits == pack_labeled_bits(h)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 10 ** 9), st.integers(0, 10 ** 9))
    def test_distinct_forms_imply_nonisomorphic(self, n, seed_a, seed_b):
        rng_a, rng_b = random.Random(seed_a), random.Random(seed_b)
        a = random_graph(n, 0.5, rng_a)
        b = random_graph(n, 0.5, rng_b)
        same_form = canonical_form(a) == canonical_form(b)
        edges = {frozenset(e) for e in b.edges()}
        iso = any(
            {frozenset((p[x], p[y])) for x, y in a.edges()} == edges
            for p in itertools.permutations(range(n)))
        assert same_form == iso


class TestRefine:
    """refine against the rescan-everything oracle: same result and the
    same partitions, in the same order, at every abort check."""

    @staticmethod
    def assert_same_run(adj, cells, equitable=()):
        seen, want = [], []
        got = refine(adj, cells, lambda cs: seen.append(list(cs)) or False,
                     equitable)
        expect = refine_rescan_all(
            adj, cells, lambda cs: want.append(list(cs)) or False)
        assert got == expect
        assert seen == want

    def test_random_graphs_and_partitions(self):
        rng = random.Random(606)
        for _ in range(400):
            g = random_graph(rng.randint(1, 24),
                             rng.choice([0.1, 0.3, 0.5, 0.8]), rng)
            cells = degree_cells(g.adj, g.n)
            idx = rng.randrange(len(cells))
            if cells[idx] & (cells[idx] - 1) and rng.random() < 0.5:
                low = cells[idx] & -cells[idx]
                cells[idx:idx + 1] = [low, cells[idx] ^ low]
            self.assert_same_run(g.adj, cells)

    def test_every_augmentation_child_to_seven(self):
        for k, (adj, _) in augmentation_nodes(6):
            for _, child in child_adjacencies(adj, k):
                self.assert_same_run(child, degree_cells(child, k + 1))

    def test_individualized_stable_partitions(self):
        # what _individualize passes: a vertex split off a cell of a
        # stable partition, with that partition's cells as equitable
        rng = random.Random(909)
        runs = 0
        for _ in range(300):
            g = random_graph(rng.randint(2, 24),
                             rng.choice([0.1, 0.3, 0.5, 0.8]), rng)
            stable = refine(g.adj, degree_cells(g.adj, g.n))
            for _ in range(3):
                wide = [t for t, c in enumerate(stable) if c & (c - 1)]
                if not wide:
                    break
                t = rng.choice(wide)
                low = 1 << rng.choice(list(bits(stable[t])))
                cells = stable[:t] + [low, stable[t] ^ low] + stable[t + 1:]
                self.assert_same_run(g.adj, cells, stable)
                runs += 1
                stable = refine(g.adj, cells)
        assert runs >= 300

    def test_dense_graphs_and_splitters_of_every_size(self):
        # counts of 32 and more take six bit planes; each run starts from a
        # cell of one size, 1 to 64, at a random place in a random ordered
        # partition, so every splitter size is applied
        rng = random.Random(1212)
        most = 0
        for size in range(1, 65):
            n = rng.randint(max(25, size), 64)
            g = random_graph(n, rng.choice([0.6, 0.8, 0.95]), rng)
            order = list(range(n))
            rng.shuffle(order)
            cell = sum(1 << v for v in order[:size])
            rest = order[size:]
            cells = []
            while rest:
                cut = rng.randint(1, len(rest))
                cells.append(sum(1 << v for v in rest[:cut]))
                rest = rest[cut:]
            cells.insert(rng.randint(0, len(cells)), cell)
            most = max(most, max((row & cell).bit_count() for row in g.adj))
            self.assert_same_run(g.adj, cells)
        assert most >= 32

    def test_abort_stops_at_the_same_partition(self):
        rng = random.Random(707)
        for _ in range(100):
            g = random_graph(rng.randint(4, 20), 0.3, rng)
            cells = degree_cells(g.adj, g.n)
            steps: list[list[int]] = []
            refine_rescan_all(g.adj, cells,
                              lambda cs: steps.append(list(cs)) or False)
            if not steps:
                continue
            stop = rng.randrange(len(steps))
            calls: list[list[int]] = []

            def abort(cs):
                calls.append(list(cs))
                return len(calls) > stop

            assert refine(g.adj, cells, abort) is None
            assert calls == steps[:stop + 1]


class TestSearchFromStable:
    """_search started from a given stable root partition returns the same
    form, labeling, orbit reps and generators as from the degree cells."""

    @staticmethod
    def assert_same_search(adj, n):
        stable = refine(adj, degree_cells(adj, n))
        assert _search(adj, n, stable) == _search(adj, n)

    def test_every_augmentation_child_to_seven(self):
        for k, (adj, _) in augmentation_nodes(6):
            for _, child in child_adjacencies(adj, k):
                self.assert_same_search(tuple(child), k + 1)

    def test_random_graphs(self):
        rng = random.Random(808)
        for _ in range(300):
            g = random_graph(rng.randint(1, 24),
                             rng.choice([0.1, 0.3, 0.5, 0.8]), rng)
            self.assert_same_search(g.adj, g.n)


class TestSearchPin:
    # sha256 of repr(_search(adj, n)[:3]), the form, labeling and orbit
    # representatives, over K0 and then every graph on 1..7 vertices in
    # the order and with the labels of tests/data/all_n1-7.g6: 1,253
    # graphs.  Taken while _search still backtracked on twin partitions
    # and special-cased K0, K1, complete and empty graphs, so reading twin
    # partitions changed none of them.  The graphs are read from the file,
    # which the enumeration engine wrote while it still chose the
    # deletion by cell order, so a change of the engine's labels leaves
    # this pin alone.
    SEARCH_SHA256 = (
        "b9b60ee99f0dd252e92e17e0791287ad347652918b8e68d794eb5fe921ad18c1")

    def test_search_on_every_graph_to_seven(self):
        data = Path(__file__).resolve().parent / "data" / "all_n1-7.g6"
        h = hashlib.sha256(repr(_search((), 0)[:3]).encode())
        count = 1
        for line in data.read_text().splitlines():
            g = decode_graph6(line)
            h.update(repr(_search(g.adj, g.n)[:3]).encode())
            count += 1
        assert count == 1253
        assert h.hexdigest() == self.SEARCH_SHA256


class TestAutomorphisms:
    def test_orbits_match_brute_force(self):
        rng = random.Random(303)
        for _ in range(120):
            g = random_graph(rng.randint(1, 6), rng.choice([0.3, 0.6]), rng)
            assert automorphism_orbits(g) == brute_orbit_reps(g)

    def test_generators_are_automorphisms(self):
        rng = random.Random(404)
        for _ in range(120):
            g = random_graph(rng.randint(2, 8), 0.5, rng)
            edges = {frozenset(e) for e in g.edges()}
            for p in _search(g.adj, g.n)[3]:
                assert sorted(p) == list(range(g.n))
                assert {frozenset((p[x], p[y])) for x, y in g.edges()} == edges

    def test_generators_span_the_orbits(self):
        # closure of the generators must reproduce the orbit partition
        rng = random.Random(505)
        for _ in range(60):
            g = random_graph(rng.randint(1, 7), 0.5, rng)
            parent = list(range(g.n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for p in _search(g.adj, g.n)[3]:
                for v in range(g.n):
                    a, b = find(v), find(p[v])
                    if a != b:
                        parent[a] = b
            closure_rep = tuple(
                min(u for u in range(g.n) if find(u) == find(v))
                for v in range(g.n))
            assert closure_rep == automorphism_orbits(g)

    def test_search_swaps_the_hubs(self):
        # hubs 0 and 1 on an edge, each joined to a 6-cycle and two
        # triangles, listed in opposite orders: refinement cannot tell the
        # cycles from the triangles, and the hubs are no twins, so only
        # the search's branches find the automorphisms that swap the hubs
        def cycle(vs):
            return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

        edges = [(0, 1)] + [(0, v) for v in range(2, 14)] \
            + [(1, v) for v in range(14, 26)]
        for vs in (range(2, 8), range(8, 11), range(11, 14),
                   range(14, 17), range(17, 20), range(20, 26)):
            edges += cycle(vs)
        g = Graph.from_edges(26, edges)
        assert automorphism_orbits(g) == (0, 0) + (2,) * 6 + (8,) * 12 \
            + (2,) * 6

    def test_search_leaves_no_cycle(self, petersen):
        # the recursive search closure is dropped before _search returns,
        # so reference counting alone frees what one call built
        gc.collect()
        gc.disable()
        try:
            _search(petersen.adj, 10)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_known_groups(self, petersen):
        # vertex-transitive examples collapse to the single representative 0
        assert automorphism_orbits(petersen) == (0,) * 10
        c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert automorphism_orbits(c5) == (0,) * 5
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert automorphism_orbits(star) == (0, 1, 1, 1)
