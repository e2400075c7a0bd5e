"""Isomorph-free enumeration against census values and a dedup oracle."""

from __future__ import annotations

import hashlib
import itertools
import os
import random

import networkx as nx
import pytest

from distcrit import (
    Graph,
    canonical_form,
    is_connected,
    iter_all_graphs,
    iter_connected,
    run_enumeration,
)
from distcrit import enumeration
from distcrit.canon import (
    _find,
    _search,
    _twin_pairs,
    _union,
    automorphism_orbits,
    degree_cells,
    refine,
)
from distcrit.constructions import cycle
from distcrit.criticality import (
    _alive_set,
    _girth_table,
    _is_critical_fast,
    _is_edge_maximal_fast,
    _pairless_sets,
    _table_of,
)
from distcrit.enumeration import (
    MAX_ENUM_N,
    _attach,
    _child_states,
    _cut_sets,
    _degree_sets,
    _iter_leaves,
    _key_ties,
    _subset_reps,
    _swap_group,
    _swap_taking,
    _twin_cell_reps,
)
from distcrit.graph import _articulation_mask, bits
from distcrit.graph6 import encode_graph6
from conftest import augmentation_nodes, child_adjacencies

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CRITICAL_COUNTS = {1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 1, 7: 4, 8: 15}
MAXIMAL_COUNTS = {5: 1, 6: 1, 7: 2, 8: 4}


def subset_reps_dfs(k: int, gens) -> int:
    """Least orbit members by a depth-first walk of each orbit, the
    implementation the table of orbit minima replaced; bit S set iff S is
    the least of its orbit."""
    size = 1 << k
    rep = 0
    seen = bytearray(size)
    for m in range(1, size):
        if seen[m]:
            continue
        rep |= 1 << m
        stack = [m]
        seen[m] = 1
        while stack:
            x = stack.pop()
            for g in gens:
                y = 0
                xx = x
                while xx:
                    low = xx & -xx
                    y |= 1 << g[low.bit_length() - 1]
                    xx ^= low
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return rep


def brute_connected_forms(n: int) -> set:
    """Canonical forms of connected graphs via exhaustive labeled dedup."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    forms = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            forms.add(canonical_form(g))
    return forms


class TestConnectedCensus:
    def test_counts_match_catalog(self, connected_by_n):
        for n, want in CONNECTED_COUNTS.items():
            assert len(connected_by_n[n]) == want

    def test_visits_are_isomorph_free_and_complete(self, connected_by_n):
        for n in range(1, 8):
            forms = {canonical_form(g) for g in connected_by_n[n]}
            assert len(forms) == CONNECTED_COUNTS[n]
            assert all(is_connected(g) for g in connected_by_n[n])
            assert all(g.n == n for g in connected_by_n[n])

    def test_against_labeled_brute_force(self, connected_by_n):
        for n in range(1, 7):
            assert {canonical_form(g) for g in connected_by_n[n]} == \
                brute_connected_forms(n)

    def test_visit_order_is_deterministic(self):
        first = [canonical_form(g) for g in iter_connected(6)]
        second = [canonical_form(g) for g in iter_connected(6)]
        assert first == second

    def test_graph6_output_is_pinned(self):
        # graph6 lines of every class on 7 and then 8 vertices, in
        # generation order; re-taken when rule (b) came to choose the
        # deletion by the vertex key, which moved the order and labels
        # (tests/test_classes.py checks the classes themselves)
        digest = hashlib.sha256()
        for n in (7, 8):
            for g in iter_connected(n):
                digest.update(encode_graph6(g).encode() + b"\n")
        assert digest.hexdigest() == (
            "1edf339371a609b4f0b9af5a5f258911c4193e96cdf762472f8f9f6d771f595d")

    def test_generation_order_is_pinned(self, connected_by_n):
        # the adjacency rows of every class on 1 to 8 vertices, in
        # generation order and with the engine's labels: a change to the
        # order or to the labels of any accepted child moves this hash.
        # Re-taken when rule (b) came to choose the deletion by the vertex
        # key
        digest = hashlib.sha256()
        for n in range(1, 9):
            for g in connected_by_n[n]:
                digest.update(" ".join(map(str, g.adj)).encode() + b"\n")
        assert digest.hexdigest() == (
            "5362b44ae793ec0436b70564029ef331bab0642bb5a05fa504b12bbc0b1267f5")


class TestAugmentationSteps:
    """Each fast step of the child test against the code it replaced."""

    def test_child_cut_sets_match_tarjan(self):
        children = 0
        for k, (adj, cut_mask) in augmentation_nodes(7):
            # the cut mask each node carries, from its parent's cut sets
            assert cut_mask == _articulation_mask(adj, k)
            cuts = _cut_sets(adj, k, cut_mask)
            assert len(cuts) == k
            assert all(not c & 1 and not c >> (1 << k) for c in cuts)
            for s, child in child_adjacencies(adj, k):
                got = sum(1 << u for u, c in enumerate(cuts) if c >> s & 1)
                assert got == _articulation_mask(child, k + 1)
                children += 1
        assert children == 116146

    def test_degree_sets_match_child_degrees(self):
        # ok: |S| is at least the child degree of every parent vertex that
        # is not a cut vertex of the child; lead: strictly above all of them
        children = oks = leads = 0
        for k, (adj, cut_mask) in augmentation_nodes(7):
            ok, lead = _degree_sets(adj, k, _cut_sets(adj, k, cut_mask))
            assert not (ok | lead) & 1 and not (ok | lead) >> (1 << k)
            for s, child in child_adjacencies(adj, k):
                cut = _articulation_mask(child, k + 1)
                need = max((child[u].bit_count() for u in range(k)
                            if not cut >> u & 1), default=0)
                assert ok >> s & 1 == (s.bit_count() >= need)
                assert lead >> s & 1 == (s.bit_count() > need)
                children += 1
                oks += ok >> s & 1
                leads += lead >> s & 1
        assert children == 116146
        assert 0 < leads < oks < children

    def test_subset_reps_match_orbit_dfs(self):
        checked = 0
        keys = set()
        for k, (adj, _) in augmentation_nodes(8):
            # every augmentation node up to k = 8 with a nontrivial
            # group, twin-cell ones included (the census reads theirs
            # from _twin_cell_reps, checked against this table below)
            stable = refine(adj, degree_cells(adj, k))
            gens = tuple(_search(adj, k, stable)[3])
            if not gens:
                continue
            got = _subset_reps(k, gens)
            assert isinstance(got, int)
            assert got == subset_reps_dfs(k, gens)
            checked += 1
            keys.add((k, gens))
        # every generator set of the parents of the n = 9 census, and the
        # distinct (k, generators) keys among them (which depend on the
        # labels the engine gives its nodes)
        assert checked == 8408
        assert len(keys) == 1787

    def test_twin_cell_reps_match_the_orbit_table(self):
        # every augmentation node to k = 8 whose stable cells are all
        # twins: the sets that meet each cell in a prefix are the orbit
        # minima of the group its cells' transpositions generate
        twin = discrete = 0
        for k, (adj, _) in augmentation_nodes(8):
            stable = refine(adj, degree_cells(adj, k))
            pairs = _twin_pairs(adj, stable)
            if pairs is None:
                continue
            gens = tuple(_search(adj, k, stable)[3])
            assert _twin_cell_reps(k, pairs) == _subset_reps(k, gens)
            twin += 1
            discrete += not pairs
        # the twin-cell parents of the n = 9 census: 5,440 of them have
        # generators, so only the other 2,968 call _subset_reps
        assert (twin - discrete, discrete) == (5440, 3705)

    def test_child_degree_cells_from_the_parent(self, monkeypatch):
        # every refinement of a candidate child starts from the child's
        # degree cells, though they are built from the parent's classes
        checked = 0

        def checking_refine(adj, cells, abort=None):
            nonlocal checked
            if abort is not None:
                assert cells == degree_cells(adj, len(adj))
                checked += 1
            return refine(adj, cells, abort)

        monkeypatch.setattr(enumeration, "refine", checking_refine)
        assert sum(1 for _ in augmentation_nodes(8)) == 12113
        # only a key tie with a vertex that is no twin of the new one is
        # refined
        assert checked == 2063

    def test_twin_cell_generators(self, connected_by_n):
        # where every non-singleton cell of the stable partition is all
        # twins, _search reads the group without backtracking: its
        # generators are automorphisms, and the orbits they span are the
        # ones networkx's VF2 finds
        read = 0
        for n in range(1, 8):
            for g in connected_by_n[n]:
                stable = refine(g.adj, degree_cells(g.adj, n))
                if _twin_pairs(g.adj, stable) is None:
                    continue
                read += 1
                gens = _search(g.adj, n, stable)[3]
                orbit = list(range(n))
                for perm in gens:
                    assert all(g.adj[perm[v]] == sum(
                        1 << perm[x] for x in bits(g.adj[v]))
                        for v in range(n))
                    for v, pv in enumerate(perm):
                        _union(orbit, v, pv)
                assert tuple(_find(orbit, v) for v in range(n)) == \
                    vf2_orbit_reps(g) == automorphism_orbits(g)
        assert read == 659

    def test_twin_cell_generators_by_hand(self):
        # C6 is one cell of non-twins; in K1,3 the leaves are one cell of
        # false twins and the centre is alone
        c6 = cycle(6)
        assert _twin_pairs(c6.adj, refine(
            c6.adj, degree_cells(c6.adj, 6))) is None
        star = (0b1110, 1, 1, 1)
        assert _search(star, 4, refine(star, degree_cells(star, 4)))[1:] == \
            ((1, 2, 3, 0), (0, 1, 1, 1), [(0, 2, 1, 3), (0, 1, 3, 2)])

    def test_subset_reps_on_9_and_10_vertices(self, petersen):
        # the 512- and 1024-bit tables, on vertex-transitive and
        # bipartite groups
        def complete_bipartite(a: int, b: int) -> Graph:
            return Graph.from_edges(a + b, [(i, a + j) for i in range(a)
                                            for j in range(b)])

        graphs = [cycle(9), cycle(10), complete_bipartite(4, 5),
                  complete_bipartite(5, 5), complete_bipartite(1, 9),
                  petersen]
        for g in graphs:
            gens = tuple(_search(g.adj, g.n)[3])
            assert gens
            assert _subset_reps(g.n, gens) == subset_reps_dfs(g.n, gens)

    def test_subset_reps_cache(self, petersen):
        assert _subset_reps.cache_info().maxsize == 1 << 16
        gens = tuple(_search(petersen.adj, 10)[3])
        _subset_reps.cache_clear()
        fresh = _subset_reps(10, gens)
        assert _subset_reps(10, gens) is fresh
        info = _subset_reps.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

        # after a clear each result is computed again and still equals
        # the orbit DFS
        nodes = [(k, tuple(_search(adj, k)[3])) for k, (adj, _) in
                 augmentation_nodes(6)]
        keys = {(k, gens) for k, gens in nodes if gens}
        assert len(keys) > 3
        _subset_reps.cache_clear()
        for k, gens in keys:
            assert _subset_reps(k, gens) == subset_reps_dfs(k, gens)
        info = _subset_reps.cache_info()
        assert (info.hits, info.misses) == (0, len(keys))


def vf2_orbit_reps(g: Graph) -> tuple[int, ...]:
    """Least vertex per automorphism orbit, by networkx's VF2: u is in
    the orbit of v iff g with v marked is isomorphic to g with u marked."""
    def marked(v: int) -> nx.Graph:
        h = nx.Graph(list(g.edges()))
        h.add_nodes_from(range(g.n))
        h.nodes[v]["mark"] = True
        return h

    def same(a: dict, b: dict) -> bool:
        return a.get("mark") == b.get("mark")

    return tuple(next(u for u in range(v + 1) if nx.is_isomorphic(
        marked(v), marked(u), node_match=same)) for v in range(g.n))


def parent_state(adj: tuple[int, ...]):
    """The augmentation node for the connected graph adj."""
    return adj, _articulation_mask(adj, len(adj))


def children_by_path(monkeypatch, state, k: int) -> dict:
    """Candidate child adjacency -> (how rule (b) was decided, accepted),
    for every candidate that passed rule (a) and the degree filter.  The
    paths are "lead" (no key compared), "key" (the vertex key's verdict,
    read from the parent), "early" (refine stopped early), and at a stable
    partition "twin" (only twins of the new vertex in its cell), "swap"
    (a propagated involution larger than a twin transposition, no
    search), "group" (a swap gave up, and _swap_group's generators
    accepted) or "fallback" (the canonical search)."""
    by_key: dict[int, bool] = {}
    stopped: dict[tuple[int, ...], bool] = {}
    swapped: set[tuple[int, ...]] = set()
    grouped: set[tuple[int, ...]] = set()
    searched: set[tuple[int, ...]] = set()

    def recording_key(adj, classes, sums, tris, s, cut):
        ties = _key_ties(adj, classes, sums, tris, s, cut)
        if not ties:
            by_key[s] = ties == 0
        return ties

    def recording_refine(adj, cells, abort=None):
        out = refine(adj, cells, abort)
        stopped[tuple(adj)] = out is None
        return out

    def recording_swap(adj, w, u, stable):
        # a transposition of twins is the "twin" path; any larger
        # involution moves four vertices or more
        perm = _swap_taking(adj, w, u, stable)
        if perm is not None and sum(v != pv for v, pv in enumerate(perm)) > 2:
            swapped.add(adj)
        return perm

    def recording_search(adj, n, stable=None):
        searched.add(adj)
        return _search(adj, n, stable)

    def recording_group(adj, n, stable):
        grouped.add(adj)
        return _swap_group(adj, n, stable)

    monkeypatch.setattr(enumeration, "_key_ties", recording_key)
    monkeypatch.setattr(enumeration, "refine", recording_refine)
    monkeypatch.setattr(enumeration, "_swap_taking", recording_swap)
    monkeypatch.setattr(enumeration, "_search", recording_search)
    monkeypatch.setattr(enumeration, "_swap_group", recording_group)
    accepted = [_attach(state[0], s) for s, _ in _child_states(state, k)]
    monkeypatch.undo()
    paths = {}
    # a key reject is never built; the parent is refined (and searched)
    # when it is expanded
    rejected = [_attach(state[0], s) for s, verdict in by_key.items()
                if not verdict]
    for child_adj in accepted + rejected + [a for a in stopped
                                            if len(a) == k + 1]:
        if child_adj[-1] in by_key:
            path = "key"
        elif child_adj not in stopped:
            path = "lead"
        elif stopped[child_adj]:
            path = "early"
        elif child_adj in searched:
            path = "fallback"
        elif child_adj in grouped:
            path = "group"
        elif child_adj in swapped:
            path = "swap"
        else:
            path = "twin"
        paths[child_adj] = path, child_adj in accepted
    return paths


def group_of(n: int, gens) -> frozenset:
    """Every element of the permutation group on n points that gens
    generate, by closure from the identity."""
    ident = tuple(range(n))
    group = {ident}
    todo = [ident]
    while todo:
        g = todo.pop()
        for h in gens:
            x = tuple([h[i] for i in g])
            if x not in group:
                group.add(x)
                todo.append(x)
    return frozenset(group)


def from_nx(h: nx.Graph) -> Graph:
    """h with its nodes numbered 0, 1, ... in sorted order."""
    h = nx.convert_node_labels_to_integers(h, ordering="sorted")
    return Graph.from_edges(h.number_of_nodes(), list(h.edges()))


def shrikhande() -> nx.Graph:
    """The Cayley graph of Z4 x Z4 with connection set +-(1, 0), +-(0, 1)
    and +-(1, 1)."""
    steps = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    return nx.Graph([((a, b), ((a + x) % 4, (b + y) % 4))
                     for a in range(4) for b in range(4) for x, y in steps])


def rook(m: int) -> nx.Graph:
    """The m x m rook's graph, K_m times K_m."""
    return nx.cartesian_product(nx.complete_graph(m), nx.complete_graph(m))


SYMMETRIC = {
    "C8": lambda: nx.cycle_graph(8),
    "Petersen": nx.petersen_graph,
    "K3,3": lambda: nx.complete_bipartite_graph(3, 3),
    "Q3": lambda: nx.hypercube_graph(3),
    "Q4": lambda: nx.hypercube_graph(4),
    "rook 3x3": lambda: rook(3),
    "rook 4x4": lambda: rook(4),
    "Paley(13)": lambda: nx.Graph(nx.paley_graph(13).to_undirected()),
    "Shrikhande": shrikhande,
    "Moebius-Kantor": lambda: nx.LCF_graph(16, [5, -5], 8),
    "Desargues": nx.desargues_graph,
}


class TestSwapGroup:
    """_swap_group's generators, where it gives any, span the whole group
    that canon._search's generators span; where it gives None, nothing is
    claimed and the caller searches."""

    @staticmethod
    def certified(adj: tuple[int, ...], n: int) -> "bool | None":
        """Whether _swap_group certifies the group of adj (None if the
        stable partition is all twins, which the engine reads directly),
        after checking a certified group against the search's."""
        stable = refine(adj, degree_cells(adj, n))
        if _twin_pairs(adj, stable) is not None:
            return None
        gens = _swap_group(adj, n, stable)
        if gens is None:
            return False
        assert group_of(n, gens) == group_of(n, _search(adj, n, stable)[3])
        return True

    def test_every_census_parent(self):
        # every parent of the n = 9 census whose stable cells are not all
        # twins, the ones rule (a) used to search
        outcomes = [self.certified(adj, k)
                    for k, (adj, _) in augmentation_nodes(8)]
        assert (outcomes.count(True), outcomes.count(False)) == (2760, 208)

    def test_symmetric_corpus(self):
        # vertex-transitive graphs: the first path's cell is the whole
        # vertex set, and a swap gives up on all of them but C8, whose
        # reflections join it.  They keep the search fallback tested
        outcomes = {}
        for name, make in SYMMETRIC.items():
            g = from_nx(make())
            outcomes[name] = self.certified(g.adj, g.n)
        assert outcomes == {name: name == "C8" for name in SYMMETRIC}

    def test_two_copies_and_a_hub(self):
        # two disjoint copies of a seeded connected graph on 3 to 6
        # vertices, and a hub joined to all of their vertices: the group
        # holds the swap of the copies and both copies' own groups.  A
        # swap that pairs two vertices with two in one cell gives up, so
        # most fall back
        rng = random.Random(42)
        outcomes = []
        while len(outcomes) < 40:
            m = rng.randrange(3, 7)
            x = nx.gnp_random_graph(m, 0.5, seed=rng.randrange(1 << 30))
            if not nx.is_connected(x):
                continue
            edges = list(x.edges()) + [(a + m, b + m) for a, b in x.edges()]
            edges += [(2 * m, v) for v in range(2 * m)]
            g = Graph.from_edges(2 * m + 1, edges)
            outcomes.append(self.certified(g.adj, g.n))
        assert (outcomes.count(True), outcomes.count(False)) == (14, 26)


def least_in_orbit(s: int, gens) -> bool:
    """Rule (a): s is the least subset in its orbit, by an orbit walk."""
    seen = {s}
    stack = [s]
    while stack:
        x = stack.pop()
        for g in gens:
            y = sum(1 << g[v] for v in bits(x))
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return min(seen) == s


def deletable_keys(child, n: int) -> dict[int, tuple[int, int, int]]:
    """The vertex key (degree, sum of neighbour degrees, triangles) of
    every vertex whose deletion leaves the child connected, from the
    child's rows alone."""
    cut = _articulation_mask(child, n)
    deg = [row.bit_count() for row in child]
    keys = {}
    for v in range(n):
        if not cut >> v & 1:
            row = child[v]
            nbrs = [x for x in range(n) if row >> x & 1]
            keys[v] = (deg[v], sum([deg[x] for x in nbrs]),
                       sum([(child[x] & row).bit_count() for x in nbrs]) // 2)
    return keys


def new_vertex_comes_last(child: list[int], k: int) -> bool:
    """Rule (b): the new vertex k is in the orbit of the canonically last
    of the deletable vertices of largest key."""
    keys = deletable_keys(child, k + 1)
    top = max(keys.values())
    _, lab, orep, _ = _search(tuple(child), k + 1)
    last = next(v for v in reversed(lab) if keys.get(v) == top)
    return orep[last] == orep[k]


class TestLeafDecision:
    """Rule (b) is decided as soon as its verdict is known, at every level;
    the accepted children and their order are those of the definition."""

    def test_children_match_the_definition(self):
        candidates = accepts = 0
        for k, state in augmentation_nodes(6):
            adj = state[0]
            gens = _search(adj, k)[3]
            want = [tuple(child) for s, child in child_adjacencies(adj, k)
                    if least_in_orbit(s, gens)
                    and new_vertex_comes_last(child, k)]
            got = [_attach(adj, s) for s, _ in _child_states(state, k)]
            assert got == want
            candidates += (1 << k) - 1
            accepts += len(want)
        assert candidates == 7815
        assert accepts == sum(CONNECTED_COUNTS[n] for n in range(2, 8)) == 995

    def test_key_verdicts_match_the_definition(self, monkeypatch):
        # every node to k = 8, so every child on up to 9 vertices: each
        # candidate _key_ties decides gets the verdict of the definition,
        # with the keys computed from the child alone.  A reject has a
        # deletable vertex of larger key than the new vertex w; an accept
        # has w's key largest, alone or tied with twins of w only, and a
        # twin tie is accepted by the canonical labeling too.  Every other
        # tie is handed on with the tied vertices
        calls: list[tuple[int, "int | None"]] = []

        def recording_key(adj, classes, sums, tris, s, cut):
            ties = _key_ties(adj, classes, sums, tris, s, cut)
            calls.append((s, ties))
            return ties

        counts = {"accept": 0, "reject": 0, "twin tie": 0, "tie": 0}
        for k, state in augmentation_nodes(8):
            calls.clear()
            monkeypatch.setattr(enumeration, "_key_ties", recording_key)
            accepted = {s for s, _ in _child_states(state, k)}
            monkeypatch.undo()
            adj = state[0]
            for s, ties in calls:
                child = _attach(adj, s)
                keys = deletable_keys(child, k + 1)
                top = max(keys.values())
                tied = [u for u, key in keys.items() if key == top and u != k]
                if ties is None:
                    assert keys[k] < top and s not in accepted
                    counts["reject"] += 1
                    continue
                assert keys[k] == top
                twins = all(child[u] & ~(1 << k) == s & ~(1 << u)
                            for u in tied)
                if ties:
                    assert ties == sum(1 << u for u in tied) and not twins
                    counts["tie"] += 1
                elif tied:
                    assert twins and s in accepted
                    assert new_vertex_comes_last(list(child), k)
                    counts["twin tie"] += 1
                else:
                    assert s in accepted
                    counts["accept"] += 1
        # the census to n = 9: of the 283,839 candidates that reach the
        # key, 247,482 are decided there and 36,357 ties go on to refine
        assert counts == {"accept": 78659, "reject": 145336,
                          "twin tie": 23487, "tie": 36357}

    def test_twin_ties_and_swaps_are_sound(self, monkeypatch):
        # every node to k = 8, so every child on up to 9 vertices.  Every
        # swap, made on a parent (for rule (a), by _swap_group) or on a
        # child (for rule (b)), is an involution and an automorphism by
        # edge set that swaps w and u and keeps each cell of the partition
        # it was given.  A child that swaps (a transposition of twins of
        # the new vertex, or a larger propagated involution, alone or
        # within _swap_group) helped accept with no canonical search keeps
        # rule (b) by the definition
        record: dict[str, list] = {"swap": [], "search": [], "group": []}
        hooked = {"early": 0, "stable": 0}

        def recording_refine(adj, cells, abort=None):
            out = refine(adj, cells, abort)
            if abort is not None:
                hooked["early" if out is None else "stable"] += 1
            return out

        def recording_swap(adj, w, u, stable):
            perm = _swap_taking(adj, w, u, stable)
            if perm is not None:
                edges = {(v, x) for v in range(len(adj)) for x in bits(adj[v])}
                assert {(perm[v], perm[x]) for v, x in edges} == edges
                assert perm[w] == u and perm[u] == w
                assert all(perm[perm[v]] == v for v in range(len(adj)))
                assert all(sum(1 << perm[v] for v in bits(cell)) == cell
                           for cell in stable)
                record["swap"].append(adj)
            return perm

        def recording_search(adj, n, stable=None):
            record["search"].append(adj)
            return _search(adj, n, stable)

        def recording_group(adj, n, stable):
            gens = _swap_group(adj, n, stable)
            record["group"].append((adj, gens is not None))
            return gens

        swap_accepts = swaps = parent_swaps = child_searches = 0
        parents = {"certified": 0, "searched": 0}
        ties = {"second tier": 0, "searched": 0}
        for k, state in augmentation_nodes(8):
            for key in record:
                record[key].clear()
            monkeypatch.setattr(enumeration, "_swap_taking", recording_swap)
            monkeypatch.setattr(enumeration, "_search", recording_search)
            monkeypatch.setattr(enumeration, "_swap_group", recording_group)
            monkeypatch.setattr(enumeration, "refine", recording_refine)
            accepted = {s for s, _ in _child_states(state, k)}
            monkeypatch.undo()
            # a parent's rows have k entries and a child's k + 1
            children = [a for a in record["swap"] if len(a) == k + 1]
            swaps += len(children)
            parent_swaps += len(record["swap"]) - len(children)
            searched = [a for a in record["search"] if len(a) == k + 1]
            child_searches += len(searched)
            parent_groups = [ok for a, ok in record["group"] if len(a) == k]
            assert len(record["search"]) - len(searched) == \
                parent_groups.count(False)
            parents["certified"] += parent_groups.count(True)
            parents["searched"] += parent_groups.count(False)
            for child, _ in record["group"]:
                if len(child) == k + 1:
                    tier = "searched" if child in searched else "second tier"
                    ties[tier] += 1
                    if tier == "second tier":
                        assert child[-1] in accepted
            for child in set(children) - set(searched):
                if child[-1] in accepted:
                    assert new_vertex_comes_last(list(child), k)
                    swap_accepts += 1
        # the census to n = 9: the involutions found on children (12,751
        # by the direct swaps, 1,145 more within _swap_group) and on
        # parents, the children accepted with a swap and no canonical
        # search, and the children left to the canonical search
        assert swaps == 13896
        assert parent_swaps == 5005
        assert swap_accepts == 12136
        assert child_searches == 337
        # rule (a): the parents whose stable cells are not all twins,
        # with their group certified by _swap_group or searched; rule (b):
        # the 710 ties on which a direct swap gave up, accepted by
        # _swap_group's generators (the second tier) or searched
        assert parents == {"certified": 2760, "searched": 208}
        assert ties == {"second tier": 373, "searched": 337}
        # the refine calls with an abort hook, all on children: of the
        # 36,357 ties, the hook decides 23,884 early (the tracer's
        # canon.refine.aborts) and 12,473 reach a stable partition
        assert hooked == {"early": 23884, "stable": 12473}

    @staticmethod
    def child_path(monkeypatch, adj: tuple[int, ...], s: int):
        """(path, accepted) of the child of parent adj with neighbourhood
        s, and that child's adjacency."""
        paths = children_by_path(monkeypatch, parent_state(adj), len(adj))
        child = next(a for a in paths if a[-1] == s)
        return paths[child], child

    def test_strict_degree_lead(self, monkeypatch):
        # star K1,4 with centre 0 and S = {1, 2, 3}: the centre stays a cut
        # vertex, and |S| = 3 beats the child degree 2 of every leaf
        path, _ = self.child_path(monkeypatch, (0b11110, 1, 1, 1, 1), 0b01110)
        assert path == ("lead", True)

    def test_key_accept(self, monkeypatch):
        # the path 3-1-0-2-4 and S = {0}: the new vertex 5 and the leaves
        # 3 and 4 are the deletable vertices, all of degree 1, and only the
        # new vertex has a neighbour of degree 3
        path, child = self.child_path(
            monkeypatch, (0b110, 0b1001, 0b10001, 0b10, 0b100), 0b1)
        assert path == ("key", True)
        assert new_vertex_comes_last(list(child), 5)

    def test_key_reject(self, monkeypatch):
        # star K1,3 with centre 0 and S = {1}: the new vertex ties the
        # leaves 2 and 3 on degree, but their neighbour, the centre, has
        # degree 3 and the new vertex's only 2
        path, child = self.child_path(monkeypatch, (0b1110, 1, 1, 1), 0b0010)
        assert path == ("key", False)
        assert not new_vertex_comes_last(list(child), 4)

    def test_twin_accept(self, monkeypatch):
        # edge 01 and S = {0}: in the path 1-0-2 the new vertex ties only
        # its twin 1 on the key, so it is accepted there
        path, _ = self.child_path(monkeypatch, (0b10, 0b01), 0b01)
        assert path == ("key", True)

    def test_early_accept(self, monkeypatch):
        # the tree with edges 01 02 13 15 24 and S = {0}: the new leaf 6
        # ties the leaves 3 and 5 on the key, as all three hang from a
        # vertex of degree 3.  Refinement splits the leaves by vertex 2,
        # which takes 4 out, and then by vertex 0, which leaves 6 alone
        # after 3 and 5, before the partition is stable
        path, child = self.child_path(
            monkeypatch, (0b110, 0b101001, 0b10001, 0b10, 0b100, 0b10), 0b1)
        assert path == ("early", True)
        assert new_vertex_comes_last(list(child), 6)

    def test_stable_twin_accept(self, monkeypatch):
        # the child with edges 01 02 06 13 24 25 35 46 56: the new vertex
        # 6 ties 0, 2 and 5 on the key (3, 8, 0), and the stable
        # partition's last cell is {2, 6}, a pair of twins
        path, child = self.child_path(
            monkeypatch, (0b110, 0b1001, 0b110001, 0b100010, 0b100, 0b1100),
            0b110001)
        assert path == ("twin", True)
        assert new_vertex_comes_last(list(child), 6)

    def test_automorphism_accept(self, monkeypatch):
        # path 1-0-2 and S = {1}: in the path 2-0-1-3 the ends 2 and 3 are
        # not twins, but the reversal of the path, (3 2)(1 0), swaps them
        # and one more pair, so no search is needed
        path, _ = self.child_path(monkeypatch, (0b110, 1, 1), 0b010)
        assert path == ("swap", True)

    def test_propagated_swap_accept(self, monkeypatch):
        # path 0-1-2-3-4 and S = {0}: the ends 5 and 4 of the path
        # 5-0-1-2-3-4 differ in one neighbour each, 0 and 3; pairing them
        # makes 0 and 3 differ in 1 and 2, and pairing those gives the
        # reversal (5 4)(0 3)(1 2), found without a search
        path, child = self.child_path(
            monkeypatch, (0b10, 0b101, 0b1010, 0b10100, 0b1000), 0b1)
        assert path == ("swap", True)
        assert new_vertex_comes_last(list(child), 5)
        stable = refine(child, degree_cells(child, 6))
        assert _swap_taking(child, 5, 4, stable) == [3, 2, 1, 0, 5, 4]

    def test_automorphism_search_accept(self, monkeypatch):
        # K2,3 with parts {0, 4} and {1, 2, 3}, and S = {1, 2, 3}: the
        # child is K3,3, one stable cell, and all six vertices tie on the
        # key.  The twin 0 of the new vertex 5 is swapped, but 1 is not:
        # propagating (5 1) must pair {0, 4} with {2, 3} inside the one
        # cell, so it gives up.  So does _swap_group, which must swap 0
        # and 1 the same way, and the canonical search decides
        path, child = self.child_path(
            monkeypatch, (0b1110, 0b10001, 0b10001, 0b10001, 0b1110), 0b1110)
        assert path == ("fallback", True)
        assert new_vertex_comes_last(list(child), 5)
        stable = refine(child, degree_cells(child, 6))
        assert stable == [0b111111]
        assert _swap_taking(child, 5, 1, stable) is None

    def test_group_accept(self, monkeypatch):
        # a hub 0 joined to two copies of a path on three vertices, the
        # ends 1, 2 and the middle 5 of one and the ends 3, 4 and the new
        # vertex 6 of the other; 6 ties 5 on the key (3, 10, 2).  Swapping
        # them must pair {1, 2} with {3, 4} in one stable cell and gives
        # up, but _swap_group swaps 1 with its twin 2 and then with 3,
        # which swaps the copies, so 6 joins 5 with no search
        path, child = self.child_path(
            monkeypatch, (62, 33, 33, 1, 1, 7), 0b11001)
        assert path == ("group", True)
        assert new_vertex_comes_last(list(child), 6)
        stable = refine(child, degree_cells(child, 7))
        assert stable == [0b0011110, 0b1100000, 0b0000001]
        assert _swap_taking(child, 6, 5, stable) is None
        assert _swap_group(child, 7, stable) == [
            (0, 2, 1, 3, 4, 5, 6), (0, 3, 4, 1, 2, 6, 5),
            (0, 1, 2, 4, 3, 5, 6)]

    # The cubic graph on 8 vertices made of two triangles joined by one
    # edge (the link), with two more vertices x and y joined to each other:
    # x to one free vertex of each triangle, y to the other two.  It is
    # equitable as one cell, the six triangle vertices have the largest
    # key (3, 9, 1), and they form two orbits: the link ends, and the free
    # vertices.  Only the canonical search says which comes last: a free
    # vertex.

    def test_fallback_accept(self, monkeypatch):
        # triangles 026 and 457, link 24, x = 1 and y = 3; the new vertex
        # 7 is a free vertex
        path, child = self.child_path(
            monkeypatch, (70, 9, 81, 98, 36, 24, 13), 0b110010)
        assert path == ("fallback", True)
        assert new_vertex_comes_last(list(child), 7)

    def test_fallback_reject(self, monkeypatch):
        # triangles 246 and 357, link 47, x = 0 and y = 1; the new vertex
        # 7 is a link end
        path, child = self.child_path(
            monkeypatch, (38, 73, 81, 34, 68, 9, 22), 0b111000)
        assert path == ("fallback", False)
        assert not new_vertex_comes_last(list(child), 7)


class TestCriticalTallies:
    def test_table_of_critical_counts(self):
        for n in range(1, 9):
            tally = run_enumeration(n)[0]
            assert tally.n == n
            assert tally.connected_count == CONNECTED_COUNTS[n]
            assert tally.critical_count == CRITICAL_COUNTS[n]
            assert tally.maximal_count is None

    def test_table_of_maximal_counts(self):
        for n in range(1, 9):
            tally = run_enumeration(n, edge_maximal=True)[0]
            assert tally.connected_count == CONNECTED_COUNTS[n]
            assert tally.critical_count == CRITICAL_COUNTS[n]
            assert tally.maximal_count == MAXIMAL_COUNTS.get(n, 0)

    def test_collected_hits_match_filter(self, connected_by_n):
        # the verdicts read from the parents' tables, in generation order
        for n in range(1, 9):
            crit = [g for g in connected_by_n[n] if _is_critical_fast(g.adj, n)]
            tally, hits = run_enumeration(n, collect=True)
            assert hits == crit and tally.critical_count == len(crit)
            maximal = [g for g in crit if _is_edge_maximal_fast(g.adj, n)]
            tally, hits = run_enumeration(n, edge_maximal=True, collect=True)
            assert hits == maximal and tally.maximal_count == len(maximal)

    def test_json_shape(self):
        d = run_enumeration(5)[0].to_json_dict()
        assert d == {"n": 5, "connected_count": 21, "critical_count": 1,
                     "partition": [0, 1]}
        d = run_enumeration(5, edge_maximal=True)[0].to_json_dict()
        assert d["maximal_count"] == 1
        tally = run_enumeration(5, critical_only=True)[0]
        assert tally.connected_count is None
        assert tally.to_json_dict() == {"n": 5, "critical_count": 1,
                                        "partition": [0, 1]}


class TestCriticalFirst:
    """Candidates filtered by the per-parent criticality table before
    rules (a) and (b): the critical graphs of the full run, in order."""

    def test_stream_is_the_filtered_full_stream(self, connected_by_n):
        for n in range(2, 9):
            # every leaf with its verdict read from the parent's table,
            # against the direct test on the connected catalog; a keep of
            # -1 admits every child and makes the walk build the tables
            full = [(g.adj, int(_is_critical_fast(g.adj, n)))
                    for g in connected_by_n[n]]
            every = _iter_leaves(n, keep=lambda adj, k, table: -1)
            assert [(_attach(adj, s), critical)
                    for _, adj, s, critical in every
                    if len(adj) == n - 1] == full
            kept = _iter_leaves(n, keep=lambda adj, k, table: table)
            assert [(_attach(adj, s), critical)
                    for _, adj, s, critical in kept
                    if len(adj) == n - 1] == \
                [leaf for leaf in full if leaf[1]]
        for n in range(1, 9):
            full, hits = run_enumeration(n, edge_maximal=True, collect=True)
            fast, fast_hits = run_enumeration(n, edge_maximal=True,
                                              collect=True,
                                              critical_only=True)
            assert (fast.critical_count, fast.maximal_count) == \
                (full.critical_count, full.maximal_count)
            assert fast_hits == hits

    def test_shards_and_jobs_permute_the_serial_hits(self):
        serial = run_enumeration(8, collect=True, critical_only=True)[1]
        assert len(serial) == CRITICAL_COUNTS[8]
        shards = [run_enumeration(8, shards=3, shard=s, collect=True,
                                  critical_only=True)
                  for s in range(3)]
        assert sum(t.critical_count for t, _ in shards) == len(serial)
        assert all(t.connected_count is None for t, _ in shards)
        assert sorted(g.adj for _, gs in shards for g in gs) == \
            sorted(g.adj for g in serial)
        # the jobs' hits merge back into the serial order, with and
        # without the critical-only walk
        for critical_only in (True, False):
            assert run_enumeration(8, jobs=2, collect=True,
                                   critical_only=critical_only)[1] == serial

    def test_empty_table_skips_the_parent(self, monkeypatch):
        # a parent with no critical child is never refined, searched or
        # given cut sets
        def unreachable(*args, **kwargs):
            raise AssertionError("an empty table reached the child test")

        empty = [(k, state) for k, state in augmentation_nodes(7)
                 if not _table_of(*_pairless_sets(state[0], k))]
        for name in ("refine", "_search", "_cut_sets"):
            monkeypatch.setattr(enumeration, name, unreachable)
        for k, state in empty:
            assert list(_child_states(state, k, 0)) == []
        # 960 of the 996 connected graphs on up to 7 vertices
        assert len(empty) == 960


    def test_dead_children_build_no_table(self, monkeypatch):
        # the n = 9 critical-only census builds pairless sets, and from
        # them a table, at every node on 1..7 vertices; the level-7 nodes'
        # alive sets then open only the 373 level-8 nodes that may have a
        # critical child, of 11,117, and those alone build sets
        built = {}
        opened = {}
        sets = enumeration._pairless_sets
        children = enumeration._child_states

        def counted(adj, k):
            built[k] = built.get(k, 0) + 1
            return sets(adj, k)

        def counted_children(state, k, *args):
            opened[k] = opened.get(k, 0) + 1
            return children(state, k, *args)

        monkeypatch.setattr(enumeration, "_pairless_sets", counted)
        monkeypatch.setattr(enumeration, "_child_states", counted_children)
        tally = run_enumeration(9, critical_only=True)[0]
        assert tally.critical_count == 168
        assert built == opened == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112,
                                   7: 853, 8: 373}
        # the full census opens every node, and at n = 8 builds sets at
        # the 41 of the 853 level-7 nodes that are alive
        built.clear()
        opened.clear()
        assert run_enumeration(8)[0].connected_count == CONNECTED_COUNTS[8]
        assert opened == {k: CONNECTED_COUNTS[k] for k in range(1, 8)}
        assert built == {**opened, 7: 41}
        # iter_connected takes the same default keep, so it builds the
        # same sets
        built.clear()
        opened.clear()
        assert len(list(iter_connected(8))) == CONNECTED_COUNTS[8]
        assert opened == {k: CONNECTED_COUNTS[k] for k in range(1, 8)}
        assert built == {**opened, 7: 41}


    def test_unopened_nodes_keep_nothing(self):
        # a level n - 1 node that is neither alive nor kept by its parent
        # is not opened, so its keep must admit no child: so it is for the
        # keeps of the critical-only census and of the lemma universe, on
        # every child of every node up to level 7
        keeps = (lambda adj, k, table: table,
                 lambda adj, k, table: table | _girth_table(adj, k))
        closed = [0, 0]
        for k, state in augmentation_nodes(6):
            adj = state[0]
            sets = _pairless_sets(adj, k)
            table = _table_of(*sets)
            live = _alive_set(adj, k, *sets)
            for s, _ in _child_states(state, k):
                child = _attach(adj, s)
                child_table = _table_of(*_pairless_sets(child, k + 1))
                for i, keep in enumerate(keeps):
                    if not (keep(adj, k, table) | live) >> s & 1:
                        assert keep(child, k + 1, child_table) == 0
                        closed[i] += 1
        # of the 995 nodes on 2..7 vertices
        assert closed == [943, 925]


class TestSharding:
    def test_shards_partition_the_space(self):
        # job j of shard s walks frontier node f iff f mod (shards * jobs)
        # is s + shards * j, as in run_enumeration; the orders below 7
        # above the frontier come from every part, so order 7 is kept
        def order7(parts=1, part=0):
            return [item for item in _iter_leaves(7, parts, part)
                    if len(item[1]) == 6]

        full = order7()
        assert len(full) == 853
        for shards, jobs in ((4, 1), (2, 2)):
            parts = shards * jobs
            pieces = [order7(parts, part) for part in range(parts)]
            assert len(pieces) == 4
            assert all(pieces)
            merged = list(itertools.chain.from_iterable(pieces))
            assert sorted(merged) == sorted(full)
            # each piece comes in serial order, so a stable sort on f
            # gives the serial walk
            assert sorted(merged, key=lambda item: item[0]) == full

    def test_items_carry_their_frontier_node(self):
        # the frontier is level n - 2: 21 nodes at n = 7 and 112 at n = 8,
        # each tagging at least one order-n item.  Serial order-n tags
        # never decrease.  Part p of P yields the items tagged -1, those of
        # the orders up to the frontier's, and, in the serial order, the
        # items whose f is p mod P.  The critical-only walk to 9 splits
        # its 168 order-9 items the same way
        critical = lambda adj, k, table: table  # noqa: E731
        for n, keep, top in ((7, None, 853), (8, None, 11117),
                             (9, critical, 168)):
            kwargs = {} if keep is None else {"keep": keep}
            serial = list(_iter_leaves(n, **kwargs))
            assert all((f == -1) == (len(parent) + 1 <= n - 2)
                       for f, parent, _, _ in serial)
            tags = [f for f, parent, _, _ in serial if len(parent) == n - 1]
            assert len(tags) == top
            assert tags == sorted(tags)
            if keep is None:
                assert set(tags) == set(range(CONNECTED_COUNTS[n - 2]))
            for parts in (2, 3, 4):
                for part in range(parts):
                    assert list(_iter_leaves(n, parts, part, **kwargs)) == \
                        [item for item in serial
                         if item[0] == -1 or item[0] % parts == part]
        assert CONNECTED_COUNTS[5] == 21 and CONNECTED_COUNTS[6] == 112
        # for n = 1, K1 is frontier node 0 and the one item; for n = 2 and
        # 3 it is the frontier and every part yields it
        assert list(_iter_leaves(1)) == [(0, (), 0, 0)]
        assert list(_iter_leaves(1, 2, 1)) == []
        assert list(_iter_leaves(3, 2, 1)) == [(-1, (), 0, 0)]
        assert [f for f, *_ in _iter_leaves(3)] == [-1, 0, 0, 0]

    def test_jobs_split_a_shard_into_parts(self):
        # job j of shard s of 3 is part s + 3 * j of 6, counter by counter
        # and hit by hit; the hits come in the order of the one-job shard
        for s in range(3):
            tally, hits = run_enumeration(8, shards=3, shard=s, jobs=2,
                                          collect=True, edge_maximal=True)
            parts = [run_enumeration(8, shards=6, shard=p, collect=True,
                                     edge_maximal=True)
                     for p in (s, s + 3)]
            for field in ("connected_count", "critical_count",
                          "maximal_count"):
                assert getattr(tally, field) == \
                    sum(getattr(t, field) for t, _ in parts)
            assert sorted(g.adj for g in hits) == \
                sorted(g.adj for _, gs in parts for g in gs)
            for _, gs in parts:
                mine = set(gs)
                assert [g for g in hits if g in mine] == gs
            assert hits == run_enumeration(8, shards=3, shard=s, collect=True,
                                           edge_maximal=True)[1]
            assert tally.partition == (s, 3)

    def test_one_vertex(self):
        # K1 is the only node on one vertex and frontier node 0
        parts = [run_enumeration(1, shards=2, shard=s)[0] for s in range(2)]
        assert [p.connected_count for p in parts] == [1, 0]
        assert [p.critical_count for p in parts] == [0, 0]
        assert run_enumeration(1, jobs=2)[0].connected_count == 1
        assert list(iter_connected(1)) == [Graph(1, [0])]

    def test_sharded_tallies_sum(self):
        # counter by counter; for n <= 3 the frontier is K1 alone, and the
        # orders up to the frontier's come from every shard, yet only the
        # last order may be counted, once
        for n in range(1, 8):
            whole = run_enumeration(n, edge_maximal=True)[0]
            for shards in (2, 3):
                parts = [run_enumeration(n, shards=shards, shard=s,
                                         edge_maximal=True)[0]
                         for s in range(shards)]
                for field in ("connected_count", "critical_count",
                              "maximal_count"):
                    assert sum(getattr(p, field) for p in parts) == \
                        getattr(whole, field)
                assert [p.partition for p in parts] == \
                    [(s, shards) for s in range(shards)]
        assert whole.connected_count == CONNECTED_COUNTS[7]

    def test_jobs_parallel_equals_serial(self):
        for n in range(1, 8):
            serial, hits = run_enumeration(n, edge_maximal=True,
                                           collect=True)
            parallel, parallel_hits = run_enumeration(
                n, jobs=2, edge_maximal=True, collect=True)
            assert serial._replace(elapsed=0) == \
                parallel._replace(elapsed=0)
            assert parallel_hits == hits

    def test_pool_is_bounded_by_the_cpu_count(self, monkeypatch):
        # 16 parts go to a fake pool that records the size asked for and
        # maps the parts in this process; no worker is started.  The jobs
        # are capped at the CPU count, so the count is made 16 too
        import multiprocessing
        sizes = []

        class FakePool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, argv):
                return [func(args) for args in argv]

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: FakeContext)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        tally, hits = run_enumeration(7, jobs=16, collect=True)
        assert sizes == [16]
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert run_enumeration(7, jobs=16, collect=True)[1] == hits
        assert sizes == [3]
        serial, serial_hits = run_enumeration(7, collect=True)
        assert (tally.connected_count, tally.critical_count) == \
            (serial.connected_count, serial.critical_count)
        assert hits == serial_hits


class TestOneWalk:
    """_iter_leaves yields the nodes of every order 1..n from one walk,
    each order in the order of its own walk."""

    @staticmethod
    def by_order(items) -> dict[int, list]:
        orders: dict[int, list] = {}
        for item in items:
            orders.setdefault(len(item[1]) + 1, []).append(item)
        return orders

    def test_orders_match_their_own_walks(self):
        # exhaustively to n = 8: with the default keep (every child), and
        # with the critical table as the keep (so most internal nodes keep
        # nothing and must still be expanded).  The keep prunes the top
        # order of a walk to k before its nodes are built, and filters the
        # same order of the walk to 8 after they are built
        critical = lambda adj, k, table: table  # noqa: E731
        counts = []
        for kwargs in ({}, {"keep": critical}):
            walk = self.by_order(_iter_leaves(8, **kwargs))
            assert set(walk) <= set(range(1, 9))
            # the walk to k has its own frontier, so f is not compared
            for k in range(1, 9):
                assert [item[1:] for item in walk.get(k, [])] == \
                    [item[1:] for item in
                     self.by_order(_iter_leaves(k, **kwargs)).get(k, [])]
            counts.append({k: len(items) for k, items in walk.items()})
        assert counts[0] == CONNECTED_COUNTS
        # K1, which has no parent table, and the critical graphs
        assert counts[1] == {1: 1, 5: 1, 6: 1, 7: 4, 8: 15}
        # every walk builds its tables, so the default walk's verdict of
        # each node is the determining-pair test's
        nodes = list(_iter_leaves(8))
        verdicts = [verdict for _, _, _, verdict in nodes]
        assert verdicts == [_is_critical_fast(_attach(parent, s),
                                              len(parent) + 1)
                            for _, parent, s, _ in nodes]
        assert (len(verdicts), sum(verdicts)) == (12113, 21)


class TestAllGraphs:
    def test_counts_include_disconnected(self, all_graphs_by_n):
        for n, want in ALL_COUNTS.items():
            assert len(all_graphs_by_n[n]) == want

    def test_rows_are_pinned(self, all_graphs_by_n):
        # the adjacency rows of every graph on 1 to 8 vertices, in the
        # order iter_all_graphs yields them; taken when its catalogs came
        # from one iter_connected walk per order, before they came from
        # one walk for all orders
        digest = hashlib.sha256()
        for n in range(1, 9):
            for g in all_graphs_by_n[n]:
                digest.update(" ".join(map(str, g.adj)).encode() + b"\n")
        assert digest.hexdigest() == (
            "c6b6708fd6c28f1d4c41ad5b1fd8dbc0ddbcce5567aa4494cad8959a9c055589")

    def test_isomorph_free(self, all_graphs_by_n):
        for n in range(1, 8):
            forms = {canonical_form(g) for g in all_graphs_by_n[n]}
            assert len(forms) == ALL_COUNTS[n]


class TestValidation:
    def test_argument_errors(self):
        with pytest.raises(ValueError):
            list(iter_connected(0))
        with pytest.raises(ValueError):
            list(iter_connected(MAX_ENUM_N + 1))
        with pytest.raises(ValueError):
            run_enumeration(5, shards=2, shard=2)
        with pytest.raises(ValueError):
            run_enumeration(5, shards=0)
        with pytest.raises(ValueError):
            run_enumeration(5, jobs=0)
        with pytest.raises(ValueError):
            list(iter_all_graphs(0))
