"""Acceptance gate: the eight release criteria, one verdict line each.

Each test prints a single PASS/FAIL line (bypassing capture) and then
asserts, so the printed verdict always matches the pytest outcome.  The
n = 9 and n = 10 census runs are shared module fixtures; everything else
recomputes from scratch so the criteria stay independent of the unit
suite.
"""

from __future__ import annotations

import hashlib
import os
import random
import time

import pytest

from distcrit import (
    Graph,
    all_pairs_distances,
    encode_graph6,
    graham_pollak_determinant,
    is_distance_critical_direct,
    is_distance_critical_pairs,
    is_edge_maximal_critical,
    iter_all_graphs,
    iter_connected,
    run_enumeration,
)
from distcrit.cli import run as cli_run
from distcrit.clique import max_clique_size
from distcrit.constructions import (
    cycle,
    embed_host,
    gamma,
    max_degree_extremal,
    regular_extremal,
)
from distcrit.criticality import _is_edge_maximal_fast
from distcrit.products import ProductKind, product
from conftest import cofactor_determinant, prufer_tree

TABLE_CRITICAL = {5: 1, 6: 1, 7: 4, 8: 15, 9: 168, 10: 2252}
TABLE_MAXIMAL = {5: 1, 6: 1, 7: 2, 8: 4, 9: 14, 10: 82}
TABLE_CONNECTED = {8: 11117, 9: 261080, 10: 11716571}  # OEIS A001349
# sha256 of the graph6 lines of the 168 critical graphs on 9 vertices, in
# generation order, re-taken when rule (b) came to choose the deletion by
# the vertex key; the critical-only run must give the same lines
RUN9_SHA256 = (
    "e29df135b5eccc75db8b4682efcf70b66566aa4c07e2a5f1632b8d24cd6b40db")


@pytest.fixture(scope="module")
def small_tallies():
    """Per-n census with edge-maximal counts for n = 5..8."""
    return {n: run_enumeration(n, edge_maximal=True)[0] for n in range(5, 9)}


@pytest.fixture(scope="module")
def run9():
    """Single-threaded n = 9 census, collecting the critical graphs."""
    tally, hits = run_enumeration(9, collect=True)
    return tally, hits


@pytest.fixture(scope="module")
def run10():
    """n = 10 census with its edge-maximal graphs; worker count capped by
    the machine."""
    jobs = min(8, os.cpu_count() or 1)
    tally, hits = run_enumeration(10, edge_maximal=True, jobs=jobs,
                                  collect=True)
    return tally, jobs, hits


def verdict(announce, label: str, failures: list, detail: str) -> None:
    state = "PASS" if not failures else "FAIL"
    announce(f"[acceptance] {label}: {state} ({detail})")
    assert not failures, failures


def test_criterion_1_critical_counts(announce, small_tallies, run9, run10,
                                     critical_runs):
    failures = []
    counts = {n: small_tallies[n].critical_count for n in range(5, 9)}
    counts[9] = run9[0].critical_count
    counts[10] = run10[0].critical_count
    for n, want in TABLE_CRITICAL.items():
        if counts[n] != want:
            failures.append(f"n={n}: got {counts[n]}, want {want}")
    connected = {8: small_tallies[8].connected_count,
                 9: run9[0].connected_count,
                 10: run10[0].connected_count}
    for n, want in TABLE_CONNECTED.items():
        if connected[n] != want:
            failures.append(
                f"n={n}: {connected[n]} connected classes, want {want}")
    fast9 = critical_runs[9]
    for label, hits in (("", run9[1]), (" (critical-only)", fast9[1])):
        digest = hashlib.sha256()
        for g in hits:
            digest.update(encode_graph6(g).encode() + b"\n")
        if digest.hexdigest() != RUN9_SHA256:
            failures.append(f"n=9 critical graphs{label} hash to "
                            f"{digest.hexdigest()}")
    if run9[0].elapsed >= 30.0:
        failures.append(f"n=9 took {run9[0].elapsed:.1f}s (budget 30s)")
    tally10, jobs, maximal10 = run10
    budget10 = 600.0 * 8 / jobs
    if tally10.elapsed >= budget10:
        failures.append(
            f"n=10 took {tally10.elapsed:.1f}s with {jobs} jobs "
            f"(budget {budget10:.0f}s)")
    # the critical-only walk's hits, filtered to the edge-maximal ones,
    # against the full run; and the engine's own edge-maximal filter on
    # the critical-only walk against the full run at n = 9
    fast10 = critical_runs[10]
    fast_maximal10 = [g for g in fast10[1] if _is_edge_maximal_fast(g.adj, 10)]
    if (len(fast10[1]), len(fast_maximal10), fast_maximal10) != \
            (tally10.critical_count, tally10.maximal_count, maximal10):
        failures.append("n=10 critical-only run differs from the full run")
    maximal9 = [g for g in run9[1] if _is_edge_maximal_fast(g.adj, 9)]
    fast9m = run_enumeration(9, edge_maximal=True, collect=True,
                             critical_only=True)
    if (fast9m[0].critical_count, fast9m[0].maximal_count, fast9m[1]) != \
            (run9[0].critical_count, len(maximal9), maximal9):
        failures.append("n=9 critical-only edge-maximal run differs from "
                        "the full run")
    if cli_run(["enumerate", "-n", "11", "--count-only"]) != 2:
        failures.append("n=11 ran without --allow-long-run")
    verdict(announce, "criterion 1, critical counts n=5..10",
            failures,
            f"counts {[counts[n] for n in range(5, 11)]}, "
            f"n=9 {run9[0].elapsed:.1f}s "
            f"({fast9[0].elapsed:.1f}s critical-only), "
            f"n=10 {tally10.elapsed:.1f}s/{jobs} jobs "
            f"({fast10[0].elapsed:.1f}s critical-only)")


def test_criterion_2_edge_maximal_counts(announce, small_tallies, run9,
                                         run10):
    failures = []
    counts = {n: small_tallies[n].maximal_count for n in range(5, 9)}
    counts[9] = sum(1 for g in run9[1] if is_edge_maximal_critical(g))
    counts[10] = run10[0].maximal_count
    for n, want in TABLE_MAXIMAL.items():
        if counts[n] != want:
            failures.append(f"n={n}: got {counts[n]}, want {want}")
    verdict(announce, "criterion 2, edge-maximal counts n=5..10",
            failures, f"counts {[counts[n] for n in range(5, 11)]}")


def test_criterion_3_oracle_equivalence(announce):
    failures = []
    total = 0
    for n in range(1, 9):
        for g in iter_all_graphs(n):
            total += 1
            a = is_distance_critical_pairs(g).verdict
            b = is_distance_critical_direct(g)
            if a != b:
                failures.append(f"disagreement on an n={n} class: "
                                f"pairs={a} direct={b}")
    verdict(announce, "criterion 3, pairs = direct on all classes n<=8",
            failures, f"{total} isomorphism classes")


def test_criterion_4_fixtures(announce, dodecahedron, antipodal_c8):
    failures = []
    if not is_distance_critical_pairs(dodecahedron).verdict:
        failures.append("dodecahedron not critical")
    if not is_distance_critical_pairs(antipodal_c8).verdict:
        failures.append("chorded 8-cycle not critical")
    elif not is_edge_maximal_critical(antipodal_c8):
        failures.append("chorded 8-cycle not edge-maximal")
    c5, c4 = cycle(5), cycle(4)
    for kind in (ProductKind.TENSOR, ProductKind.STRONG):
        if is_distance_critical_pairs(product(kind, c5, c4)).verdict:
            failures.append(f"C5 {kind.value} C4 unexpectedly critical")
    checked_h = 0
    for n in range(1, 6):
        for h in iter_connected(n):
            checked_h += 1
            p = product(ProductKind.CARTESIAN, c5, h)
            if not is_distance_critical_pairs(p).verdict:
                failures.append(f"C5 box H failed for an H with n={n}")
    verdict(announce, "criterion 4, fixture graphs",
            failures, f"dodecahedron, chorded C8, 2 counterexamples, "
            f"{checked_h} cartesian factors")


def test_criterion_5_constructions(announce):
    failures = []
    t0 = time.perf_counter()
    for m in range(3, 8):
        g, _ = gamma(m)
        if g.n != m * (m + 5) // 2:
            failures.append(f"gamma({m}) has n={g.n}")
        if max_clique_size(g) != m * (m - 1) // 2:
            failures.append(f"gamma({m}) clique number off")
        if not is_distance_critical_pairs(g).verdict:
            failures.append(f"gamma({m}) not critical")
    for n in range(6, 21):
        g = max_degree_extremal(n)
        if g.max_degree() != n - 4:
            failures.append(f"max_degree_extremal({n}) degree off")
        if not is_distance_critical_pairs(g).verdict:
            failures.append(f"max_degree_extremal({n}) not critical")
    for n in range(5, 31):
        g = regular_extremal(n)
        want = (n - 1) // 4 + n // 4
        if g.degree_sequence() != (want,) * n:
            failures.append(f"regular_extremal({n}) not {want}-regular")
        if not is_distance_critical_pairs(g).verdict:
            failures.append(f"regular_extremal({n}) not critical")
    rng = random.Random(20260814)
    embeds = 0
    while embeds < 20:
        n = rng.randint(3, 10)
        base = Graph.from_edges(n, [(i, j) for i in range(n)
                                    for j in range(i + 1, n)
                                    if rng.random() < 0.45])
        host, inj = embed_host(base)
        embeds += 1
        if not is_distance_critical_pairs(host).verdict:
            failures.append(f"embed host for a random n={n} graph "
                            "not critical")
        for x in range(n):
            for y in range(x + 1, n):
                if base.has_edge(x, y) != host.has_edge(inj[x], inj[y]):
                    failures.append(f"embedding of a random n={n} graph "
                                    "is not induced")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"construction sweep took {elapsed:.1f}s")
    verdict(announce, "criterion 5, construction families",
            failures,
            f"gamma 3..7, max-degree 6..20, regular 5..30, "
            f"{embeds} embeddings, {elapsed:.1f}s")


def test_criterion_6_extremal_bounds(announce, criticals_by_n, run9):
    failures = []
    catalog = {n: list(gs) for n, gs in criticals_by_n.items()}
    catalog[9] = list(run9[1])
    checked = 0
    for n, gs in sorted(catalog.items()):
        for g in gs:
            checked += 1
            degs = g.degree_sequence()
            if g.edge_count() < n:
                failures.append(f"n={n}: critical graph with < n edges")
            if n >= 6 and degs[-1] > n - 4:
                failures.append(f"n={n}: max degree above n-4")
            if degs[-1] == n - 1:
                failures.append(f"n={n}: dominating vertex")
            if degs[0] < 2:
                failures.append(f"n={n}: min degree below 2")
            if degs[0] == degs[-1] and degs[0] > (n - 1) // 4 + n // 4:
                failures.append(f"n={n}: regular above the degree bound")
    verdict(announce, "criterion 6, extremal bounds over the census n<=9",
            failures, f"{checked} critical graphs")


def test_criterion_7_lemma_suite(announce, capsys):
    t0 = time.perf_counter()
    code = cli_run(["verify", "--lemma", "all", "--n-cap", "8"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    lines = out.splitlines()
    if len(lines) != 14 or any(": PASS " not in ln for ln in lines):
        failures.append(f"unexpected report: {lines}")
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s (budget 300s)")
    verdict(announce, "criterion 7, lemma suite at n-cap 8",
            failures, f"14 checks, {elapsed:.1f}s")


def test_criterion_8_determinant(announce):
    failures = []
    trees = 0
    for n in range(2, 8):
        for g in iter_connected(n):
            if g.edge_count() != n - 1:
                continue
            trees += 1
            det = graham_pollak_determinant(g)
            rows = [list(r) for r in all_pairs_distances(g)]
            if det != cofactor_determinant(rows):
                failures.append(f"n={n}: determinant disagrees with "
                                "cofactor expansion")
    rng = random.Random(1847)
    for _ in range(100):
        n = rng.randint(2, 12)
        g = prufer_tree([rng.randrange(n) for _ in range(n - 2)], n)
        det = graham_pollak_determinant(g)
        if abs(det) != (n - 1) * 2 ** (n - 2):
            failures.append(f"n={n}: magnitude off")
        if det != -(n - 1) * (-2) ** (n - 2):
            failures.append(f"n={n}: sign not (-1)^(n-1)")
    verdict(announce, "criterion 8, distance determinant on trees",
            failures, f"{trees} catalog trees, 100 random trees")
