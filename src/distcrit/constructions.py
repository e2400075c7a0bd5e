"""Explicit families of distance-critical graphs.

Provided families:

  cycle, cycle_power   building blocks (C_n and its k-th power)
  gamma                a dense family on m(m+5)/2 vertices whose clique
                       number grows with m
  embed_host           embeds an arbitrary graph as an induced subgraph of
                       a distance-critical host of the same flavour
  max_degree_extremal  distance-critical graphs attaining the largest
                       possible maximum degree, n - 4, for n >= 6
  regular_extremal     vertex-regular distance-critical graphs of degree
                       floor((n-1)/4) + floor(n/4) for n >= 5
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, NamedTuple

from .graph import MAX_VERTICES, Graph


def _check_order(n: int) -> None:
    """Refuse an order above MAX_VERTICES before any edge is built: edge
    lists grow as n^2, so building first costs minutes and gigabytes."""
    if n > MAX_VERTICES:
        raise ValueError(f"construction order {n} exceeds {MAX_VERTICES}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return cycle_power(n, 1)


def cycle_power(n: int, k: int) -> Graph:
    """The k-th power of C_n: i ~ j iff their cyclic distance is at most k.

    2k-regular when 2k < n; k >= n // 2 gives the complete graph."""
    if n < 3:
        raise ValueError("cycle power needs at least 3 vertices")
    if not 1 <= k < n:
        raise ValueError("power k must satisfy 1 <= k < n")
    _check_order(n)
    full = (1 << n) - 1
    # row 0 holds the vertices 1..k and n-k..n-1; row i is row 0 rotated
    # by i
    row = (1 << (k + 1)) - 2 | ((1 << k) - 1) << (n - k)
    return Graph(n, [(row << i | row >> (n - i)) & full for i in range(n)],
                 check=False)


class GammaLayout(NamedTuple):
    """Vertex numbering of gamma(m).

    a maps each unordered pair {i, j} (keyed (i, j), i < j < m) to the
    clique vertex it labels; b[i] is the i-th middle vertex (i < m); c[t]
    is the t-th rim-cycle vertex (t < 2m).
    """

    m: int
    a: dict[tuple[int, int], int]
    b: tuple[int, ...]
    c: tuple[int, ...]


def _gamma_on(m: int, pair_labels: list[tuple[int, int]],
              part_edges: Iterable[tuple[int, int]],
              ) -> tuple[Graph, GammaLayout]:
    """Shared builder: the part labelled by the given pairs over range(m),
    vertices 0..len(pair_labels) - 1, with the edges part_edges."""
    na = len(pair_labels)
    n = na + 3 * m
    _check_order(n)
    a = {pq: idx for idx, pq in enumerate(pair_labels)}
    b = tuple(na + i for i in range(m))
    c = tuple(na + m + t for t in range(2 * m))
    edges = list(part_edges)
    for (i, j), idx in a.items():
        edges.append((idx, b[i]))
        edges.append((idx, b[j]))
    for i in range(m):
        edges.append((b[i], c[i]))
        edges.append((b[i], c[i + m]))
    for t in range(2 * m):
        edges.append((c[t], c[(t + 1) % (2 * m)]))
    return Graph.from_edges(n, edges), GammaLayout(m=m, a=a, b=b, c=c)


def gamma(m: int) -> tuple[Graph, GammaLayout]:
    """Distance-critical graph on m(m+5)/2 vertices with an m(m-1)/2-clique.

    Structure: a clique whose vertices are labelled by the unordered pairs
    from an m-set, a middle layer b_0..b_{m-1} where the pair {i, j} is
    joined to b_i and b_j, and a rim cycle c_0..c_{2m-1} with b_i joined to
    the antipodal rim pair c_i, c_{i+m}.  Every clique vertex {i, j} is the
    unique common neighbour of the nonadjacent pair (b_i, b_j); every b_i
    of (c_i, c_{i+m}); every rim vertex of its two rim neighbours.
    """
    if m < 3:
        raise ValueError("gamma needs m >= 3")
    _check_order(m * (m + 5) // 2)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    return _gamma_on(m, pairs, itertools.combinations(range(len(pairs)), 2))


def embed_host(g: Graph) -> tuple[Graph, dict[int, int]]:
    """Embed g as an induced subgraph of a distance-critical host.

    Uses the smallest m with m(m-1)/2 >= g.n, labels the vertices of g by
    the lexicographically least m-set pairs, keeps exactly the edges of g
    on that part (the clique of gamma is thinned to a copy of g), and
    attaches the full middle and rim structure.  The witness pairs for
    criticality never use edges inside the pair-labelled part, so the host
    is distance critical for every g.  Returns the host and the injection
    from V(g) to host vertices.
    """
    if g.n < 3:
        raise ValueError("embedding needs a graph on at least 3 vertices")
    m = (1 + math.isqrt(1 + 8 * g.n)) // 2
    while m * (m - 1) // 2 < g.n:
        m += 1
    all_pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    host, _ = _gamma_on(m, all_pairs[: g.n], g.edges())
    return host, {v: v for v in range(g.n)}


def max_degree_extremal(n: int) -> Graph:
    """Distance-critical graph on n vertices with the extremal maximum degree.

    For n >= 8 the maximum degree of a distance-critical graph is at most
    n - 4 and this construction attains it; the seeds n = 6, 7 attain the
    true extremes for those orders (degree 2 and 3).
    """
    if n < 6:
        raise ValueError("no distance-critical graph of order below 5; "
                         "extremal family starts at n = 6")
    _check_order(n)
    if n == 6:
        return cycle(6)
    if n == 7:
        g = cycle(6)
        g = Graph(7, list(g.adj) + [0], check=False)
        g = g.add_edge(6, 0).add_edge(6, 3)
        return g
    even = n - (n % 2)
    k = even // 2 - 2
    u = list(range(k))
    up = list(range(k, 2 * k))
    v, w1, w2, w3 = 2 * k, 2 * k + 1, 2 * k + 2, 2 * k + 3
    edges = [(u[j], up[j]) for j in range(k)]
    edges += [(w1, x) for x in u]
    edges += [(w2, x) for x in up]
    edges += [(v, x) for x in u + up]
    edges += [(w1, w3), (w2, w3)]
    if n % 2:
        w4 = 2 * k + 4
        edges += [(v, w4), (w3, w4)]
    return Graph.from_edges(n, edges)


# Chords that complete C_n^{(n-4)/4} to a critical graph where the
# general pattern of regular_extremal has no room: n = 8, 12 and 16.
_SMALL_REGULAR_CHORDS = {
    8: ((0, 4), (1, 5), (2, 6), (3, 7)),
    12: ((0, 3), (1, 9), (2, 6), (4, 8), (5, 10), (7, 11)),
    16: ((0, 4), (1, 6), (2, 8), (3, 14), (5, 10), (7, 12), (9, 13),
         (11, 15)),
}


def regular_extremal(n: int) -> Graph:
    """Regular distance-critical graph of degree floor((n-1)/4) + floor(n/4).

    Cycle powers C_n^k with k chosen by n mod 4.  When 4 divides n the
    degree target (n-2)/2 is odd, so C_n^k with k = (n-4)/4 is completed
    by a perfect matching of chords.  For n = 4k + 4 >= 20 the chords are

      (i, i+k+1) for 0 <= i <= k-3;
      (k-2, 2k), (k-1, n-2), (k, 3k+3), (2k-1, 3k+1), (2k+1, 3k+2);
      (i, i+k+2) for 2k+2 <= i <= 3k-2;
      (3k-1, n-1) and (3k, n-3);

    n = 8, 12 and 16 use a fixed table.  The chords are not rotation
    invariant, and cannot all be: no circulant of this degree is critical
    at n = 12 or 20.  At n = 8 they are the antipodal chords i ~ i+4; for
    12 <= n <= 32 they are the first critical completion in lexicographic
    edge order found by a depth-first search over perfect matchings (kept
    as the test oracle).  Every multiple of 4 from 20 to 1024 was checked
    regular and critical.
    """
    if n < 5:
        raise ValueError("regular family needs n >= 5")
    _check_order(n)
    r = n % 4
    if r != 0:
        return cycle_power(n, (n - r) // 4)
    k = (n - 4) // 4
    if n in _SMALL_REGULAR_CHORDS:
        chords = _SMALL_REGULAR_CHORDS[n]
    else:
        chords = ([(i, i + k + 1) for i in range(k - 2)]
                  + [(k - 2, 2 * k), (k - 1, n - 2), (k, 3 * k + 3),
                     (2 * k - 1, 3 * k + 1), (2 * k + 1, 3 * k + 2)]
                  + [(i, i + k + 2) for i in range(2 * k + 2, 3 * k - 1)]
                  + [(3 * k - 1, n - 1), (3 * k, n - 3)])
    adj = list(cycle_power(n, k).adj)
    for x, y in chords:
        adj[x] |= 1 << y
        adj[y] |= 1 << x
    return Graph(n, adj, check=False)
