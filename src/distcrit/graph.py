"""Immutable undirected graphs on vertex set 0..n-1 with bitset adjacency.

Each adjacency row is a Python int used as a bitset, so neighborhood
intersection, union and popcount are single machine-assisted operations
even for the dense scans the criticality tests perform.  All operations
that "modify" a graph return a new Graph; instances are safe to share
across threads and processes.

Distances are computed by breadth-first search from every source.  A pair
with no connecting path gets the sentinel UNREACHABLE, which is never a
valid hop count, so "the distance changed" comparisons (including the
finite -> unreachable transition) are plain ``!=`` checks.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 1024

# Distances are nonnegative, so -1 can never collide with a real one.
UNREACHABLE = -1


def _check_vertex_count(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Undirected simple graph; ``adj[v]`` is the neighbor bitset of v."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int], check: bool = True):
        adj = tuple(adj)
        if check:
            _check_vertex_count(n)
            if len(adj) != n:
                raise ValueError(f"adjacency has {len(adj)} rows, expected {n}")
            full = (1 << n) - 1
            for v, row in enumerate(adj):
                if row & ~full:
                    raise ValueError(f"adjacency row {v} mentions vertices >= {n}")
                if row >> v & 1:
                    raise ValueError(f"loop at vertex {v}")
            for v, row in enumerate(adj):
                for u in bits(row):
                    if not adj[u] >> v & 1:
                        raise ValueError(f"edge {v}-{u} is not symmetric")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def empty(cls, n: int) -> "Graph":
        _check_vertex_count(n)
        return cls(n, (0,) * n, check=False)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _check_vertex_count(n)
        adj = [0] * n
        for x, y in edges:
            if x == y:
                raise ValueError(f"loop at vertex {x}")
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"edge {x}-{y} outside 0..{n - 1}")
            adj[x] |= 1 << y
            adj[y] |= 1 << x
        return cls(n, adj, check=False)

    # structural queries ------------------------------------------------

    def has_edge(self, x: int, y: int) -> bool:
        return bool(self.adj[x] >> y & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[v]))

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(row.bit_count() for row in self.adj))

    def min_degree(self) -> int:
        return min((row.bit_count() for row in self.adj), default=0)

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.adj), default=0)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            higher = self.adj[v] >> (v + 1) << (v + 1)
            out.extend((v, u) for u in bits(higher))
        return out

    def non_edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            absent = ~(self.adj[v] | ((1 << (v + 1)) - 1)) & ((1 << self.n) - 1)
            out.extend((v, u) for u in bits(absent))
        return out

    def is_regular(self) -> bool:
        degs = {row.bit_count() for row in self.adj}
        return len(degs) <= 1

    # derived graphs ----------------------------------------------------

    def add_edge(self, x: int, y: int) -> "Graph":
        if x == y:
            raise ValueError(f"loop at vertex {x}")
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise ValueError(f"edge {x}-{y} outside 0..{self.n - 1}")
        if self.adj[x] >> y & 1:
            raise ValueError(f"edge {x}-{y} already present")
        adj = list(self.adj)
        adj[x] |= 1 << y
        adj[y] |= 1 << x
        return Graph(self.n, adj, check=False)

    def delete_vertex(self, v: int) -> "Graph":
        """Remove v; vertices above v shift down by one to stay 0..n-2."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        low = (1 << v) - 1
        adj = []
        for u, row in enumerate(self.adj):
            if u == v:
                continue
            adj.append((row & low) | ((row >> (v + 1)) << v))
        return Graph(self.n - 1, adj, check=False)

    # dunder plumbing ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are shifted up by g.n."""
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, adj, check=False)


def _bfs_row(adj: tuple[int, ...], n: int, src: int) -> list[int]:
    dist = [UNREACHABLE] * n
    dist[src] = 0
    seen = frontier = 1 << src
    d = 0
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        nxt &= ~seen
        d += 1
        m = nxt
        while m:
            low = m & -m
            dist[low.bit_length() - 1] = d
            m ^= low
        seen |= nxt
        frontier = nxt
    return dist


def all_pairs_distances(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Distance rows, rows[u][v] a hop count or UNREACHABLE: BFS from
    every source, O(n * m / wordsize) per source via bitsets."""
    return tuple(tuple(_bfs_row(g.adj, g.n, s)) for s in range(g.n))


def _reach_mask(adj, start_mask: int, within: int = -1) -> int:
    """The vertices reachable from start_mask through vertices of within
    (every vertex by default)."""
    seen = frontier = start_mask
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    """The null graph and K1 count as connected."""
    if g.n <= 1:
        return True
    return _reach_mask(g.adj, 1) == (1 << g.n) - 1


def _cycle_from(adj, src: int, best: int | None) -> int | None:
    """2d + 1 or 2d + 2 for the first BFS layer d from src that closes a
    walk of that length, if one does before 2d + 1 reaches best."""
    seen = frontier = 1 << src
    d = 0
    while frontier and (best is None or 2 * d + 1 < best):
        nxt = twice = 0
        m = frontier
        while m:
            low = m & -m
            row = adj[low.bit_length() - 1]
            if row & frontier:
                return 2 * d + 1
            row &= ~seen
            twice |= nxt & row
            nxt |= row
            m ^= low
        if twice:
            return 2 * d + 2
        seen |= nxt
        frontier = nxt
        d += 1
    return None


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None for acyclic graphs.

    Runs a BFS from every vertex, one layer (a vertex mask) at a time.
    An edge inside layer d closes a walk of length 2d + 1, and a vertex
    of layer d + 1 with two neighbours in layer d one of length 2d + 2.
    Each such walk holds a cycle at most that long, and the BFS from a
    vertex of a shortest cycle finds that cycle's length, so the minimum
    over all sources is exact.
    """
    best = None
    for src in range(g.n):
        found = _cycle_from(g.adj, src, best)
        if found is not None and (best is None or found < best):
            best = found
    return best


def articulation_points(g: Graph) -> tuple[int, ...]:
    """Cut vertices, via an iterative Tarjan lowpoint DFS."""
    mask = _articulation_mask(g.adj, g.n)
    return tuple(bits(mask))


def _articulation_mask(adj: Sequence[int], n: int) -> int:
    """Bitmask of cut vertices (iterative Tarjan lowpoint DFS)."""
    disc = [-1] * n
    low = [0] * n
    is_cut = [False] * n
    timer = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        root_children = 0
        disc[root] = low[root] = timer
        timer += 1
        # stack entries: (vertex, parent, remaining-neighbor mask)
        stack = [(root, -1, adj[root])]
        while stack:
            v, par, rest = stack[-1]
            if rest:
                lowbit = rest & -rest
                u = lowbit.bit_length() - 1
                stack[-1] = (v, par, rest ^ lowbit)
                if disc[u] < 0:
                    if v == root:
                        root_children += 1
                    disc[u] = low[u] = timer
                    timer += 1
                    stack.append((u, v, adj[u]))
                elif u != par and disc[u] < low[v]:
                    low[v] = disc[u]
            else:
                stack.pop()
                if par >= 0:
                    if low[v] < low[par]:
                        low[par] = low[v]
                    if par != root and low[v] >= disc[par]:
                        is_cut[par] = True
        if root_children >= 2:
            is_cut[root] = True
    out = 0
    for v in range(n):
        if is_cut[v]:
            out |= 1 << v
    return out


def is_two_connected(g: Graph) -> bool:
    """True iff n > 2, g is connected, and no single deletion disconnects it."""
    if g.n <= 2:
        return False
    return is_connected(g) and not articulation_points(g)
