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

Mirroring a bit matrix (the symmetry check, the graph6 decoder) and
finding cut vertices cost a fixed number of whole-row int operations
per row, not one Python step per edge.
"""

from __future__ import annotations

import functools
import struct
from itertools import repeat
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 1024

# Distances are nonnegative, so -1 can never collide with a real one.
UNREACHABLE = -1


def _check_vertex_count(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")


def _outside(what: str, n: int) -> ValueError:
    """The error for a vertex or an edge, named by what, that is not in a
    graph on n vertices."""
    if not n:
        return ValueError(f"{what} outside the graph, which has no vertices")
    return ValueError(f"{what} outside 0..{n - 1}")


def _check_vertex(v: int, n: int) -> None:
    """Refuse a vertex v that is not in a graph on n vertices, a negative
    one included: a row index would read -1 as n - 1."""
    if not 0 <= v < n:
        raise _outside(f"vertex {v}", n)


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@functools.cache
def _block_swaps(w: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) for each of the log2(w) block swaps that transpose a
    w x w bit matrix packed into one int, bit c of row r at r * w + c.

    The swap for j = w/2, w/4, ..., 1 exchanges bit c of row r with bit
    c - j of row r + j wherever r & j == 0 and c & j != 0, a distance of
    j * (w - 1); mask holds the lower end of each exchanged pair.  After
    every j, bit c of row r has moved to bit r of row c."""
    size = w // 8
    swaps = []
    j = w // 2
    while j:
        # the columns c with c & j: bits j..2j-1 of every 2j
        high = ((1 << w) - 1) // ((1 << 2 * j) - 1) * ((1 << 2 * j) - (1 << j))
        block = (high.to_bytes(size, "little") * j + bytes(size * j)) * (w // (2 * j))
        swaps.append((j * (w - 1), int.from_bytes(block, "little")))
        j //= 2
    return tuple(swaps)


def _row_format(n: int, size: int) -> str:
    """The struct format of n little-endian rows of size <= 8 bytes."""
    return f"<{n}{'BHIQ'[size.bit_length() - 1]}"


def _width(n: int) -> int:
    """The row width of n rows packed by _pack: the least power of two
    that is at least n and 8, so that each row is whole bytes."""
    return 1 << max(n - 1, 7).bit_length()


def _pack(rows: Sequence[int]) -> tuple[int, int]:
    """(x, w): the rows packed into one w x w bit matrix, bit c of row r
    at r * w + c, w = _width(len(rows)).  No row may mention a bit at or
    above w.  Rows of up to 64 bits go through one struct call, wider
    ones through one bytes object per row."""
    n = len(rows)
    w = _width(n)
    size = w // 8
    if w <= 64:
        packed = struct.pack(_row_format(n, size), *rows)
    else:
        packed = b"".join(map(int.to_bytes, rows, repeat(size),
                              repeat("little")))
    return int.from_bytes(packed, "little"), w


def _unpack(x: int, w: int, n: int) -> list[int]:
    """The first n rows of the w x w bit matrix x packed as by _pack;
    x may mention no bit past row n - 1."""
    size = w // 8
    packed = x.to_bytes(size * n, "little")
    if w <= 64:
        return list(struct.unpack(_row_format(n, size), packed))
    return list(map(int.from_bytes, struct.unpack(f"{size}s" * n, packed),
                    repeat("little")))


def _transpose(rows: Sequence[int]) -> list[int]:
    """The transposed bit matrix: bit u of row v of the result is bit v
    of rows[u].  No row may mention a bit at or above len(rows).

    The rows are packed into one w x w int by _pack, the log2(w) block
    swaps of _block_swaps transpose it, and the first len(rows) rows are
    unpacked: no bit lies past them, as no row mentions one."""
    x, w = _pack(rows)
    for shift, mask in _block_swaps(w):
        t = (x ^ x >> shift) & mask
        x ^= t | t << shift
    return _unpack(x, w, len(rows))


def _with_each_non_edge(adj) -> Iterator[tuple[int, int, list[int]]]:
    """(x, y, rows) for each non-edge x < y of the rows adj, in
    lexicographic order, rows being adj plus the edge xy.

    rows is one private list, edited in place: each item is valid only
    until the next one is drawn.  adj itself is never changed, also when
    the generator is abandoned early."""
    n = len(adj)
    rows = list(adj)
    for x in range(n):
        for y in bits(~adj[x] & ((1 << n) - (2 << x))):
            rows[x] |= 1 << y
            rows[y] |= 1 << x
            yield x, y, rows
            rows[x] = adj[x]
            rows[y] = adj[y]


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
            mirror = _transpose(adj)
            if list(adj) != mirror:
                # bit u of row v without bit v of row u, least v then u
                v, odd = next((v, row & ~col) for v, (row, col)
                              in enumerate(zip(adj, mirror)) if row & ~col)
                u = (odd & -odd).bit_length() - 1
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
                raise _outside(f"edge {x}-{y}", n)
            adj[x] |= 1 << y
            adj[y] |= 1 << x
        return cls(n, adj, check=False)

    # structural queries ------------------------------------------------

    def has_edge(self, x: int, y: int) -> bool:
        _check_vertex(x, self.n)
        _check_vertex(y, self.n)
        return bool(self.adj[x] >> y & 1)

    def degree(self, v: int) -> int:
        _check_vertex(v, self.n)
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        _check_vertex(v, self.n)
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
        return [(x, y) for x, y, _ in _with_each_non_edge(self.adj)]

    def is_regular(self) -> bool:
        degs = {row.bit_count() for row in self.adj}
        return len(degs) <= 1

    # derived graphs ----------------------------------------------------

    def add_edge(self, x: int, y: int) -> "Graph":
        if x == y:
            raise ValueError(f"loop at vertex {x}")
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise _outside(f"edge {x}-{y}", self.n)
        if self.adj[x] >> y & 1:
            raise ValueError(f"edge {x}-{y} already present")
        adj = list(self.adj)
        adj[x] |= 1 << y
        adj[y] |= 1 << x
        return Graph(self.n, adj, check=False)

    def delete_vertex(self, v: int) -> "Graph":
        """Remove v; vertices above v shift down by one to stay 0..n-2."""
        _check_vertex(v, self.n)
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
    _check_vertex_count(g.n + h.n)
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, adj, check=False)


def _layer(adj, mask: int) -> tuple[int, int]:
    """(once, twice): the bits set in at least one, and in at least two,
    of the rows adj[x], x in mask.  This is the package's "at least one
    / at least two" primitive, over any list of ints as rows.

    Over adjacency rows, once and twice are the vertices adjacent to at
    least one, and to at least two, vertices of mask, and every BFS in
    the package steps with this.  For a BFS layer mask, once & ~seen is
    the next layer, once & mask is nonzero iff an edge lies inside the
    layer, and twice & ~seen holds the vertices of the next layer with
    two neighbours in this one.  criticality._alive_set also runs it
    over 2^k-bit pairless sets, one row per vertex."""
    once = twice = 0
    while mask:
        low = mask & -mask
        row = adj[low.bit_length() - 1]
        twice |= once & row
        once |= row
        mask ^= low
    return once, twice


def _bfs_row(adj: tuple[int, ...], n: int, src: int) -> list[int]:
    dist = [UNREACHABLE] * n
    dist[src] = 0
    seen = frontier = 1 << src
    d = 0
    while frontier:
        frontier = _layer(adj, frontier)[0] & ~seen
        seen |= frontier
        d += 1
        for v in bits(frontier):
            dist[v] = d
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
        frontier = _layer(adj, frontier)[0] & within & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    """The null graph and K1 count as connected."""
    if g.n <= 1:
        return True
    return _reach_mask(g.adj, 1) == (1 << g.n) - 1


def _cycle_from(adj, src: int, best: int | None, alive: int) -> int | None:
    """2d + 1 or 2d + 2 for the first BFS layer d from src, through the
    vertices of alive, that closes a walk of that length, if one does
    before 2d + 1 reaches best: an edge inside the layer (once & layer)
    closes 2d + 1, and a vertex not yet reached with two neighbours in
    it (twice & unseen) closes 2d + 2.  unseen starts as alive less src,
    so no layer reaches a vertex outside alive."""
    frontier = 1 << src
    unseen = alive ^ frontier
    d = 0
    while frontier and (best is None or 2 * d + 1 < best):
        once, twice = _layer(adj, frontier)
        if once & frontier:
            return 2 * d + 1
        if twice & unseen:
            return 2 * d + 2
        frontier = once & unseen
        unseen ^= frontier
        d += 1
    return None


def _peel(adj, alive: int, todo: int) -> int:
    """alive less the vertices deleted by repeatedly deleting a vertex of
    todo with fewer than two neighbours in alive, the neighbours of each
    deleted vertex joining todo.  With todo = alive this leaves the
    vertex set of the 2-core."""
    todo &= alive
    while todo:
        low = todo & -todo
        todo ^= low
        row = adj[low.bit_length() - 1] & alive
        if not row & (row - 1):
            alive ^= low
            todo |= row
    return alive


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None for acyclic graphs.

    Runs a BFS from each vertex in index order (Itai and Rodeh, SIAM J.
    Comput. 7, 1978), one layer (a vertex mask) at a time, through the
    vertices still alive.  An edge inside layer d closes a walk of
    length 2d + 1, and a vertex of layer d + 1 with two neighbours in
    layer d one of length 2d + 2.  Each such walk holds a cycle at most
    that long, and the BFS from a vertex of a shortest cycle, while that
    cycle is alive, finds its length.

    After its BFS a source is deleted, and _peel then deletes, starting
    from the source's neighbours, every vertex left with fewer than two
    alive neighbours: such a vertex lies on no cycle of the alive graph.
    The minimum stays exact.  Every walk a BFS closes lies in g, so none
    is shorter than g's girth.  And take the first vertex v of a
    shortest cycle C that the loop reaches: until then no vertex of C
    was a source, and none was peeled, as the first one peeled would
    still have had both of its neighbours on C alive.  So v is a source
    while C is intact, and its BFS finds C's length.

    A cycle longer than 6 thus takes one BFS, not one per vertex: C_1024
    costs a few ms.  Once a cycle of length at most 6 is known, every
    later BFS stops within three layers, and on sparse graphs a peel
    then costs more than the BFS it saves, so only the source is
    deleted.  A triangle ends the scan: no cycle is shorter.
    """
    adj = g.adj
    best = None
    alive = (1 << g.n) - 1
    while alive:
        # every lower vertex is deleted, so this is the next in order
        low = alive & -alive
        src = low.bit_length() - 1
        found = _cycle_from(adj, src, best, alive)
        if found is not None and (best is None or found < best):
            best = found
            if best == 3:
                break
        alive ^= low
        if best is None or best > 6:
            alive = _peel(adj, alive, adj[src])
    return best


def articulation_points(g: Graph) -> tuple[int, ...]:
    """Cut vertices, from one bitset depth-first search."""
    mask = _articulation_mask(g.adj, g.n)
    return tuple(bits(mask))


def _articulation_mask(adj: Sequence[int], n: int) -> int:
    """Bitmask of the cut vertices of the graph with rows adj[0..n-1].

    An iterative depth-first search (Hopcroft and Tarjan, CACM 16, 1973)
    that moves whole rows.  Each vertex on the path from the root keeps
    reach, the OR of the rows of its subtree so far; the next child of
    the top vertex is the lowest bit of reach & unseen, which equals
    adj[top] & unseen because a finished subtree has no unseen
    neighbour.  When a child's subtree S is finished, the cut test for
    its parent p reads S's reach once.

    Why that test is exact.  An undirected DFS has no cross edges.  When
    S is finished, a neighbour x of S outside S was seen before S was
    entered (an unseen one would have joined S), and x was not finished
    then (S would have been entered from x), so x is on the path: every
    neighbour of S lies in S, is p, or is a path vertex strictly above
    p.  A non-root p is therefore a cut vertex iff some child subtree S
    has reach & (path above p) == 0: deleting p cuts such an S off from
    the root, and when every child subtree reaches above p, each one
    hangs on the path from the root to p's parent, which stays
    connected, as does the tree without p's subtree.  The root is a cut
    vertex iff it has two or more children, as no edge joins two of its
    child subtrees.

    Each vertex is pushed and popped once, with a fixed number of
    n-bit int operations each, so a component costs O(n) big-int steps
    whatever its edge count."""
    cut = 0
    unseen = (1 << n) - 1
    while unseen:
        root = unseen & -unseen
        unseen ^= root
        row = adj[root.bit_length() - 1]
        children = 0
        nxt = row & unseen
        while nxt:
            # one child subtree of the root; verts and reach are the
            # path below the root, path its vertex mask with the root
            children += 1
            low = nxt & -nxt
            unseen ^= low
            path = root | low
            verts = [low]
            reach = [adj[low.bit_length() - 1]]
            while verts:
                nxt = reach[-1] & unseen
                if nxt:
                    low = nxt & -nxt
                    unseen ^= low
                    path |= low
                    verts.append(low)
                    reach.append(adj[low.bit_length() - 1])
                    continue
                path ^= verts.pop()
                done = reach.pop()
                if verts:
                    parent = verts[-1]
                    if not done & (path ^ parent):
                        cut |= parent
                    reach[-1] |= done
            nxt = row & unseen
        if children > 1:
            cut |= root
    return cut


def is_two_connected(g: Graph) -> bool:
    """True iff n > 2, g is connected, and no single deletion disconnects it."""
    if g.n <= 2:
        return False
    return is_connected(g) and not articulation_points(g)
