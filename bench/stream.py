"""Seeded graph-stream input and an independent oracle for its outputs.

The stream is a fixed mix of item slots (command, family, size); the seed
only draws the random graphs, the relabelings and the order.  The cost of a
pass therefore hardly depends on the seed, while the inputs do.

Everything here is independent of distcrit: its own graph6 codec, its own
criticality test (every vertex v has two nonadjacent neighbours whose only
common neighbour is v) and its own connectivity, girth and clique
routines.  The expected answer of each check or stats item is worked out
when the stream is made, before any timing; construct and product outputs
are checked against the laws their families promise.
"""

from __future__ import annotations

import json
import random

# (command, family, sizes, repeats): one item per size per repeat.
FULL_SLOTS = (
    ("check", "sparse", (16, 24, 32, 48, 64, 96), 5),
    ("check", "dense", (16, 32, 48, 64, 96), 4),
    ("check", "cycle", (16, 32, 64, 96), 2),
    ("check", "gamma", (3, 4, 5, 6, 7, 8), 2),
    ("stats", "sparse", (16, 24, 32, 48, 64, 96), 3),
    ("stats", "dense", (16, 32, 48, 64), 3),
    ("stats", "cycle", (16, 48), 2),
    ("stats", "gamma", (4, 6), 2),
    ("construct", "regular", tuple(range(5, 25)), 1),
    ("construct", "gamma", (3, 4, 5, 6, 7, 8, 9, 10), 1),
    ("construct", "max-degree", (6, 7, 8, 10, 13, 16, 20, 25, 32, 40), 1),
    ("construct", "embed", (3, 5, 8, 10, 12, 15, 18, 21, 25, 30), 1),
    ("product", "cartesian", (4, 5, 6, 7, 8, 9, 10), 2),
    ("product", "tensor", (4, 5, 6, 7, 8, 9, 10), 2),
    ("product", "strong", (4, 5, 6, 7, 8, 9, 10), 2),
)

TINY_SLOTS = (
    ("check", "sparse", (16, 24), 2),
    ("check", "dense", (16,), 2),
    ("check", "cycle", (16,), 1),
    ("check", "gamma", (3,), 1),
    ("stats", "sparse", (16,), 2),
    ("stats", "dense", (16,), 1),
    ("stats", "gamma", (3,), 1),
    ("construct", "regular", (5, 8, 12), 1),
    ("construct", "gamma", (3, 4), 1),
    ("construct", "max-degree", (6, 9), 1),
    ("construct", "embed", (3, 6), 1),
    ("product", "cartesian", (5,), 1),
    ("product", "tensor", (5,), 1),
    ("product", "strong", (5,), 1),
)

SPARSE_DEGREE = 3.0
DENSE_P = 0.5


# -- graphs as (n, adjacency bitsets) ---------------------------------------

def popcount(x: int) -> int:
    return x.bit_count()


def from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def gnp(rng: random.Random, n: int, p: float) -> list[int]:
    return from_edges(n, [(i, j) for j in range(1, n) for i in range(j)
                          if rng.random() < p])


def cycle(n: int) -> list[int]:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def gamma(m: int) -> list[int]:
    """A clique on the pairs of an m-set, a middle vertex per element joined
    to the pairs holding it, and a 2m-cycle rim with middle vertex i joined
    to rim vertices i and i + m."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    na = len(pairs)
    mid = [na + i for i in range(m)]
    rim = [na + m + t for t in range(2 * m)]
    edges = [(a, b) for b in range(na) for a in range(b)]
    for idx, (i, j) in enumerate(pairs):
        edges += [(idx, mid[i]), (idx, mid[j])]
    for i in range(m):
        edges += [(mid[i], rim[i]), (mid[i], rim[i + m])]
    edges += [(rim[t], rim[(t + 1) % (2 * m)]) for t in range(2 * m)]
    return from_edges(na + 3 * m, edges)


def relabel(rng: random.Random, adj: list[int]) -> list[int]:
    n = len(adj)
    perm = list(range(n))
    rng.shuffle(perm)
    return from_edges(n, [(perm[a], perm[b]) for a in range(n)
                          for b in range(a + 1, n) if adj[a] >> b & 1])


def edge_count(adj: list[int]) -> int:
    return sum(map(popcount, adj)) // 2


# -- graph6 -----------------------------------------------------------------

def encode(adj: list[int]) -> str:
    n = len(adj)
    out = [n + 63] if n <= 62 else [126, (n >> 12) + 63, (n >> 6 & 63) + 63,
                                    (n & 63) + 63]
    bitstr = [adj[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bitstr += [0] * (-len(bitstr) % 6)
    for k in range(0, len(bitstr), 6):
        v = 0
        for b in bitstr[k:k + 6]:
            v = v << 1 | b
        out.append(v + 63)
    return "".join(map(chr, out))


def decode(text: str) -> list[int]:
    vals = [ord(c) - 63 for c in text]
    if vals[0] == 63:
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        data = vals[4:]
    else:
        n = vals[0]
        data = vals[1:]
    bitstr = [v >> k & 1 for v in data for k in range(5, -1, -1)]
    adj = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bitstr[pos]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos += 1
    return adj


# -- oracle -----------------------------------------------------------------

def is_critical(adj: list[int]) -> bool:
    n = len(adj)
    if n == 0:
        return False
    for v in range(n):
        nb = bits(adj[v])
        if not any(not adj[a] >> b & 1 and adj[a] & adj[b] == 1 << v
                   for i, a in enumerate(nb) for b in nb[i + 1:]):
            return False
    return True


def _reach(adj: list[int], start: int, banned: int = 0) -> int:
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        for u in bits(frontier):
            nxt |= adj[u]
        frontier = nxt & ~seen & ~banned
        seen |= frontier
    return seen


def is_connected(adj: list[int]) -> bool:
    n = len(adj)
    return n <= 1 or _reach(adj, 0) == (1 << n) - 1


def is_two_connected(adj: list[int]) -> bool:
    n = len(adj)
    if n <= 2 or not is_connected(adj):
        return False
    full = (1 << n) - 1
    for v in range(n):
        start = 1 if v == 0 else 0
        if _reach(adj, start, 1 << v) != full & ~(1 << v):
            return False
    return True


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def girth(adj: list[int]) -> "int | None":
    """Shortest cycle: the least dist(x) + dist(y) + 1 over non-tree edges
    xy of a breadth-first search, minimised over all sources."""
    best = None
    for s in range(len(adj)):
        dist = {s: 0}
        parent = {s: -1}
        queue = [s]
        for x in queue:
            for y in bits(adj[x]):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y:
                    cyc = dist[x] + dist[y] + 1
                    if best is None or cyc < best:
                        best = cyc
    return best


def clique_number(adj: list[int]) -> int:
    best = 0

    def grow(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand and size + popcount(cand) > best:
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            grow(cand & adj[v], size + 1)

    grow((1 << len(adj)) - 1, 0)
    return best


def stats_of(adj: list[int]) -> dict:
    degs = [popcount(r) for r in adj]
    return {
        "n": len(adj),
        "edges": edge_count(adj),
        "girth": girth(adj),
        "min_degree": min(degs),
        "max_degree": max(degs),
        "clique_number": clique_number(adj),
        "connected": is_connected(adj),
        "two_connected": is_two_connected(adj),
        "critical": is_critical(adj),
    }


# -- the stream -------------------------------------------------------------

def _graph(rng: random.Random, family: str, size: int) -> list[int]:
    if family == "sparse":
        return gnp(rng, size, SPARSE_DEGREE / (size - 1))
    if family == "dense":
        return gnp(rng, size, DENSE_P)
    if family == "cycle":
        return relabel(rng, cycle(size))
    return relabel(rng, gamma(size))


def _factor(rng: random.Random, size: int) -> list[int]:
    """A product factor: a relabeled cycle (critical from 5 vertices on)
    or a connected random graph."""
    if size >= 5 and rng.random() < 0.5:
        return relabel(rng, cycle(size))
    while True:
        g = gnp(rng, size, 0.5)
        if is_connected(g):
            return g


def make_items(seed: int, tiny: bool = False) -> list[dict]:
    """The stream for one seed: each item is {"argv": [...], "expect": {...}}.

    expect holds what the oracle needs to judge the output, worked out here
    so that judging costs the measured loop nothing."""
    rng = random.Random(seed)
    items = []
    for command, family, sizes, repeats in (TINY_SLOTS if tiny else FULL_SLOTS):
        for _ in range(repeats):
            for size in sizes:
                items.append(_item(rng, command, family, size))
    rng.shuffle(items)
    return items


def _item(rng: random.Random, command: str, family: str, size: int) -> dict:
    if command == "check":
        g = _graph(rng, family, size)
        return {"argv": ["check", "--method", "both", "--graph", encode(g)],
                "expect": {"critical": is_critical(g)}}
    if command == "stats":
        g = _graph(rng, family, size)
        return {"argv": ["stats", "--graph", encode(g)],
                "expect": stats_of(g)}
    if command == "product":
        g, h = _factor(rng, size), _factor(rng, rng.randint(4, size))
        gc, hc = is_critical(g), is_critical(h)
        law = gc or hc if family == "cartesian" else gc and hc
        return {"argv": ["product", "--kind", family, encode(g), encode(h)],
                "expect": {"n": len(g) * len(h),
                           "edges": _product_edges(family, g, h),
                           "critical": law}}
    if family == "embed":
        g = gnp(rng, size, 0.3)
        return {"argv": ["construct", "embed", "--layout", "--graph",
                         encode(g)],
                "expect": {"base": encode(g)}}
    flag = "-m" if family == "gamma" else "-n"
    return {"argv": ["construct", family, flag, str(size)],
            "expect": {"size": size}}


def _product_edges(kind: str, g: list[int], h: list[int]) -> int:
    p, q = len(g), len(h)
    mg, mh = edge_count(g), edge_count(h)
    cart = p * mh + q * mg
    tens = 2 * mg * mh
    return {"cartesian": cart, "tensor": tens, "strong": cart + tens}[kind]


def judge(item: dict, code: int, out: str) -> "str | None":
    """None when the output is right, else a one-line reason."""
    argv, expect = item["argv"], item["expect"]
    lines = out.splitlines()
    command = argv[0]
    if command == "check":
        want_code = 0 if expect["critical"] else 1
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        rec = json.loads(lines[0])
        if not rec.get("agree"):
            return "pairs and direct methods disagree"
        if rec["critical"] != expect["critical"]:
            return "wrong verdict"
        return None
    if code != 0:
        return f"exit {code}, expected 0"
    if command == "stats":
        rec = json.loads(lines[0])
        wrong = [k for k, v in expect.items() if rec.get(k) != v]
        return f"wrong {', '.join(wrong)}" if wrong else None
    g = decode(lines[0])
    if command == "product":
        if len(g) != expect["n"] or edge_count(g) != expect["edges"]:
            return "wrong order or size"
        if expect["critical"] and not is_critical(g):
            return "product law broken: not critical"
        return None
    if not is_critical(g):
        return "constructed graph is not critical"
    family = argv[1]
    if family == "embed":
        base = decode(expect["base"])
        inj = dict(json.loads(lines[1])["injection"])
        k = len(base)
        for a in range(k):
            for b in range(k):
                if (base[a] >> b & 1) != (g[inj[a]] >> inj[b] & 1):
                    return "input is not induced in the host"
        return None
    size = expect["size"]
    degs = [popcount(r) for r in g]
    if family == "regular":
        if len(g) != size or set(degs) != {(size - 1) // 4 + size // 4}:
            return "wrong order or degree"
    elif family == "gamma":
        na = size * (size - 1) // 2
        if len(g) != na + 3 * size or edge_count(g) != na * (na - 1) // 2 + 2 * na + 4 * size:
            return "wrong order or size"
    elif family == "max-degree":
        want = {6: 2, 7: 3}.get(size, size - 4)
        if len(g) != size or max(degs) != want:
            return "wrong order or maximum degree"
    return None
