"""Exact maximum clique size via branch and bound with greedy-coloring
bounds."""

from __future__ import annotations

from .graph import Graph


def _color_order(adj, cand: int) -> list[tuple[int, int]]:
    """Greedy color classes over cand; (vertex, class index) in class order."""
    order = []
    uncolored = cand
    color = 0
    while uncolored:
        color += 1
        members = uncolored
        while members:
            low = members & -members
            v = low.bit_length() - 1
            order.append((v, color))
            uncolored ^= low
            members = (members ^ low) & ~adj[v]
    return order


def max_clique_size(g: Graph) -> int:
    """Branch and bound on an explicit stack of [colour order, candidates,
    size] frames, so no clique size meets the recursion limit.  A vertex
    in colour class k caps any clique among the candidates left at k, so
    each order is read from its end, highest colour first, and a frame is
    dropped once its highest colour left cannot beat the best clique."""
    adj = g.adj
    best = 0
    full = (1 << g.n) - 1
    stack = [[_color_order(adj, full), full, 0]]
    while stack:
        frame = stack[-1]
        order, cand, size = frame
        if not order or size + order[-1][1] <= best:
            stack.pop()
            continue
        v = order.pop()[0]
        frame[1] = cand ^ 1 << v
        sub = cand & adj[v]
        if sub:
            stack.append([_color_order(adj, sub), sub, size + 1])
        elif size + 1 > best:
            best = size + 1
    return best
