"""Exact maximum clique size via branch and bound with greedy-coloring
bounds."""

from __future__ import annotations

from .graph import Graph


def _color_order(adj, cand: int, kmin: int) -> list[tuple[int, int]]:
    """Greedy color classes over cand; (vertex, class index) in class
    order, for the vertices of class kmin and above only.  Every
    candidate is still coloured, so the listed ones get the classes they
    get with kmin = 1."""
    order = []
    uncolored = cand
    color = 0
    while uncolored:
        color += 1
        members = uncolored
        while members:
            low = members & -members
            v = low.bit_length() - 1
            if color >= kmin:
                order.append((v, color))
            uncolored ^= low
            members = (members ^ low) & ~adj[v]
    return order


def max_clique_size(g: Graph) -> int:
    """Branch and bound on an explicit stack of [colour order, candidates,
    size] frames, so no clique size meets the recursion limit.  A vertex
    in colour class k caps any clique among the candidates left at k, so
    each order is read from its end, highest colour first, and a frame is
    dropped once its highest colour left cannot beat the best clique.

    A frame of size s + 1 lists only the colours from best - s on (Tomita
    et al., WALCOM 2010, "kmin"): a vertex of a lower class fails the
    bound size + class <= best at once, and best only grows, so leaving
    it out changes neither the search tree nor the answer."""
    adj = g.adj
    best = 0
    full = (1 << g.n) - 1
    stack = [[_color_order(adj, full, 1), full, 0]]
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
            stack.append([_color_order(adj, sub, best - size), sub, size + 1])
        elif size + 1 > best:
            best = size + 1
    return best
