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


def _mc_size(adj, cand: int, size: int, best: int) -> int:
    # branch on high color bounds first; a vertex in color class k caps
    # any clique inside cand at k, which prunes most of the tree
    for v, bound in reversed(_color_order(adj, cand)):
        if size + bound <= best:
            return best
        sub = cand & adj[v]
        if sub:
            best = _mc_size(adj, sub, size + 1, best)
        elif size + 1 > best:
            best = size + 1
        cand ^= 1 << v
    return best


def max_clique_size(g: Graph) -> int:
    if g.n == 0:
        return 0
    return _mc_size(g.adj, (1 << g.n) - 1, 0, 0)
