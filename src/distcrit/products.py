"""Cartesian, tensor and strong graph products.

Vertices of a product of g (order p) and h (order q) are the pairs (x, y)
with x in V(g), y in V(h), numbered row-major as x * q + y.  Adjacency:

  cartesian: (x,y) ~ (x',y')  iff  x = x' and y ~ y', or y = y' and x ~ x'
  tensor:    (x,y) ~ (x',y')  iff  x ~ x' and y ~ y'
  strong:    distinct pairs with (x = x' or x ~ x') and (y = y' or y ~ y')

The laws that these products preserve distance criticality are checked
on the lemma harness, by verify.check_product_lemmas.
"""

from __future__ import annotations

import enum

from .graph import MAX_VERTICES, Graph, bits


class ProductKind(enum.Enum):
    CARTESIAN = "cartesian"
    TENSOR = "tensor"
    STRONG = "strong"


def product(kind: ProductKind, g: Graph, h: Graph) -> Graph:
    """The product, row by row.  spread, the sum of 1 << (x' * q) over the
    neighbours x' of x, times a q-bit row is one copy of the row in each
    neighbour's block of q positions; the copies never overlap."""
    kind = ProductKind(kind)
    q = h.n
    n = g.n * q
    if n > MAX_VERTICES:
        raise ValueError(f"product order {g.n}*{q} exceeds {MAX_VERTICES}")
    adj = []
    for x in range(g.n):
        spread = sum(1 << (xp * q) for xp in bits(g.adj[x]))
        base = x * q
        for y, row_h in enumerate(h.adj):
            if kind is ProductKind.CARTESIAN:
                adj.append(row_h << base | spread << y)
            elif kind is ProductKind.TENSOR:
                adj.append(row_h * spread)
            else:
                adj.append(row_h << base | (row_h | 1 << y) * spread)
    return Graph(n, adj, check=False)
