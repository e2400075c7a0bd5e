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
    kind = ProductKind(kind)
    q = h.n
    n = g.n * q
    if n > MAX_VERTICES:
        raise ValueError(f"product order {g.n}*{q} exceeds {MAX_VERTICES}")
    adj = [0] * n
    for x in range(g.n):
        row_g = g.adj[x]
        base = x * q
        for y in range(q):
            row_h = h.adj[y]
            m = 0
            if kind is ProductKind.CARTESIAN:
                m = row_h << base
                for xp in bits(row_g):
                    m |= 1 << (xp * q + y)
            elif kind is ProductKind.TENSOR:
                for xp in bits(row_g):
                    m |= row_h << (xp * q)
            else:
                m = row_h << base
                closed = row_h | (1 << y)
                for xp in bits(row_g):
                    m |= closed << (xp * q)
            adj[base + y] = m
    return Graph(n, adj, check=False)
