"""Product graphs: intersections, coset intersections, malnormality.

The product of two subgroup graphs has vertex set V1 x V2 and a same-label
edge wherever both factors have one.  Its components are the orbits of
pairs under the generators, explored from the factors' coset tables; the
orbit of the base pair is the intersection.  Pair vertices are encoded
row-major: ``left_id * |V2| + right_id``.
"""

from __future__ import annotations

from typing import Optional

from .words import Word
from .xgraph import XGraph
from .subgroup import SubgroupGraph


def _orbit(left: SubgroupGraph, right: SubgroupGraph, start: int) -> list[int]:
    """The pairs reachable from pair ``start``, in BFS order, scanning the
    columns in the order that numbers a subgroup graph canonically."""
    n2 = right.index()
    cols = list(zip(left._table.values(), right._table.values()))
    order = [start]
    seen = {start}
    for p in order:
        a, b = divmod(p, n2)
        for lc, rc in cols:
            q = lc[a] * n2 + rc[b]
            if q not in seen:
                seen.add(q)
                order.append(q)
    return order


def _meet(left: SubgroupGraph, right: SubgroupGraph) -> tuple[dict, SubgroupGraph]:
    """The intersection, and the vertex of it that each pair of the base
    orbit is: the orbit's BFS order is already canonical."""
    left._check_presentation(right)
    vertex = {p: i for i, p in enumerate(_orbit(left, right, 0))}
    n2 = right.index()
    forward = [[vertex[lc[p // n2] * n2 + rc[p % n2]] for p in vertex]
               for lc, rc in zip(left.coset_table().permutations,
                                 right.coset_table().permutations)]
    return vertex, SubgroupGraph(left.presentation, forward)


class ProductGraph:
    """The product of two subgroup graphs, as component labels of all pairs.

    ``component[p]`` is the least pair id in the component of pair ``p``;
    ``graph`` is the whole product as an XGraph, built on first use.
    """

    __slots__ = ("left", "right", "component", "base_component", "_graph")

    def __init__(self, left: SubgroupGraph, right: SubgroupGraph):
        left._check_presentation(right)
        self.left = left
        self.right = right
        component = [-1] * (left.index() * right.index())
        for p in range(len(component)):
            if component[p] < 0:
                for q in _orbit(left, right, p):
                    component[q] = p
        self.component = tuple(component)
        self.base_component = self.component[self.pair_id(left.base, right.base)]
        self._graph = None

    @property
    def graph(self) -> XGraph:
        if self._graph is None:
            n1, n2 = self.left.index(), self.right.index()
            factors = zip(self.left.coset_table().permutations,
                          self.right.coset_table().permutations)
            edges = [(a * n2 + b, li, lc[a] * n2 + rc[b])
                     for li, (lc, rc) in enumerate(factors)
                     for a in range(n1) for b in range(n2)]
            self._graph = XGraph(self.left.presentation.alphabet, n1 * n2, edges)
        return self._graph

    def pair_id(self, v_left: int, v_right: int) -> int:
        if not (0 <= v_left < self.left.index() and 0 <= v_right < self.right.index()):
            raise ValueError(f"no vertex pair ({v_left}, {v_right}) in the product")
        return v_left * self.right.index() + v_right

    def in_base_component(self, v_left: int, v_right: int) -> bool:
        return self.component[self.pair_id(v_left, v_right)] == self.base_component

    def component_sizes(self) -> dict[int, int]:
        sizes: dict[int, int] = {}
        for c in self.component:
            sizes[c] = sizes.get(c, 0) + 1
        return sizes


def intersect(sg1: SubgroupGraph, sg2: SubgroupGraph) -> SubgroupGraph:
    """The subgroup graph of the intersection: the orbit of base x base."""
    return _meet(sg1, sg2)[1]


def coset_meet(pg: ProductGraph, v_left: int, v_right: int) -> Optional[Word]:
    """A word g with (H cap K) g = H g_v cap K g_v' when the cosets meet.

    Returns None when the pair vertex lies outside the base component,
    i.e. the coset intersection is empty.
    """
    if not pg.in_base_component(v_left, v_right):
        return None
    vertex, meet = _meet(pg.left, pg.right)
    return meet.coset_reps[vertex[pg.pair_id(v_left, v_right)]]


def is_malnormal(sg: SubgroupGraph, group_order: int) -> bool:
    """Malnormality of a subgroup of a finite group of the given order.

    True iff every component of the self-product away from the base
    component has exactly ``group_order`` vertices, so its language maps
    onto the trivial subgroup.
    """
    if group_order < 1:
        raise ValueError(f"group order must be positive, got {group_order}")
    if group_order % sg.index() != 0:
        raise ValueError(
            f"group order {group_order} is not a multiple of the index {sg.index()}"
        )
    pg = ProductGraph(sg, sg)
    return all(size == group_order for comp, size in pg.component_sizes().items()
               if comp != pg.base_component)
