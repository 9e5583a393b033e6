"""Product graphs: intersections, coset intersections, malnormality.

The product of two subgroup graphs has vertex set V1 x V2 and a same-label
edge wherever both factors have one.  Its components are the orbits of pairs
under the factors' forward columns, the double cosets H\\G/K.  The base
pair's orbit, of [G : H cap K] pairs, is the intersection, and only
``is_malnormal`` walks the others.  Pair ids: ``left_id * |V2| + right_id``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .words import Word
from .subgroup import SubgroupGraph, _layout


def _meet(left: SubgroupGraph, right: SubgroupGraph) -> tuple[list[int], SubgroupGraph]:
    """The intersection, and per pair the vertex of it that the pair is, or
    -1 off the base orbit.  The orbit is numbered by BFS from the base pair,
    scanning the columns of ``_Layout.letters`` in scan order, so its table is
    already canonical, and its columns, in ``_Layout`` order, enter through
    ``SubgroupGraph._canonical``."""
    left._check_presentation(right)
    n2 = right.index()
    cols = [(left._table[lt], right._table[lt]) for lt in _layout(left.presentation).letters]
    vertex = [-1] * (left.index() * n2)
    vertex[0] = 0
    order, rows = [0], []
    for p in order:
        a, b = divmod(p, n2)
        row = []
        for lc, rc in cols:
            q = lc[a] * n2 + rc[b]
            if vertex[q] < 0:
                vertex[q] = len(order)
                order.append(q)
            row.append(vertex[q])
        rows.append(row)
    return vertex, SubgroupGraph._canonical(left.presentation, list(zip(*rows)))


def _orbit_sizes(left: SubgroupGraph, right: SubgroupGraph) -> Iterator[int]:
    """The size of each component, in order of its least pair, the base
    pair's first.  The columns are permutations, so the orbits under the
    forward columns alone are the components."""
    left._check_presentation(right)
    n2 = right.index()
    cols = list(zip(left.coset_table().permutations, right.coset_table().permutations))
    seen = [False] * (left.index() * n2)
    for p in range(len(seen)):
        if not seen[p]:
            seen[p] = True
            stack = [p]
            for q in stack:
                a, b = divmod(q, n2)
                for lc, rc in cols:
                    r = lc[a] * n2 + rc[b]
                    if not seen[r]:
                        seen[r] = True
                        stack.append(r)
            yield len(stack)


class ProductGraph:
    """The product of two subgroup graphs.  The base pair is pair 0;
    ``coset_meet`` builds the intersection, its orbit, on first use."""

    __slots__ = ("left", "right", "_meet")

    def __init__(self, left: SubgroupGraph, right: SubgroupGraph):
        left._check_presentation(right)
        self.left, self.right = left, right
        self._meet = None

    def pair_id(self, v_left: int, v_right: int) -> int:
        if not (0 <= v_left < self.left.index() and 0 <= v_right < self.right.index()):
            raise ValueError(f"no vertex pair ({v_left}, {v_right}) in the product")
        return v_left * self.right.index() + v_right


def intersect(sg1: SubgroupGraph, sg2: SubgroupGraph) -> SubgroupGraph:
    """The subgroup graph of the intersection: the orbit of base x base."""
    return _meet(sg1, sg2)[1]


def coset_meet(pg: ProductGraph, v_left: int, v_right: int) -> Optional[Word]:
    """A word g with (H cap K) g = H g_v cap K g_v' when the cosets meet.

    Returns None when the pair vertex lies outside the base component,
    i.e. the coset intersection is empty.
    """
    p = pg.pair_id(v_left, v_right)
    if pg._meet is None:
        pg._meet = _meet(pg.left, pg.right)
    vertex, meet = pg._meet
    return meet.coset_reps[vertex[p]] if vertex[p] >= 0 else None


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
    sizes = _orbit_sizes(sg, sg)
    next(sizes)  # the base component
    return all(size == group_order for size in sizes)
