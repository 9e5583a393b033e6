"""Exhaustive enumeration of connected X-regular fulfilling graphs.

The search (Sims 1994, ch. 5) fills a coset table in scan order (lowest
vertex, then lowest column of the presentation's ``subgroup._Layout``: per
generator a forward column and then an inverse one, or one column for an
involution), branching at the first empty entry over the used vertices and
the next new one, so every complete table is in canonical (BFS) form, one
per based isomorphism class.
Relator scans of coset enumeration (``subgroup._scan``) over the cycles
through each new edge reject it on a coincidence; an entry they force is
filled on an undo trail and scanned in turn.  Forced entries point at used
vertices and lie after the first empty entry, so the tables and their order
stay those of branching at every entry.  An unbased class keeps its least
canonical form over all bases: a partial table that another base already
renumbers into a smaller one is cut.
Each class enters ``SubgroupGraph`` as its columns through ``_canonical``,
which keys them by signed letter and checks only the relators, not
X-regularity, connectivity or BFS numbering.  That is sound because the
search makes those hold: every entry is set together with its inverse
entry, so a complete table's columns are permutations, each the inverse of
its partner, and each new vertex is the next id, reached from a smaller
one in scan order, so BFS from vertex 0 numbers the vertices in id order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Optional

from .errors import SearchBudgetExceeded
from .words import Presentation
from .subgroup import SubgroupGraph, _layout, _scan

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class EnumerationTask:
    presentation: Presentation
    vertex_count: int
    mode: str = "based"  # "based" or "unbased"

    def __post_init__(self):
        if type(self.vertex_count) is not int:
            raise ValueError(f"vertex count must be an integer, not {self.vertex_count!r}")
        if self.vertex_count < 1:
            raise ValueError("vertex count must be positive")
        if self.mode not in ("based", "unbased"):
            raise ValueError(f"unknown mode: {self.mode}")


class _Search:
    """Depth-first search over partial coset tables on at most ``n`` vertices:
    rows of the presentation's ``_Layout`` columns as in coset enumeration,
    one per used vertex, None for an empty entry.  ``nodes`` counts
    tentative edges, ``forced`` the entries filled by scans, which are not
    nodes, and ``pruned`` the partial tables cut in unbased mode, where
    every used vertex u >= 1 is a base."""

    def __init__(self, presentation: Presentation, n: int, budget: int, unbased: bool = False):
        if type(budget) is not int or budget < 1:
            raise ValueError(f"node_budget must be a positive integer, not {budget!r}")
        self.n = n
        self.layout = _layout(presentation)
        self.table = [[None] * len(self.layout.inverse)]
        self.unbased = unbased
        self.budget = budget
        self.nodes = self.forced = self.pruned = 0

    def _extend(self) -> Iterator[tuple]:
        """Yield the columns of each completion of the table.  ``stack`` holds a
        branch entry (v, c, used, t, bases, trail) per empty entry (v, c) on the
        current path: the row count there, the candidate t tried last, the bases
        whose renumberings were not yet found larger, and t's fills."""
        table, inverse, n = self.table, self.layout.inverse, self.n
        v = c = 0
        bases, stack = (), []
        while True:  # descend to the first empty entry at or after (v, c)
            used = len(table)
            while v < used and None not in table[v][c:]:
                v, c = v + 1, 0
            if v < used:
                stack.append((v, table[v].index(None, c), used, -1, bases, ()))
            elif used == n:
                yield tuple(zip(*table))
            while stack:  # the deepest entry's next candidate that is accepted
                v, c, used, t, bases, trail = stack.pop()
                inv, below = inverse[c], None
                while below is None:
                    for f, col, b, e in reversed(trail):
                        table[f][col] = table[b][e] = None
                    del table[used:]
                    t += 1  # a used vertex, or the next new one
                    while t < used and table[t][inv] is not None:
                        t += 1
                    if t > used or t == n:
                        break
                    self.nodes += 1
                    if self.nodes > self.budget:
                        raise SearchBudgetExceeded(self.budget)
                    if t == used:
                        table.append([None] * len(inverse))
                    table[v][c], table[t][inv] = t, v
                    trail = [(v, c, t, inv)]
                    if self._deduce(trail):
                        below = (self._not_larger(bases + (t,) if t == used else bases)
                                 if self.unbased else bases)
                else:
                    stack.append((v, c, used, t, bases, trail))
                    bases = below
                    break
            else:
                return

    def _deduce(self, trail: list[tuple[int, int, int, int]]) -> bool:
        """Scan the relator cycles through each filled entry (f, col, b, inv)
        on ``trail``, filling every entry they force and appending it to
        ``trail``; False as soon as a scan finds two vertices that must
        coincide."""
        table, cycles = self.table, self.layout.cycles
        for f, col, _, _ in trail:
            for w in cycles[col]:
                found = _scan(table, f, w)
                if len(found) == 2:
                    return False
                if found:
                    g, d, h, e = found
                    table[g][d], table[h][e] = h, g
                    trail.append(found)
                    self.forced += 1
        return True

    def _not_larger(self, bases: tuple) -> Optional[tuple]:
        """The bases that do not renumber the table into a larger one, which
        they would do in every completion; None if one makes it smaller."""
        keep = []
        for u in bases:
            sign = _renumbered_minus_table(self.table, u)
            if sign < 0:
                self.pruned += 1
                return None
            if sign == 0:
                keep.append(u)
        return tuple(keep)


def _renumbered_minus_table(table: list, u: int) -> int:
    """The first nonzero difference, entry by entry in scan order, between
    the partial table renumbered by BFS from vertex u and the table itself,
    up to the first entry empty on either side; else 0."""
    new = [-1] * len(table)
    new[u] = 0
    order = [u]
    for row, x in zip(table, order):
        for s, t in zip(row, table[x]):
            if s is None or t is None:
                return 0
            if new[t] < 0:
                new[t] = len(order)
                order.append(t)
            if new[t] != s:
                return new[t] - s
    return 0


def _graphs(task: EnumerationTask, node_budget: int) -> Iterator[SubgroupGraph]:
    """The classes of ``task`` one at a time, in canonical order."""
    search = _Search(task.presentation, task.vertex_count, node_budget,
                     unbased=task.mode == "unbased")
    for cols in search._extend():
        yield SubgroupGraph._canonical(task.presentation, cols)


def enumerate_graphs(
    task: EnumerationTask, node_budget: int = DEFAULT_NODE_BUDGET
) -> list[SubgroupGraph]:
    """All connected X-regular graphs on exactly ``vertex_count`` vertices
    fulfilling the relators, one per isomorphism class in the chosen mode,
    in canonical order."""
    return list(_graphs(task, node_budget))


def hall_search(
    presentation: Presentation,
    group_order: int,
    d: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[SubgroupGraph]:
    """A subgroup of order ``d`` whose order is coprime to its index, found
    by enumerating graphs on ``group_order / d`` vertices; None if none exists."""
    if d < 1 or group_order < 1:
        raise ValueError(f"group order {group_order} and subgroup order {d} must be positive")
    if group_order % d != 0:
        raise ValueError(f"{d} does not divide the group order {group_order}")
    if gcd(d, group_order // d) != 1:
        raise ValueError(
            f"order {d} and index {group_order // d} are not coprime"
        )
    task = EnumerationTask(presentation, group_order // d, mode="based")
    return next(_graphs(task, node_budget), None)
