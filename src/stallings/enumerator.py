"""Exhaustive enumeration of connected X-regular fulfilling graphs.

The search extends a coset table slot by slot in scan order (lowest vertex,
lowest letter, positive column before inverse).  New vertex ids are handed
out in order of first appearance, so every complete table is in canonical
(BFS) form: complete canonical tables correspond one-to-one to based
isomorphism classes, and each is handed to SubgroupGraph as it stands.
Unbased classes keep only the table that is lexicographically least, row
by row, among its canonical forms from every base.  Each new edge is checked
by the relator scans of coset enumeration (``subgroup._scan``), run only
over the relator cycles through that edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Optional

from .errors import SearchBudgetExceeded
from .words import Presentation
from .subgroup import SubgroupGraph, _canonical_rows, _relator_cycles, _scan

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class EnumerationTask:
    presentation: Presentation
    vertex_count: int
    mode: str = "based"  # "based" or "unbased"

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("vertex count must be positive")
        if self.mode not in ("based", "unbased"):
            raise ValueError(f"unknown mode: {self.mode}")


class _Search:
    """Depth-first search over partial coset tables on ``n`` vertices, rows
    of columns as in coset enumeration, None for an empty entry.

    After the tentative edge (v, c) -> t it scans at v, with the kernel
    ``_scan`` of coset enumeration, the relator cycles that begin with
    column c; every relator cycle through the new edge is one of them.  The
    vertices are distinct cosets, so an edge after which two of them must
    coincide has no completion and is rejected.
    """

    def __init__(self, presentation: Presentation, n: int, budget: int):
        self.n = n
        self.ncols = 2 * len(presentation.alphabet)
        self.table = [[None] * self.ncols for _ in range(n)]
        self.used = 1
        self.budget = budget
        self.nodes = 0
        self.conjugates = _relator_cycles(presentation)

    def _first_slot(self) -> Optional[tuple[int, int]]:
        for v in range(self.used):
            for c in range(self.ncols):
                if self.table[v][c] is None:
                    return (v, c)
        return None

    def _extend(self) -> Iterator[tuple[tuple[int, ...], ...]]:
        slot = self._first_slot()
        if slot is None:
            if self.used == self.n:
                yield tuple(tuple(row) for row in self.table)
            return
        v, c = slot
        inv = c ^ 1
        used = self.used
        for t in range(min(used + 1, self.n)):  # a used vertex, or the next new one
            if t < used and self.table[t][inv] is not None:
                continue
            self.nodes += 1
            if self.nodes > self.budget:
                raise SearchBudgetExceeded(self.budget)
            self.used = max(used, t + 1)
            self.table[v][c] = t
            self.table[t][inv] = v
            if all(len(_scan(self.table, v, w)) != 2 for w in self.conjugates[c]):
                yield from self._extend()
            self.table[t][inv] = None
            self.table[v][c] = None
        self.used = used


def _least_from_base(rows: tuple[tuple[int, ...], ...]) -> bool:
    """True iff no other base renumbers the canonical table ``rows`` into a
    lexicographically smaller table."""
    cols = list(zip(*rows))
    for v in range(1, len(rows)):
        for a, b in zip(_canonical_rows(cols, v), rows):
            if a != b:
                if a < b:
                    return False
                break
    return True


def enumerate_graphs(
    task: EnumerationTask, node_budget: int = DEFAULT_NODE_BUDGET
) -> list[SubgroupGraph]:
    """All connected X-regular graphs on exactly ``vertex_count`` vertices
    fulfilling the relators, one per isomorphism class in the chosen mode,
    in canonical order."""
    search = _Search(task.presentation, task.vertex_count, node_budget)
    out = []
    for rows in search._extend():
        if task.mode == "unbased" and not _least_from_base(rows):
            continue
        out.append(SubgroupGraph(task.presentation, list(zip(*rows))[0::2]))
    return out


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
    found = enumerate_graphs(task, node_budget)
    return found[0] if found else None
