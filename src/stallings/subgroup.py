"""Subgroup graphs of finite-index subgroups and their calculus.

A subgroup graph is a connected X-regular graph that fulfills every relator:
the Schreier coset graph of a finite-index subgroup, whose vertices are the
right cosets.  It is held as a coset table, a forward and an inverse column
per generator, numbered by BFS from the base (vertex 0).  Based graphs in
that form are isomorphic exactly when their tables are equal, so conjugacy,
normality and isomorphism compare the table renumbered from other bases.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    AlphabetMismatch,
    CosetLimitExceeded,
    FulfillmentFailed,
    PresentationMismatch,
)
from .words import EMPTY_WORD, Presentation, Word, free_reduce
from .xgraph import BasedXGraph, XGraph, _UnionFind

DEFAULT_MAX_COSETS = 10_000


def default_max_cosets() -> int:
    """STALLINGS_MAX_COSETS if set, else DEFAULT_MAX_COSETS; raises
    ValueError unless it is a positive integer."""
    value = os.environ.get("STALLINGS_MAX_COSETS")
    if not value:
        return DEFAULT_MAX_COSETS
    if not value.strip().isdecimal() or int(value) < 1:
        raise ValueError(f"STALLINGS_MAX_COSETS must be a positive integer, got {value!r}")
    return int(value)


def _table(forward: Sequence[Sequence[int]], n: int) -> dict:
    """The columns of a coset table keyed by signed letter, in scan order
    (generator i, then its inverse), from the forward columns.  Raises
    ValueError unless each is a permutation of range(n)."""
    vertices = set(range(n))
    if any(len(col) != n or set(col) != vertices for col in forward):
        raise ValueError("graph is not X-regular")
    table = {}
    for i, col in enumerate(forward):
        table[i + 1] = col
        table[-i - 1] = sorted(range(n), key=col.__getitem__)  # the inverse
    return table


def _forward_columns(g: XGraph) -> list[list[int]]:
    """``forward[i][v]`` is the end of the edge labeled i out of v, or -1
    where there is none.  Raises ValueError if there are too many edges or
    too few for an X-regular graph."""
    if len(g.edges) != g.vertex_count * len(g.alphabet):
        raise ValueError("graph is not X-regular")
    forward = [[-1] * g.vertex_count for _ in g.alphabet.names]
    for (u, li, v) in g.edges:
        forward[li][u] = v
    return forward


def _relator_violation(table: dict, relators: Sequence[Word]) -> Optional[tuple]:
    """The first (vertex, relator, terminus), relators outer and vertices
    inner, where a relator traced through the table does not close."""
    identity = list(range(len(table[1])))
    for r in relators:
        ends = identity
        for lt in r:
            ends = list(map(table[lt].__getitem__, ends))
        if ends != identity:
            v = next(v for v, t in enumerate(ends) if t != v)
            return (v, r, ends[v])
    return None


def _canonical_rows(cols: Iterable[Sequence[int]], base: int) -> Iterator[tuple[int, ...]]:
    """The rows of the table with these columns, in scan order, renumbered
    by BFS from ``base``, one per reached vertex: vertices are numbered in
    order of first appearance, reading the rows of reached vertices."""
    cols = list(cols)
    new = [-1] * len(cols[0])
    new[base] = 0
    order = [base]
    for v in order:
        row = []
        for col in cols:
            t = col[v]
            if new[t] < 0:
                new[t] = len(order)
                order.append(t)
            row.append(new[t])
        yield tuple(row)


def fulfillment_violation(
    g: XGraph, presentation: Presentation
) -> Optional[tuple[int, Word, int]]:
    """The first (vertex, relator, terminus) where a relator fails to close,
    or None if the graph fulfills every relator.

    Requires an X-regular graph so that every trace is total.
    """
    if g.alphabet != presentation.alphabet:
        raise AlphabetMismatch("graph and presentation alphabets differ")
    table = _table(_forward_columns(g), g.vertex_count)
    return _relator_violation(table, presentation.relators)


def fulfills(g: XGraph, presentation: Presentation) -> bool:
    """True iff tracing every relator from every vertex returns to it."""
    return fulfillment_violation(g, presentation) is None


@dataclass(frozen=True)
class CosetTable:
    """The right action of the generators on cosets, one permutation per
    generator (forced to be a bijection by X-regularity)."""

    permutations: tuple[tuple[int, ...], ...]


class SubgroupGraph:
    """A finite-index subgroup, held as the coset table of its subgroup graph.

    Vertices are numbered canonically (BFS from the base), the base is
    vertex 0 and ``coset_reps[v]`` is the label of the spanning-tree path
    from the base to ``v``.  ``graph`` is the same graph as a BasedXGraph,
    built on first use for output.
    """

    __slots__ = ("presentation", "coset_reps", "_table", "_graph")

    def __init__(self, presentation: Presentation,
                 forward: Sequence[Sequence[int]], base: int = 0):
        """Check and renumber canonically a table in which generator i takes
        vertex v to ``forward[i][v]``.  Raises ValueError unless every column
        is a permutation and BFS from ``base`` reaches every vertex, and
        FulfillmentFailed, in the given numbering, if a relator fails."""
        n = len(forward[0])
        table = _table(forward, n)
        if len(forward) != len(presentation.alphabet):
            raise ValueError("graph is not X-regular")
        rows = list(_canonical_rows(table.values(), base))
        if len(rows) != n:
            raise ValueError("graph is not connected")
        violation = _relator_violation(table, presentation.relators)
        if violation is not None:
            raise FulfillmentFailed(*violation)
        reps = [EMPTY_WORD]
        for i, row in enumerate(rows):
            for lt, t in zip(table, row):
                if t == len(reps):  # first appearance: a spanning-tree edge
                    reps.append(Word(reps[i].letters + (lt,)))
        self.presentation = presentation
        self.coset_reps = tuple(reps)
        self._table = dict(zip(table, zip(*rows)))
        self._graph = None

    @property
    def base(self) -> int:
        return 0

    @property
    def graph(self) -> BasedXGraph:
        if self._graph is None:
            edges = [(v, li, t) for li, col in enumerate(self.coset_table().permutations)
                     for v, t in enumerate(col)]
            self._graph = BasedXGraph(
                XGraph(self.presentation.alphabet, self.index(), edges), 0)
        return self._graph

    def index(self) -> int:
        """The index of the subgroup: the number of vertices."""
        return len(self._table[1])

    def trace(self, start: int, w: Word) -> int:
        table = self._table
        v = start
        try:
            for lt in free_reduce(w).letters:
                v = table[lt][v]
        except KeyError:
            raise AlphabetMismatch("word uses letters outside the alphabet") from None
        return v

    def contains(self, w: Word) -> bool:
        """Membership of the image of ``w`` in the subgroup."""
        return self.trace(0, w) == 0

    def contains_coset(self, w: Word, v: int) -> bool:
        """True iff the image of ``w`` lies in the coset carried by vertex ``v``."""
        return self.trace(0, w) == v

    def coset_table(self) -> CosetTable:
        return CosetTable(tuple(self._table.values())[0::2])

    def free_basis(self) -> list[Word]:
        """A free basis of the loop language at the base: the loops closed
        by the edges outside the spanning tree, by origin, then label."""
        reps, perms = self.coset_reps, self.coset_table().permutations
        basis = []
        for u, ru in enumerate(reps):
            for li, col in enumerate(perms):
                rv, x = reps[col[u]], li + 1
                if rv.letters[-1:] != (x,) and ru.letters[-1:] != (-x,):  # not a tree edge
                    basis.append(free_reduce(ru * Word([x]) * rv.inverse()))
        return basis

    def generators(self) -> list[Word]:
        """Words whose images generate the subgroup of G."""
        return self.free_basis()

    def _rebased_is(self, base: int, other: "SubgroupGraph") -> bool:
        """True iff this graph based at ``base`` is isomorphic to ``other``
        (of the same index): the canonical tables agree row by row."""
        return all(a == b for a, b in zip(_canonical_rows(self._table.values(), base),
                                          zip(*other._table.values())))

    def conjugate(self, other: "SubgroupGraph") -> Optional[Word]:
        """A word g with H = g K g^-1 if the subgroups are conjugate, else None."""
        self._check_presentation(other)
        if self.index() != other.index():
            return None
        return next((self.coset_reps[v] for v in range(self.index())
                     if self._rebased_is(v, other)), None)

    def is_normal(self) -> bool:
        """Normality: the based graph looks the same from every vertex."""
        return all(self._rebased_is(v, self) for v in range(self.index()))

    def normalizer(self) -> tuple[list[Word], "SubgroupGraph"]:
        """Coset representatives of N_G(H) over H, and its subgroup graph."""
        reps = [rep for v, rep in enumerate(self.coset_reps) if self._rebased_is(v, self)]
        gens = self.generators() + reps
        normalizer_graph = coset_enumerate(self.presentation, gens,
                                           max_cosets=self.index())
        return reps, normalizer_graph

    def _check_presentation(self, other: "SubgroupGraph") -> None:
        if self.presentation != other.presentation:
            raise PresentationMismatch("subgroup graphs over different presentations")

    def _check_alphabet(self, other: "SubgroupGraph") -> None:
        if self.presentation.alphabet != other.presentation.alphabet:
            raise AlphabetMismatch("graphs live over different alphabets")

    def isomorphic_based_to(self, other: "SubgroupGraph") -> bool:
        self._check_alphabet(other)
        return self._table == other._table

    def isomorphic_unbased_to(self, other: "SubgroupGraph") -> bool:
        self._check_alphabet(other)
        return self.index() == other.index() and any(
            other._rebased_is(v, self) for v in range(other.index()))

    def __repr__(self) -> str:
        return f"SubgroupGraph(index={self.index()}, over {self.presentation!r})"


def subgroup_from_graph(g: BasedXGraph, presentation: Presentation) -> SubgroupGraph:
    """Wrap a connected X-regular fulfilling graph as a subgroup graph.

    Raises on the specific violated precondition; on success the vertices
    are renumbered canonically.
    """
    if g.alphabet != presentation.alphabet:
        raise AlphabetMismatch("graph and presentation alphabets differ")
    return SubgroupGraph(presentation, _forward_columns(g.graph), g.base)


# ---------------------------------------------------------------------------
# Coset enumeration
# ---------------------------------------------------------------------------

def _columns(w: Word) -> tuple[int, ...]:
    """The table columns a word reads: 2i for generator i, 2i+1 for its inverse."""
    return tuple(2 * abs(lt) - 2 + (lt < 0) for lt in w)


def _relator_cycles(presentation: Presentation) -> list[list[tuple[int, ...]]]:
    """Per column, the cyclic conjugates of every relator and its inverse
    that begin with it, without repeats: each relator cycle through an entry
    (alpha, col) is one of these read at alpha."""
    cycles = dict.fromkeys(w[k:] + w[:k] for r in presentation.relators
                           for w in (_columns(r), _columns(r.inverse()))
                           for k in range(len(w)))
    return [[w for w in cycles if w[0] == col]
            for col in range(2 * len(presentation.alphabet))]


def _scan(table: Sequence[Sequence[Optional[int]]], alpha: int, cols: tuple[int, ...]) -> tuple:
    """Scan the word reading ``cols`` at ``alpha``, forward and then backward,
    in a partial coset table (rows of columns, None for an empty entry),
    which it only reads.  Returns () if the scan closes or leaves a gap of
    two or more entries, (f, col, b) if its one-entry gap forces the entry
    f --col--> b, and (a, b) for two distinct rows that must coincide."""
    f = alpha
    for i, col in enumerate(cols):
        nxt = table[f][col]
        if nxt is None:
            break
        f = nxt
    else:
        return () if f == alpha else (f, alpha)
    b = alpha
    for c in reversed(cols[i + 1:]):
        b = table[b][c ^ 1]
        if b is None:
            return ()
    # b already has the inverse entry when its cycle cannot close through f
    o = table[b][col ^ 1]
    return (f, col, b) if o is None else (o, f)


class _Enumeration:
    """Felsch-style coset enumeration over a partial table.

    Each definition and each deduction pushes its entry (alpha, col) on a
    deduction stack.  Processing it runs the kernel ``_scan`` at alpha over
    the relator cycles that begin with col, and a forced entry it reports
    is a deduction.  Coincidences are processed with a merge queue over a
    union-find of cosets; once it is empty no live row references a dead
    coset, so the kernel reads the table as it stands.  A merge pushes every
    column of the surviving coset, as its row now carries the scans that ran
    through the dead one.
    """

    def __init__(self, presentation: Presentation):
        self.ncols = 2 * len(presentation.alphabet)
        self.table: list[list[Optional[int]]] = [[None] * self.ncols]
        self.cosets = _UnionFind(1)
        self.rep = self.cosets.find
        self.alive = 1
        self.deductions: list[tuple[int, int]] = []
        self.conjugates = _relator_cycles(presentation)
        # a relator of length one binds a coset before any of its entries exist
        self.loops = [w for ws in self.conjugates for w in ws if len(w) == 1]

    def _merge(self, a: int, b: int, queue: list[int]) -> None:
        a, b = self.rep(a), self.rep(b)
        if self.cosets.union(a, b):
            self.alive -= 1
            queue.append(max(a, b))
            self.deductions.extend((min(a, b), col) for col in range(self.ncols))

    def _coincidence(self, a: int, b: int) -> None:
        queue: list[int] = []
        self._merge(a, b, queue)
        while queue:
            dead = queue.pop()
            row = self.table[dead]
            for col in range(self.ncols):
                target = row[col]
                if target is None:
                    continue
                row[col] = None
                # drop the back-reference before re-installing the edge
                trow = self.table[target]
                if trow[col ^ 1] == dead:
                    trow[col ^ 1] = None
                mu, nu = self.rep(dead), self.rep(target)
                if self.table[mu][col] is not None:
                    self._merge(nu, self.rep(self.table[mu][col]), queue)
                elif self.table[nu][col ^ 1] is not None:
                    self._merge(mu, self.rep(self.table[nu][col ^ 1]), queue)
                else:
                    self.table[mu][col] = nu
                    self.table[nu][col ^ 1] = mu

    def _apply(self, alpha: int, cols: tuple[int, ...]) -> None:
        """Scan ``cols`` at coset ``alpha``, then fill the entry it forces as
        a deduction or process the coincidence it finds."""
        found = _scan(self.table, alpha, cols)
        if len(found) == 2:
            self._coincidence(*found)
        elif found:
            f, col, b = found
            self.table[f][col] = b
            self.table[b][col ^ 1] = f
            self.deductions.append((f, col))

    def _define(self, alpha: int, col: int) -> None:
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.cosets.parent.append(beta)
        self.alive += 1
        self.table[alpha][col] = beta
        self.table[beta][col ^ 1] = alpha
        self.deductions.append((alpha, col))
        for w in self.loops:
            self._apply(beta, w)

    def run(self, subgens: Sequence[Word], max_cosets: int) -> None:
        subgens = [w for w in (_columns(free_reduce(w)) for w in subgens) if w]
        for w in self.loops:
            self._apply(0, w)
        first = 0  # every coset below it is dead or complete, and stays so
        while True:
            # close under the deductions, then under the subgroup generators
            # scanned at the base (coset 0, as merges keep the smaller id)
            while True:
                while self.deductions:
                    alpha, col = self.deductions.pop()
                    for w in self.conjugates[col]:
                        if self.rep(alpha) != alpha:
                            break  # its row moved to the survivor, which was pushed
                        self._apply(alpha, w)
                for w in subgens:
                    self._apply(0, w)
                if not self.deductions:
                    break
            table = self.table
            while first < len(table) and (self.rep(first) != first or None not in table[first]):
                first += 1
            if first == len(table):
                return
            if self.alive >= max_cosets:
                raise CosetLimitExceeded(max_cosets)
            self._define(first, table[first].index(None))

    def forward_columns(self) -> list[list[int]]:
        """The closed table on the live cosets, renumbered in order; coset 0
        stays first, as merges keep the smaller id."""
        live = [c for c in range(len(self.table)) if self.rep(c) == c]
        renum = {c: i for i, c in enumerate(live)}
        return [[renum[self.table[c][col]] for c in live]
                for col in range(0, self.ncols, 2)]


def coset_enumerate(
    presentation: Presentation,
    subgens: Sequence[Word] = (),
    max_cosets: Optional[int] = None,
) -> SubgroupGraph:
    """The subgroup graph of the subgroup generated by ``subgens``.

    Deterministic: before each definition the table is closed under every
    consequence of the relators and the generators, and the definition
    fills the first empty entry (lowest letter, positive before inverse) of
    the lowest live coset.  Raises CosetLimitExceeded when the
    table does not close within the bound, which signals an index above the
    bound or an infinite one.
    """
    if max_cosets is None:
        max_cosets = default_max_cosets()
    for w in subgens:
        if free_reduce(w).max_index() >= len(presentation.alphabet):
            raise AlphabetMismatch("subgroup generator outside the alphabet")
    enum = _Enumeration(presentation)
    enum.run(subgens, max_cosets)
    sg = SubgroupGraph(presentation, enum.forward_columns())
    if not all(sg.contains(w) for w in subgens):
        raise RuntimeError("coset enumeration lost a subgroup generator")
    return sg
