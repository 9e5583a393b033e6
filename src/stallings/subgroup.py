"""Subgroup graphs of finite-index subgroups and their calculus.

A subgroup graph is a connected X-regular graph that fulfills every relator:
the Schreier coset graph of a finite-index subgroup, whose vertices are the
right cosets.  It is held as a coset table, a forward and an inverse column
per generator (an involution's two keys may share one tuple, and its walks
read one), numbered by BFS from the base (vertex 0).  A table enters through
one of two entries: the constructor, which checks any table and renumbers
it, and ``SubgroupGraph._canonical``, for the tables the low-index search and
the intersection build already canonical, which checks only the relators.
The Schreier vector of the BFS, and from it the coset representatives, is
built on first use.
Based graphs in that form are isomorphic exactly when their tables are
equal, so conjugacy and isomorphism compare the table renumbered from other
bases; normality and the normalizer come from the table's automorphism
group, N_G(H)/H.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import (
    AlphabetMismatch,
    CosetLimitExceeded,
    FulfillmentFailed,
    PresentationMismatch,
)
from .words import Presentation, Word, free_reduce
from .xgraph import (BasedXGraph, XGraph, _check_same_alphabet, _loop_words, _PartialTable,
                     _tree_words)

DEFAULT_MAX_COSETS = 10_000


def _table(forward: Sequence[Sequence[int]], k: int) -> dict:
    """The columns of a coset table as tuples keyed by signed letter, in
    scan order (generator i, then its inverse), from the forward columns.
    Raises ValueError unless there are k columns, each a permutation."""
    n = len(forward[0]) if forward else 0
    vertices = set(range(n))
    if len(forward) != k or any(len(col) != n or set(col) != vertices for col in forward):
        raise ValueError("graph is not X-regular")
    table = {}
    for i, col in enumerate(forward):
        inverse = [0] * n
        for v, t in enumerate(col):
            inverse[t] = v
        table[i + 1] = tuple(col)
        table[-i - 1] = tuple(inverse)
    return table


def _forward_columns(g: XGraph, presentation: Presentation) -> list[list[int]]:
    """``forward[i][v]`` is the end of the edge labeled i out of v, or -1 if
    none, which ``_table`` rejects; the alphabets and then the edge count are
    checked first."""
    if g.alphabet != presentation.alphabet:
        raise AlphabetMismatch("graph and presentation alphabets differ")
    if len(g.edges) != len(g.alphabet) * g.vertex_count:
        raise ValueError("graph is not X-regular")
    forward = [[-1] * g.vertex_count for _ in range(len(g.alphabet))]
    for (u, li, v) in g.edges:
        forward[li][u] = v
    return forward


def _action(table: dict, letters: Sequence[int]) -> list[int]:
    """v -> the end of the trace of ``letters`` from v, composed column by column."""
    ends = list(table[letters[0]] if letters else range(len(table[1])))
    for col in map(table.__getitem__, letters[1:]):
        ends = [col[v] for v in ends]
    return ends


def _relator_violation(table: dict, presentation: Presentation) -> Optional[tuple]:
    """The first (vertex, relator, terminus), relators outer and vertices
    inner, where a relator (``s s``: s == s^-1; else a root's power by squaring) fails."""
    identity = list(range(len(table[1])))
    for r, root, e in _layout(presentation).powers:
        if len(root) == 1 and e == 2 and table[root[0]] == table[-root[0]]:
            continue
        power = ends = _action(table, root)
        for bit in bin(e)[3:]:
            power = [power[v] for v in power]
            if bit == "1":
                power = [ends[v] for v in power]
        if power != identity:
            v = next(v for v, t in enumerate(power) if t != v)
            return (v, r, power[v])
    return None


def _bfs(table: dict, base: int, target: Optional[dict],
         letters: Sequence[int]) -> Optional[tuple]:
    """BFS from ``base``, scanning per row the table's columns of ``letters``
    in order.  Returns (order, new, parent): the vertex of each new id, the
    new id of each vertex (-1 where unreached) and the Schreier vector on
    the new ids.  Stops once every vertex is numbered; given ``target``,
    returns None at the first renumbered entry that differs from it there."""
    columns = [(lt, table[lt]) for lt in letters]
    new = [-1] * len(columns[0][1])
    new[base] = 0
    order, parent = [base], [None]
    rows = None if target is None else zip(*[target[lt] for lt, _ in columns])
    for i, v in enumerate(order):
        if rows is None and len(order) == len(new):
            break
        for lt, col in columns:
            t = col[v]
            if new[t] < 0:
                new[t] = len(order)
                order.append(t)
                parent.append((i, lt))
        if rows is not None and tuple([new[col[v]] for _, col in columns]) != next(rows):
            return None
    return order, new, parent


def fulfills(g: XGraph, presentation: Presentation) -> bool:
    """True iff tracing every relator from every vertex returns to it.
    Raises ValueError unless ``g`` is X-regular."""
    table = _table(_forward_columns(g, presentation), len(g.alphabet))
    return _relator_violation(table, presentation) is None


@dataclass(frozen=True)
class CosetTable:
    """The right action of the generators on cosets, one permutation per
    generator (forced to be a bijection by X-regularity)."""

    permutations: tuple[tuple[int, ...], ...]


class SubgroupGraph:
    """A finite-index subgroup, held as the coset table of its subgroup graph.

    Vertices are numbered canonically (BFS from the base) and the base is
    vertex 0.  The constructor takes any table and checks it;
    ``_canonical`` takes a table that is canonical by construction and
    checks only that it fulfills the relators.  ``_parent``, the Schreier
    vector of the BFS (per vertex, its tree parent and the signed letter
    read from there), ``coset_reps[v]``, the label of the tree path from
    the base to ``v``, and ``graph``, the same graph as a BasedXGraph, are
    built on first use.
    """

    __slots__ = ("presentation", "_parent", "_coset_reps", "_table", "_graph")

    def __init__(self, presentation: Presentation,
                 forward: Sequence[Sequence[int]], base: int = 0):
        """Check a table given as forward columns (generator i takes vertex v
        to ``forward[i][v]``) and number it by BFS from ``base``; the
        columns are rebuilt only if that numbering differs from the given
        one.  Raises ValueError unless every column is a permutation,
        ``base`` is a vertex and BFS from it reaches every vertex, and
        FulfillmentFailed, in the given numbering, if a relator fails."""
        table = _table(forward, len(presentation.alphabet))
        n = len(table[1])
        if not 0 <= base < n:
            raise ValueError(f"base vertex {base} out of range")
        order, new, parent = _bfs(table, base, None, _layout(presentation).letters)
        if len(order) != n:
            raise ValueError("graph is not connected")
        violation = _relator_violation(table, presentation)
        if violation is not None:
            raise FulfillmentFailed(*violation)
        if order != [*range(n)]:
            table = {lt: tuple([new[col[v]] for v in order]) for lt, col in table.items()}
        self.presentation = presentation
        self._parent = parent
        self._coset_reps = None
        self._table = table
        self._graph = None

    @classmethod
    def _canonical(cls, presentation: Presentation, columns: Sequence[tuple]) -> "SubgroupGraph":
        """Wrap a table that is complete and canonical by construction: its
        columns in ``_Layout`` order (keyed here by ``_Layout.keys``), each the
        inverse of its partner, numbered by BFS from vertex 0.  Only the relators
        are checked (FulfillmentFailed as the constructor raises it), so only the
        low-index search and ``products._meet`` call this."""
        table = {lt: columns[c] for lt, c in _layout(presentation).keys.items()}
        violation = _relator_violation(table, presentation)
        if violation is not None:
            raise FulfillmentFailed(*violation)
        sg = cls.__new__(cls)
        sg.presentation, sg._table = presentation, table
        sg._parent = sg._coset_reps = sg._graph = None
        return sg

    @property
    def base(self) -> int:
        return 0

    def _schreier(self) -> list:
        """The Schreier vector ``_parent``, built by BFS on first use."""
        if self._parent is None:
            self._parent = _bfs(self._table, 0, None, _layout(self.presentation).letters)[2]
        return self._parent

    @property
    def coset_reps(self) -> tuple[Word, ...]:
        if self._coset_reps is None:
            self._coset_reps = tuple(_tree_words(range(self.index()), self._schreier()))
        return self._coset_reps

    @property
    def graph(self) -> BasedXGraph:
        if self._graph is None:
            self._graph = BasedXGraph(
                XGraph(self.presentation.alphabet, self.index(), self.edges()), 0)
        return self._graph

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """The edges ``(origin, letter index, terminus)``, by origin, then letter."""
        return ((u, li, t) for u, row in enumerate(zip(*self.coset_table().permutations))
                for li, t in enumerate(row))

    def index(self) -> int:
        """The index of the subgroup: the number of vertices."""
        return len(self._table[1])

    def trace(self, start: int, w: Word) -> int:
        if not 0 <= start < self.index():
            raise ValueError(f"start vertex {start} out of range")
        table = self._table
        v = start
        try:
            for lt in w.letters:
                v = table[lt][v]
        except KeyError:
            raise AlphabetMismatch("word uses letters outside the alphabet") from None
        return v

    def _step(self, w: Word) -> list[int]:
        """The map v -> ``trace(v, w)``: one step of a sweep by powers of w."""
        try:
            return _action(self._table, w.letters)
        except KeyError:
            raise AlphabetMismatch("word uses letters outside the alphabet") from None

    def contains(self, w: Word) -> bool:
        """Membership of the image of ``w`` in the subgroup."""
        return self.trace(0, w) == 0

    def coset_table(self) -> CosetTable:
        return CosetTable(tuple(self._table[lt] for lt in range(1, len(self._table) // 2 + 1)))

    def free_basis(self) -> list[Word]:
        """A free basis of the loop language at the base: the loops closed by
        the edges outside the spanning tree, by origin, then label, reduced as built."""
        return _loop_words(self.edges(), self._schreier(), self.coset_reps)

    def generators(self) -> list[Word]:
        """Words whose images generate the subgroup of G."""
        return self.free_basis()

    def _rebased_map(self, base: int, other: "SubgroupGraph") -> Optional[list[int]]:
        """The vertices in BFS order from ``base`` if, so renumbered, the table
        equals ``other``'s (of the same index), else None as soon as a row
        differs.  Vertex i of ``other`` goes to ``order[i]`` by an isomorphism."""
        found = _bfs(self._table, base, other._table, _layout(self.presentation).letters)
        return None if found is None else found[0]

    def conjugate(self, other: "SubgroupGraph") -> Optional[Word]:
        """A word g with H = g K g^-1 if the subgroups are conjugate, else None."""
        self._check_presentation(other)
        if self.index() != other.index():
            return None
        return next((self.coset_reps[v] for v in range(self.index())
                     if self._rebased_map(v, other) is not None), None)

    def _in_normalizer(self) -> Iterator[bool]:
        """Per vertex v in order, whether base -> v extends to an automorphism,
        that is whether v carries a coset of N_G(H).  The automorphisms act
        regularly on those vertices, so the base's orbit under those found so
        far needs no test, and each one found at least doubles it."""
        in_orbit = [True] + [False] * (self.index() - 1)
        orbit, maps = [0], []
        for v in range(self.index()):
            if not in_orbit[v] and (found := self._rebased_map(v, self)) is not None:
                maps.append(found)
                for u in orbit:  # close the orbit under every map found
                    for m in maps:
                        if not in_orbit[m[u]]:
                            in_orbit[m[u]] = True
                            orbit.append(m[u])
            yield in_orbit[v]

    def is_normal(self) -> bool:
        """Normality: the based graph looks the same from every vertex."""
        return all(self._in_normalizer())

    def normalizer(self) -> tuple[list[Word], "SubgroupGraph"]:
        """Coset representatives of N_G(H) over H, and its subgroup graph:
        the quotient by the orbits of the automorphisms, the blocks N_G(H) g,
        each the image of the base's block under g."""
        normal = [v for v, yes in enumerate(self._in_normalizer()) if yes]
        block, blocks = dict.fromkeys(normal, 0), [normal]
        perms = self.coset_table().permutations
        for members in blocks:
            for col in perms:
                image = [col[v] for v in members]
                if image[0] not in block:
                    block.update(dict.fromkeys(image, len(blocks)))
                    blocks.append(image)
        forward = [[block[col[b[0]]] for b in blocks] for col in perms]
        return [self.coset_reps[v] for v in normal], SubgroupGraph(self.presentation, forward)

    def _check_presentation(self, other: "SubgroupGraph") -> None:
        if self.presentation != other.presentation:
            raise PresentationMismatch("subgroup graphs over different presentations")

    def isomorphic_based_to(self, other: "SubgroupGraph") -> bool:
        _check_same_alphabet(self.presentation.alphabet, other.presentation.alphabet)
        return self._table == other._table

    def isomorphic_unbased_to(self, other: "SubgroupGraph") -> bool:
        _check_same_alphabet(self.presentation.alphabet, other.presentation.alphabet)
        return self.index() == other.index() and any(
            other._rebased_map(v, self) is not None for v in range(other.index()))

    def __repr__(self) -> str:
        return f"SubgroupGraph(index={self.index()}, over {self.presentation!r})"


def subgroup_from_graph(g: BasedXGraph, presentation: Presentation) -> SubgroupGraph:
    """Wrap a connected X-regular fulfilling graph as a subgroup graph.

    Raises on the specific violated precondition; on success the vertices
    are renumbered canonically.
    """
    return SubgroupGraph(presentation, _forward_columns(g.graph, presentation), g.base)


# ---------------------------------------------------------------------------
# Coset enumeration
# ---------------------------------------------------------------------------

class _Layout:
    """The columns of the partial tables of coset enumeration and the
    low-index search.  A generator with a relator ``s s`` or ``s^-1 s^-1``
    has one column, its own inverse; any other has a forward column and then
    an inverse one.  ``forward[i]`` is the column of generator i and
    ``inverse[col]`` reads col backwards.  ``cycles[col]`` holds the cyclic
    conjugates of the relators and their inverses that begin with col,
    without repeats and without ``s s``, which holds by construction: each
    relator cycle through an entry (alpha, col) is one of these read at
    alpha.  A cycle is a pair ``(cols, back)``, ``back`` the inverse columns
    of ``cols`` in reverse order, which the scan reads backwards.  ``powers``
    holds ``(r, root, e)`` per relator r: r is ``root`` repeated e times.
    For tables keyed by signed letter, ``keys`` maps each key, in ``_table``'s
    order, to the column it reads, and ``letters`` holds per column the
    first key that reads it: s alone for an involution s, else s and s^-1."""

    __slots__ = ("forward", "inverse", "keys", "letters", "cycles", "powers")

    def __init__(self, presentation: Presentation):
        involutions = {abs(r[0]) for r in presentation.relators if len(r) == 2 and r[0] == r[1]}
        self.forward, self.inverse, self.keys, self.letters = [], [], {}, []
        for lt in range(1, len(presentation.alphabet) + 1):
            col = len(self.inverse)
            self.forward.append(col)
            self.inverse += [col] if lt in involutions else [col + 1, col]
            self.keys[lt], self.keys[-lt] = col, self.inverse[col]
            self.letters += [lt] if lt in involutions else [lt, -lt]
        cycles = dict.fromkeys(w[k:] + w[:k] for r in presentation.relators
                               for w in (self.columns(r), self.columns(r.inverse()))
                               for k in range(len(w)))
        self.cycles = tuple(tuple(self.cycle(w) for w in cycles if w[0] == col and w != (col, col))
                            for col in range(len(self.inverse)))
        self.powers = tuple((r, r.letters[:d], len(r) // d) for r in presentation.relators
                            for d in [next(d for d in range(1, len(r) + 1)
                                           if r.letters[:d] * (len(r) // d) == r.letters)])

    def columns(self, w: Word) -> tuple[int, ...]:
        return tuple([self.keys[lt] for lt in w])

    def cycle(self, cols: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return cols, tuple(self.inverse[c] for c in reversed(cols))


def _layout(presentation: Presentation) -> _Layout:
    """The presentation's layout, built once and kept on it."""
    if presentation._layout is None:
        presentation._layout = _Layout(presentation)
    return presentation._layout


def _scan(table: Sequence[Sequence[Optional[int]]], alpha: int, cycle: tuple) -> tuple:
    """Scan a relator cycle ``(cols, back)`` at ``alpha``, forward and then
    backward, in a partial coset table (rows of columns, None for an empty
    entry), which it only reads.  Returns () if the scan closes or leaves a
    gap of two or more entries, (f, col, b, inv) if its one-entry gap forces
    the entry f --col--> b, whose inverse b --inv--> f, and (a, b) for two
    distinct rows that must coincide."""
    cols, back = cycle
    f = alpha
    gap = len(cols) - 1  # counts down so that back[gap] reads the empty entry backwards
    for col in cols:
        nxt = table[f][col]
        if nxt is None:
            break
        f = nxt
        gap -= 1
    else:
        return () if f == alpha else (f, alpha)
    b = alpha
    for c in back[:gap]:
        b = table[b][c]
        if b is None:
            return ()
    # b already has the inverse entry when its cycle cannot close through f
    inv = back[gap]
    o = table[b][inv]
    return (f, col, b, inv) if o is None else (o, f)


class _Enumeration(_PartialTable):
    """Felsch-style coset enumeration over a partial table whose columns the
    presentation's ``_Layout`` sets: one per involution, two per other
    generator.  ``run`` makes each definition in the loop that runs scans.

    Each definition and each deduction pushes its entry (alpha, col) on the
    deduction stack ``stack``.  ``run`` pops it and, while alpha is live,
    runs the kernel ``_scan`` at alpha over the relator cycles that begin
    with col, all in one loop: an entry a scan forces is filled in place and
    pushed, and a coincidence it finds is processed by the partial table,
    the same routine that folds graphs.  Once that is done no live row
    references a dead coset, so the kernel reads the table as it stands.  A
    merge pushes every column of the surviving coset, as its row now carries
    the scans that ran through the dead one.  Counters: ``coincidences``
    (merges: the cosets defined less the live ones), ``deductions`` (entries
    popped), ``scans`` (kernel calls) and ``peak`` (most live cosets).
    """

    def __init__(self, presentation: Presentation):
        self.layout = _layout(presentation)
        super().__init__(self.layout.inverse, 1)
        self.stack: list[tuple[int, int]] = []
        self.coincidences = self.deductions = self.scans = self.peak = 0

    def _merge(self, a: int, b: int) -> bool:
        merged = super()._merge(a, b)
        if merged:
            self.stack.extend((self.rep(a), col) for col in range(self.ncols))
        return merged

    def run(self, subgens: Sequence[Word], max_cosets: int) -> None:
        table, parent, stack, layout = self.table, self.parent, self.stack, self.layout
        loops = [c for c in layout.forward if any(len(cols) == 1 for cols, _ in layout.cycles[c])]
        # one more column: the subgroup generators, scanned at the base
        # (coset 0, as merges keep the smaller id) whenever the stack empties
        gens_col = self.ncols
        cycles = [*layout.cycles, [layout.cycle(cols) for cols in
                                   (layout.columns(free_reduce(w)) for w in subgens) if cols]]
        first, col = 0, None  # every coset below first is dead or complete, and stays so
        deductions, scans, peak = 0, 0, 1
        try:
            while True:
                beta = len(table) - 1  # the coset defined last
                for c in loops:  # a relator of length one, bound before any other entry
                    table[beta][c] = table[beta][self.inverse[c]] = beta
                    stack.append((beta, c))
                # close under the deductions and the generators until a scan
                # of the generators deduces nothing
                while stack or col != gens_col:
                    if stack:
                        alpha, col = stack.pop()
                        deductions += 1
                    else:
                        alpha, col = 0, gens_col
                    for w in cycles[col]:
                        if parent[alpha] != alpha:
                            break  # its row moved to the survivor, which was pushed
                        scans += 1
                        found = _scan(table, alpha, w)
                        if found and len(found) == 2:  # most scans find nothing
                            self._coincidence(*found)
                        elif found:
                            f, c, b, inv = found
                            table[f][c], table[b][inv] = b, f
                            stack.append((f, c))
                while first < len(table) and (parent[first] != first or None not in table[first]):
                    first += 1
                if first == len(table):
                    return
                if self.alive >= max_cosets:
                    raise CosetLimitExceeded(max_cosets)
                beta, col = len(table), table[first].index(None)
                table[first][col] = beta
                table.append([None] * self.ncols)
                table[beta][self.inverse[col]] = first
                parent.append(beta)
                stack.append((first, col))
                self.alive += 1
                peak = max(peak, self.alive)
        finally:
            self.coincidences = len(table) - self.alive
            self.deductions, self.scans, self.peak = deductions, scans, peak

    def forward_columns(self) -> list[tuple[int, ...]]:
        """The closed table's forward columns on its live cosets in id order,
        the table's own if none died; no live row references a dead coset."""
        forward = [col for c, col in enumerate(zip(*self.table)) if c in self.layout.forward]
        if self.alive < len(self.table):
            new = {v: i for i, v in enumerate(v for v, p in enumerate(self.parent) if p == v)}
            forward = [tuple([new[col[v]] for v in new]) for col in forward]
        return forward


def coset_enumerate(
    presentation: Presentation,
    subgens: Sequence[Word] = (),
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> SubgroupGraph:
    """The subgroup graph of the subgroup generated by ``subgens``.

    Deterministic: before each definition the table is closed under every
    consequence of the relators and the generators, and the definition
    fills the first empty entry (lowest letter, positive before inverse) of
    the lowest live coset, so without a coincidence cosets come in BFS order.
    Raises ValueError unless ``max_cosets`` is a positive int, and
    CosetLimitExceeded past that many live cosets: a larger or infinite index.
    """
    if type(max_cosets) is not int or max_cosets < 1:
        raise ValueError(f"max_cosets must be a positive integer, not {max_cosets!r}")
    for w in subgens:
        if w.max_index() >= len(presentation.alphabet):
            raise AlphabetMismatch("subgroup generator outside the alphabet")
    enum = _Enumeration(presentation)
    enum.run(subgens, max_cosets)
    sg = SubgroupGraph(presentation, enum.forward_columns())
    if not all(sg.contains(w) for w in subgens):
        raise RuntimeError("coset enumeration lost a subgroup generator")
    return sg
