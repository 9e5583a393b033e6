"""X-labeled directed multigraphs and the core operations on them.

Edges carry positive labels only; the formal inverse of an edge is a view:
a positive edge ``(u, x, v)`` is traversable backwards under the label
``x^-1``.  All graphs are immutable after construction.

Every reader walks one arc list per vertex in partial-table column order:
an arc ``(2i, v)`` follows an edge labeled i forwards and ``(2i+1, u)``
one backwards, so a folded graph's arc list at a vertex is its coset-table
row without the empty entries.

Stallings folding is the coincidence processing of Todd-Coxeter coset
enumeration, run in the free group: ``_PartialTable`` holds the one
merge routine, and ``fold`` and ``subgroup._Enumeration`` both use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import AlphabetMismatch
from .words import Alphabet, Word, free_reduce, letter_index


class XGraph:
    """A finite directed multigraph with alphabet-labeled edges.  ``edges`` holds each
    edge once, sorted by (origin, label, terminus), in linear time from sorted input.
    ``_of`` stores, in the given order and with no check, edges that its caller
    guarantees distinct, sorted and in range; only producers whose edges are so by
    construction call it."""

    __slots__ = ("alphabet", "vertex_count", "edges", "_arcs")

    def __init__(self, alphabet: Alphabet, vertex_count: int,
                 edges: Iterable[tuple[int, int, int]]):
        if vertex_count < 0:
            raise ValueError(f"vertex count {vertex_count} is negative")
        self.alphabet = alphabet
        self.vertex_count = vertex_count
        k = len(alphabet)
        edges = tuple(sorted(dict.fromkeys(edges)))
        for (u, li, v) in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {li}, {v}) out of range")
            if not 0 <= li < k:
                raise ValueError(f"edge label index {li} out of range")
        self.edges = edges
        self._arcs = None

    @classmethod
    def _of(cls, alphabet: Alphabet, vertex_count: int,
            edges: Iterable[tuple[int, int, int]]) -> "XGraph":
        g = cls.__new__(cls)
        g.alphabet, g.vertex_count, g.edges, g._arcs = alphabet, vertex_count, tuple(edges), None
        return g

    def _arc_list(self) -> list[list[tuple[int, int]]]:
        """Per vertex, its ``(column, end)`` arcs sorted by column; a loop
        gives two.  Within a column, ends ascend as the sorted edges do."""
        if self._arcs is None:
            arcs = [[] for _ in range(self.vertex_count)]
            for (u, li, v) in self.edges:
                arcs[u].append((2 * li, v))
                arcs[v].append((2 * li + 1, u))
            for row in arcs:
                row.sort()
            self._arcs = arcs
        return self._arcs

    def _ends(self, v: int, col: int) -> list[int]:
        return [t for c, t in self._arc_list()[v] if c == col]

    def __repr__(self) -> str:
        return f"XGraph({self.vertex_count} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class BasedXGraph:
    """An X-graph with a distinguished base vertex."""

    graph: XGraph
    base: int

    def __post_init__(self):
        if self.graph.vertex_count == 0:
            raise ValueError("a based graph needs at least one vertex")
        if not 0 <= self.base < self.graph.vertex_count:
            raise ValueError("base vertex out of range")

    @property
    def alphabet(self) -> Alphabet:
        return self.graph.alphabet

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count


@dataclass(frozen=True)
class Morphism:
    """A label-preserving vertex map between two X-graphs."""

    vertex_map: tuple[int, ...]

    def __call__(self, v: int) -> int:
        return self.vertex_map[v]


def is_folded(g: XGraph) -> bool:
    """Per vertex and letter: at most one out-edge and one in-edge."""
    return all(len(dict(arcs)) == len(arcs) for arcs in g._arc_list())


def _component(g: XGraph, start: int) -> set[int]:
    arcs = g._arc_list()
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for _, t in arcs[v]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


class _PartialTable:
    """A partial coset table: rows of columns, ``inverse[col]`` the column
    that reads col backwards (col itself for a letter that is its own
    inverse), None for an empty entry (an entry and its inverse are set and
    cleared together); a union-find over the rows that keeps the least id
    as representative; and the queue of merged rows to process."""

    def __init__(self, inverse: Sequence[int], rows: int):
        self.inverse = inverse
        self.ncols = len(inverse)
        self.table: list[list[Optional[int]]] = [[None] * self.ncols for _ in range(rows)]
        self.parent = list(range(rows))
        self.alive = rows
        self.queue: list[int] = []

    def rep(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def _merge(self, a: int, b: int) -> bool:
        """Union the classes of a and b, queueing the one that dies."""
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return False
        if b < a:
            a, b = b, a
        self.parent[b] = a
        self.alive -= 1
        self.queue.append(b)
        return True

    def _install(self, mu: int, col: int, nu: int) -> None:
        """Set the entry mu --col--> nu of two live rows, or merge with the
        entry already set at either end."""
        table, inv = self.table, self.inverse[col]
        if table[mu][col] is not None:
            self._merge(nu, table[mu][col])
        elif table[nu][inv] is not None:
            self._merge(mu, table[nu][inv])
        else:
            table[mu][col] = nu
            table[nu][inv] = mu

    def _process(self) -> None:
        """Move the entries of every queued row onto its representative;
        afterwards no live row references a dead one."""
        table, queue = self.table, self.queue
        while queue:
            dead = queue.pop()
            row = table[dead]
            for col, inv in enumerate(self.inverse):
                target = row[col]
                if target is None:
                    continue
                row[col] = None
                # drop the back-reference before re-installing the edge
                trow = table[target]
                if trow[inv] == dead:
                    trow[inv] = None
                self._install(self.rep(dead), col, self.rep(target))

    def _coincidence(self, a: int, b: int) -> None:
        self._merge(a, b)
        self._process()


def fold(g: XGraph) -> tuple[XGraph, Morphism]:
    """Identify edges with equal origin (or terminus) and label to a fixed point.

    Each edge is installed in a partial table with a row per vertex, and
    where an entry is already set the two ends merge, as in a coincidence
    of coset enumeration.  Returns the folded graph, its vertices numbered
    by least member and its edges mapped in input order (nearly sorted), and
    the quotient morphism, which keeps the subgroup of loop labels at a vertex.
    """
    t = _PartialTable([c ^ 1 for c in range(2 * len(g.alphabet))], g.vertex_count)
    for (u, li, v) in g.edges:
        t._install(t.rep(u), 2 * li, t.rep(v))
    t._process()
    reps = [t.rep(v) for v in range(g.vertex_count)]
    renum = {r: i for i, r in enumerate(v for v, r in enumerate(reps) if r == v)}
    vmap = tuple([renum[r] for r in reps])
    # lazily, so that no list holds every duplicate and sets off the collector
    edges = ((vmap[u], li, vmap[v]) for (u, li, v) in g.edges)
    return XGraph(g.alphabet, len(renum), edges), Morphism(vmap)


def core(g: BasedXGraph) -> BasedXGraph:
    """The union of all reduced loops at the base of a folded graph.

    Computed as the base's connected component with every degree-1 vertex
    other than the base deleted iteratively, from a worklist of vertices
    whose degree has dropped to one or less; a core comes back as it is.
    """
    alive = _component(g.graph, g.base)
    arcs = g.graph._arc_list()
    deg = {v: len(arcs[v]) for v in alive}
    stack = [v for v in alive if v != g.base and deg[v] <= 1]
    # pushed once, at degree 1: the alive set stays connected, so only the base can drop to 0
    while stack:
        v = stack.pop()
        alive.remove(v)
        for _, w in arcs[v]:
            if w in alive:
                deg[w] -= 1
                if deg[w] <= 1 and w != g.base:
                    stack.append(w)
    if len(alive) == g.vertex_count:
        return g
    order = sorted(alive)
    renum = {v: i for i, v in enumerate(order)}
    # a monotone renumbering of a subset of sorted edges keeps them sorted
    new_edges = [(renum[u], li, renum[v]) for (u, li, v) in g.graph.edges
                 if u in alive and v in alive]
    return BasedXGraph(XGraph._of(g.alphabet, len(order), new_edges), renum[g.base])


def trace(g: XGraph, start: int, w: Word) -> Optional[int]:
    """Follow ``w`` from ``start`` in a folded graph.

    Inverse letters traverse positive edges backwards.  Returns the terminus, or
    None where no edge exists (never in an X-regular graph).  Raises ValueError
    unless ``start`` is a vertex, AlphabetMismatch for letters outside the alphabet.
    """
    if not 0 <= start < g.vertex_count:
        raise ValueError(f"start vertex {start} out of range")
    if w.max_index() >= len(g.alphabet):
        raise AlphabetMismatch("word uses letters outside the alphabet")
    v = start
    for lt in w:
        step = g._ends(v, 2 * letter_index(lt) + (lt < 0))
        if not step:
            return None
        v = step[0]
    return v


def _bfs(g: BasedXGraph):
    """Deterministic BFS from the base along the arcs at each vertex in
    order (by letter, positive before inverse).  Returns (order, parent):
    the vertices in discovery order, and the Schreier vector that maps the
    base to None and every other vertex to the vertex it was discovered
    from and the signed letter read from there.  Raises ValueError unless
    the BFS reaches every vertex."""
    arcs = g.graph._arc_list()
    order = [g.base]
    parent: dict[int, Optional[tuple[int, int]]] = {g.base: None}
    for v in order:
        for col, t in arcs[v]:
            if t not in parent:
                parent[t] = (v, -(col // 2 + 1) if col & 1 else col // 2 + 1)
                order.append(t)
    if len(order) != g.vertex_count:
        raise ValueError("graph is not connected")
    return order, parent


def _tree_words(order: Sequence[int], parent) -> list[Word]:
    """Per vertex, the label of its tree path from the base, read off a BFS
    ``order`` of every vertex and its Schreier vector ``parent``."""
    reps = [Word()] * len(order)
    for t in order[1:]:
        v, lt = parent[t]
        reps[t] = Word(reps[v].letters + (lt,))
    return reps


def _loop_words(edges: Iterable[tuple[int, int, int]], parent, reps: Sequence[Word]) -> list[Word]:
    """The labels ``reps[u] x reps[v]^-1`` of the loops closed by the edges ``(u, x, v)``
    outside the tree of the Schreier vector ``parent``, whose tree words are ``reps``, in
    edge order; reduced in a folded graph, where x cancels only against its own edge."""
    return [Word(reps[u].letters + (li + 1,) + reps[v].inverse().letters)
            for (u, li, v) in edges
            if parent[v] != (u, li + 1) and parent[u] != (v, -li - 1)]


def canonicalize(g: BasedXGraph) -> tuple[BasedXGraph, Morphism]:
    """Renumber vertices in BFS discovery order from the base; a graph
    already so numbered comes back as it is, with the identity."""
    order, _ = _bfs(g)
    if g.base == 0 and order == list(range(g.vertex_count)):
        return g, Morphism(tuple(order))
    renum = {v: i for i, v in enumerate(order)}
    edges = [(renum[u], li, renum[v]) for (u, li, v) in g.graph.edges]
    edges.sort()  # a bijective renumbering keeps the edges distinct and in range
    vmap = tuple(renum[v] for v in range(g.vertex_count))
    return BasedXGraph(XGraph._of(g.alphabet, g.vertex_count, edges), 0), Morphism(vmap)


def free_basis(g: BasedXGraph) -> list[Word]:
    """Labels of the loops closed by the edges outside the spanning tree.

    For a folded connected graph these words are a free basis of the loop
    language at the base; their number is ``|E| - (|V| - 1)``.
    """
    order, parent = _bfs(g)
    return [free_reduce(w) for w in _loop_words(g.graph.edges, parent, _tree_words(order, parent))]


def _check_same_alphabet(a1: Alphabet, a2: Alphabet) -> None:
    if a1 != a2:
        raise AlphabetMismatch("graphs live over different alphabets")


def _propagate(g1: XGraph, v1: int, g2: XGraph, v2: int) -> Optional[Morphism]:
    """Propagate v1 -> v2 along the arcs of folded graphs.

    Returns the morphism, or None on a conflict or unless g1 is connected
    from ``v1``.
    """
    fmap: dict[int, int] = {v1: v2}
    queue = [v1]
    while queue:
        u = queue.pop()
        for col, t in g1._arc_list()[u]:
            theirs = g2._ends(fmap[u], col)
            if len(theirs) > 1 or len(g1._ends(u, col)) > 1:
                raise ValueError("graphs must be folded")
            if not theirs:
                return None
            if t in fmap:
                if fmap[t] != theirs[0]:
                    return None
            else:
                fmap[t] = theirs[0]
                queue.append(t)
    if len(fmap) != g1.vertex_count:
        return None  # g1 not connected from v1
    # every vertex is mapped, so every arc of g1 was matched at its image
    return Morphism(tuple(fmap[v] for v in range(g1.vertex_count)))


def find_morphism(src: BasedXGraph, dst: XGraph) -> Optional[Morphism]:
    """A label-preserving vertex map from ``src`` into ``dst``, or None.

    Tries each vertex of ``dst`` as the image of the base, in ascending id
    order, and propagates deterministically.
    """
    _check_same_alphabet(src.alphabet, dst.alphabet)
    maps = (_propagate(src.graph, src.base, dst, v2) for v2 in range(dst.vertex_count))
    return next((m for m in maps if m is not None), None)


def wedge_of_words(alphabet: Alphabet, generators: Sequence[Word]) -> BasedXGraph:
    """One loop per generator word, all attached at a single base vertex."""
    edges = []
    n = 1
    for w in generators:
        if w.max_index() >= len(alphabet):
            raise AlphabetMismatch("generator uses letters outside the alphabet")
        w = free_reduce(w)
        if w.is_identity():
            continue
        path = [0, *range(n, n + len(w) - 1), 0]
        n += len(w) - 1
        edges += [(u, lt - 1, v) if lt > 0 else (v, -lt - 1, u)
                  for u, lt, v in zip(path, w.letters, path[1:])]
    return BasedXGraph(XGraph(alphabet, n, edges), 0)


def free_subgroup_graph(alphabet: Alphabet, generators: Sequence[Word]) -> BasedXGraph:
    """The folded core graph of the subgroup of F(X) generated by the words.

    This is the canonical based graph whose loop language at the base is the
    subgroup; vertices are numbered in BFS order from the base.  A fold of
    reduced loops is already a core: every other vertex has two columns.
    """
    wedge = wedge_of_words(alphabet, generators)
    folded, m = fold(wedge.graph)
    return canonicalize(BasedXGraph(folded, m(wedge.base)))[0]
