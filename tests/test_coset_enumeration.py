"""Coset enumeration: the cosets it defines, its counters, its budget and
its reach.

``len(_Enumeration.table)`` counts the cosets defined (coset 0 included).
The counts below were recorded from the earlier engine, which rescanned
every relator at every live coset until nothing changed.  The deduction
stack closes the table under the same consequences before each definition,
so it must define the same cosets: the budget ``max_cosets`` bounds live
cosets at each definition.

``_Enumeration.run`` handles each popped deduction in one inlined loop over
the relator cycles of the presentation's column layout, which ``_layout``
builds once per presentation and which the low-index search shares: an
involution has one column.  ``ReferenceEnumeration`` keeps the loop it
replaced, one ``_apply`` call per cycle over its own two-column scan (a
forward and an inverse column per generator) and an uncached build of the
cycles.  The two must agree on tables, cosets defined and the counters
``coincidences`` (merges) and ``peak`` (most live cosets); the layout pops
no more ``deductions`` (entries popped).  Every merge kills one defined
coset, so ``coincidences`` is the number defined less the index.

``forward_columns`` numbers the live cosets in id order, so the two are
compared as canonical tables, the ``SubgroupGraph`` of each side's columns.
"""

import random
from itertools import permutations

import pytest

from stallings import (CosetLimitExceeded, Presentation, SubgroupGraph, Word, coset_enumerate,
                       free_reduce)
from stallings import subgroup
from stallings.enumerator import _Search
from stallings.subgroup import _Enumeration, _bfs, _layout, _table
from stallings.xgraph import _PartialTable


def symmetric(n: int) -> Presentation:
    """S_n as the Coxeter group of type A_{n-1}."""
    gens = [f"s{i}" for i in range(1, n)]
    rels = [f"{s} {s}" for s in gens]
    rels += [" ".join([f"s{i} s{j}"] * (3 if j == i + 1 else 2))
             for i in range(1, n) for j in range(i + 1, n)]
    return Presentation.parse(gens, rels)


def hyperoctahedral(n: int) -> Presentation:
    """B_n as a Coxeter group; t negates a point, s_i swaps two."""
    gens = ["t"] + [f"s{i}" for i in range(1, n)]
    rels = [f"{s} {s}" for s in gens] + [" ".join(["t s1"] * 4)]
    rels += [f"t s{j} t s{j}" for j in range(2, n)]
    rels += [" ".join([f"s{i} s{j}"] * (3 if j == i + 1 else 2))
             for i in range(1, n) for j in range(i + 1, n)]
    return Presentation.parse(gens, rels)


GROUPS = {
    "S4": symmetric(4), "S5": symmetric(5), "S6": symmetric(6), "B3": hyperoctahedral(3),
    "B4": hyperoctahedral(4),
    # a relator of length one and one that is not cyclically reduced
    "Z4": Presentation.parse(["a", "b", "c"], ["b", "a a a", "c b a c^-1", "c c c c"]),
    "S3": Presentation.parse(["x", "y"], ["x x x", "x y y x^-1", "x y x y"]),
    # involutions written s s and s^-1 s^-1: the dihedral group of order 8
    "D4": Presentation.parse(["a", "b"], ["a^-1 a^-1", "b b", "a b a b a b a b"]),
    # a relator of length one beside s s
    "Z3": Presentation.parse(["a", "b", "c"], ["a", "a a", "b^-1 b^-1", "c b c^-1 b", "c c c"]),
}
A2 = Presentation.parse(["a", "b", "c"],
                        ["a a", "b b", "c c", "a b a b a b", "b c b c b c", "a c a c a c"])

# (group, subgroup generators, index, cosets defined)
DEFINED = [
    ("S4", ["s2 s3", "s1"], 1, 2),
    ("S4", ["s2", "s1 s3 s1 s1 s1", "s2 s1 s1 s1"], 1, 2),
    ("S4", ["s1 s3 s1 s1", "s3 s3 s1 s3 s3 s2", "s1"], 1, 1),
    ("S4", ["s1 s2 s2 s1 s3"], 12, 13),
    ("S4", ["s2 s3 s3 s1 s1"], 12, 13),
    ("S4", ["s3 s1 s2 s1 s3", "s1 s3 s1 s3 s1 s2", "s3 s2 s2 s2 s3 s2"], 1, 6),
    ("S4", ["s1 s1 s3", "s1 s3"], 6, 7),
    ("S4", ["s2 s2 s3 s2 s2", "s1 s1 s3 s2 s1"], 1, 3),
    ("S4", ["s2 s2", "s3"], 12, 12),
    ("S4", ["s3 s2 s2 s3 s2"], 12, 15),
    ("S5", ["s4 s1 s1 s3", "s1 s1 s3 s4", "s4 s3 s1"], 20, 21),
    ("S5", ["s2 s1 s4", "s2"], 10, 11),
    ("S5", ["s2 s4", "s4 s1 s2 s4"], 20, 21),
    ("S5", ["s3 s2 s4 s3 s4", "s4 s2 s2"], 15, 18),
    ("S5", ["s2 s2"], 120, 120),
    ("S5", ["s1 s4", "s2 s3 s3 s1 s2", "s3 s3 s2 s1"], 10, 12),
    ("S5", ["s4 s4 s4 s4 s1 s4", "s4 s1 s2 s1 s2 s4"], 20, 23),
    ("S5", ["s3"], 60, 60),
    ("S5", ["s1", "s2", "s1 s3 s1 s1 s2"], 5, 5),
    ("S5", ["s2 s3 s3 s3", "s1 s1 s4 s4", "s4 s3 s1 s2"], 2, 8),
    ("B3", ["s1 s2 s1 s1 s2 t"], 12, 18),
    ("B3", ["t", "s1 t s2 s2 t", "s1 s2 t s2 s1"], 6, 7),
    ("B3", ["t s1 t", "s2 s2 s1 s2 t", "t t s1 s2 t"], 1, 3),
    ("B3", ["s1 s1 s2 t t"], 24, 24),
    ("B3", ["s1 t s2 s2", "s1 s2 s1"], 1, 4),
    ("B3", ["t", "t"], 24, 24),
    ("B3", ["s1 t", "s2 s2 t s1"], 12, 12),
    ("B3", ["s2 t s2", "s1", "t s1 t s1 s2 s1"], 1, 3),
    ("B3", ["s1 s1 s1 s2 t s2"], 12, 14),
    ("B3", ["t t"], 48, 48),
    ("S5", [], 120, 120),
    ("B4", [], 384, 384),
    ("S6", ["s1"], 360, 360),
    ("Z4", [], 4, 6),
    ("Z4", ["c"], 1, 1),
    ("Z4", ["c a c"], 2, 4),
    ("Z4", ["a c^-1 c^-1"], 2, 4),
    ("S3", [], 6, 6),
    ("S3", ["y"], 3, 3),
    ("S3", ["x y x"], 3, 3),
]


@pytest.mark.parametrize("group, gens, index, defined", DEFINED)
def test_cosets_defined(group, gens, index, defined):
    pres = GROUPS[group]
    enum = _Enumeration(pres)
    enum.run([pres.word(w) for w in gens], 10_000)
    assert len(enum.forward_columns()[0]) == index
    assert len(enum.table) == defined
    assert enum.coincidences == defined - index
    assert index <= enum.peak <= defined


def test_counters_of_the_trivial_subgroup_of_s5():
    enum = _Enumeration(GROUPS["S5"])
    enum.run([], 10_000)
    counters = (len(enum.table), enum.coincidences, enum.peak, enum.deductions, enum.scans)
    assert counters == (120, 0, 120, 240, 720)
    for n, scans in [(6, 7_200), (7, 75_600)]:
        enum = _Enumeration(symmetric(n))
        enum.run([], 10_000)
        assert enum.scans == scans


@pytest.mark.parametrize("max_cosets", [40, 200])
@pytest.mark.parametrize("gens", [["a", "b"], ["b", "c"], ["a", "c"]])
def test_dihedral_subgroups_of_a2_exhaust_the_budget(gens, max_cosets):
    # finite subgroups of an infinite group: infinite index
    enum = _Enumeration(A2)
    with pytest.raises(CosetLimitExceeded):
        enum.run([A2.word(w) for w in gens], max_cosets)
    assert len(enum.table) == enum.alive == max_cosets
    assert enum.scans > 0 and enum.deductions > 0
    with pytest.raises(CosetLimitExceeded):
        coset_enumerate(A2, [A2.word(w) for w in gens], max_cosets=max_cosets)


@pytest.mark.parametrize("n, order", [(6, 720), (7, 5040)])
def test_trivial_subgroup_closes_under_the_default_budget(n, order):
    pres = symmetric(n)
    sg = coset_enumerate(pres)
    assert sg.index() == order
    members = ["s1 s1", "s1 s2 s1 s2 s1 s2", "s1 s3 s1 s3", f"s{n - 1} s1 s{n - 1} s1"]
    assert all(sg.contains(pres.word(w)) for w in members)
    assert not any(sg.contains(pres.word(w)) for w in ["s1", "s1 s2", "s1 s3", "s2 s1 s2"])


def _permutation(word, n):
    """The permutation of range(n) a word of S_n acts by, s_i swapping i-1, i."""
    p = list(range(n))
    for lt in word:
        i = abs(lt)
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _closure(gens, n):
    elements = {tuple(range(n))}
    frontier = list(elements)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple(g[i] for i in x)
            if y not in elements:
                elements.add(y)
                frontier.append(y)
    return frozenset(elements)


def _conjugate(g, x):
    inverse = sorted(range(len(g)), key=g.__getitem__)
    return tuple(g[x[inverse[i]]] for i in range(len(g)))


@pytest.mark.parametrize("gens", [
    [], ["s1"], ["s1", "s3"], ["s1 s2"], ["s1", "s2"], ["s1 s2 s3 s4"],
    ["s1 s3", "s2 s4"], ["s1 s2", "s3 s4"], ["s1", "s2", "s3"], ["s1 s2 s3 s4", "s1"],
])
def test_normalizer_in_s5(gens):
    """|G : N_G(H)| is the number of conjugates of H, counted on permutations."""
    pres = symmetric(5)
    h = coset_enumerate(pres, [pres.word(w) for w in gens])
    reps, n = h.normalizer()
    group = [tuple(p) for p in permutations(range(5))]
    sub = _closure([_permutation(pres.word(w), 5) for w in gens], 5)
    assert len(group) // len(sub) == h.index()
    conjugates = {frozenset(_conjugate(g, x) for x in sub) for g in group}
    assert n.index() == len(conjugates)
    assert len(reps) == h.index() // n.index()
    assert all(n.contains(w) for w in reps + h.generators())


def test_no_live_row_references_a_dead_coset(monkeypatch, random_presentation):
    """The scan kernel reads the table without union-find lookups, which is
    sound only if a coincidence leaves no live row pointing at a dead coset."""
    checks = []
    coincidence = _Enumeration._coincidence

    def checked(self, a, b):
        coincidence(self, a, b)
        live = [row for c, row in enumerate(self.table) if self.rep(c) == c]
        assert all(t is None or self.rep(t) == t for row in live for t in row)
        checks.append((a, b))

    monkeypatch.setattr(_Enumeration, "_coincidence", checked)
    jobs = [(GROUPS["S5"], [], 10_000)]
    jobs += [(GROUPS[g], [GROUPS[g].word(w) for w in gens], 10_000)
             for g, gens, _, _ in DEFINED if g in ("B3", "Z4")]
    jobs += [(A2, [A2.word(w) for w in gens], 200) for gens in ["ab", "bc", "ac"]]
    rng = random.Random(7)
    for _ in range(300):
        k = rng.randint(1, 3)
        pres = random_presentation(rng, k)
        gens = [Word(rng.choice([1, -1]) * rng.randint(1, k) for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(0, 2))]
        jobs.append((pres, gens, 200))
    for pres, gens, max_cosets in jobs:
        try:
            _Enumeration(pres).run(gens, max_cosets)
        except CosetLimitExceeded:
            pass
    assert len(checks) > 1000


def canonical_rows(cols, order):
    """The rows of the table with these columns, in scan order, renumbered
    by BFS from ``order == [base]``, one per reached vertex: vertices are
    numbered, and appended to ``order``, in order of first appearance."""
    cols = list(cols)
    new = [-1] * len(cols[0])
    new[order[0]] = 0
    for v in order:
        row = []
        for col in cols:
            t = col[v]
            if new[t] < 0:
                new[t] = len(order)
                order.append(t)
            row.append(new[t])
        yield tuple(row)


def reference_columns(w):
    """The columns a word reads in two-column tables: 2i for generator i,
    2i+1 for its inverse."""
    return tuple(2 * abs(lt) - 2 + (lt < 0) for lt in w)


def reference_scan(table, alpha, cols):
    """The scan of coset enumeration over a two-column table: () if the word
    reading ``cols`` at ``alpha`` closes or leaves a gap of two or more
    entries, (f, col, b) if it forces f --col--> b, and (a, b) for two rows
    that must coincide."""
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
    o = table[b][col ^ 1]
    return (f, col, b) if o is None else (o, f)


def uncached_cycles(presentation):
    """The relator cycles per column of a two-column table, built afresh as
    lists, the cycles s s included."""
    cycles = dict.fromkeys(w[k:] + w[:k] for r in presentation.relators
                           for w in (reference_columns(r), reference_columns(r.inverse()))
                           for k in range(len(w)))
    return [[w for w in cycles if w[0] == col]
            for col in range(2 * len(presentation.alphabet))]


def with_involutions(rng, pres):
    """``pres`` with s s or s^-1 s^-1 added for a random set of its
    generators, in random places."""
    relators = list(pres.relators)
    for i in range(1, len(pres.alphabet) + 1):
        if rng.random() < 0.5:
            relators.insert(rng.randint(0, len(relators)), Word([rng.choice([i, -i])] * 2))
    return Presentation(pres.alphabet, relators)


class ReferenceEnumeration(_PartialTable):
    """The enumeration loop before it was inlined, over two-column tables:
    each relator cycle is scanned by a call to ``_apply``, liveness is
    tested with ``rep`` and the cycles are built afresh; counters as in
    ``_Enumeration``."""

    def __init__(self, presentation):
        super().__init__([c ^ 1 for c in range(2 * len(presentation.alphabet))], 1)
        self.stack = []
        self.conjugates = uncached_cycles(presentation)
        self.loops = [w for ws in self.conjugates for w in ws if len(w) == 1]
        self.coincidences = self.deductions = 0
        self.peak = 1

    def _merge(self, a, b):
        merged = super()._merge(a, b)
        if merged:
            self.coincidences += 1
            survivor = self.rep(a)
            self.stack.extend((survivor, col) for col in range(self.ncols))
        return merged

    def _apply(self, alpha, cols):
        found = reference_scan(self.table, alpha, cols)
        if len(found) == 2:
            self._coincidence(*found)
        elif found:
            f, col, b = found
            self._install(f, col, b)
            self.stack.append((f, col))

    def _define(self, alpha, col):
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.parent.append(beta)
        self.alive += 1
        self.peak = max(self.peak, self.alive)
        self._install(alpha, col, beta)
        self.stack.append((alpha, col))
        for w in self.loops:
            self._apply(beta, w)

    def run(self, subgens, max_cosets):
        subgens = [w for w in (reference_columns(free_reduce(w)) for w in subgens) if w]
        for w in self.loops:
            self._apply(0, w)
        first = 0
        while True:
            while True:
                while self.stack:
                    alpha, col = self.stack.pop()
                    self.deductions += 1
                    for w in self.conjugates[col]:
                        if self.rep(alpha) != alpha:
                            break
                        self._apply(alpha, w)
                for w in subgens:
                    self._apply(0, w)
                if not self.stack:
                    break
            table = self.table
            while first < len(table) and (self.rep(first) != first or None not in table[first]):
                first += 1
            if first == len(table):
                return
            if self.alive >= max_cosets:
                raise CosetLimitExceeded(max_cosets)
            self._define(first, table[first].index(None))

    def forward_columns(self):
        return list(zip(*canonical_rows(zip(*self.table), [0])))[0::2]


def _outcome(enum, pres, gens, max_cosets):
    """What a run leaves: the canonical table and Schreier vector of its
    closed table, or the live cosets when the budget stopped it, with the
    cosets defined and the counters, ``deductions`` last."""
    try:
        enum.run(gens, max_cosets)
        sg = SubgroupGraph(pres, enum.forward_columns())
        result = (sg._table, sg._parent)
    except CosetLimitExceeded:
        result = ("budget", enum.alive)
    return result, len(enum.table), enum.coincidences, enum.peak, enum.deductions


def test_inlined_loop_matches_the_reference(random_presentation):
    rng = random.Random(13)
    jobs = []
    for _ in range(210):
        pres = GROUPS[rng.choice(sorted(GROUPS))]
        k = len(pres.alphabet)
        gens = [Word(rng.choice([1, -1]) * rng.randint(1, k) for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 3))]
        jobs.append((pres, gens, 10_000))
    jobs += [(A2, [A2.word(w) for w in gens], m)
             for gens in (["a", "b"], ["b", "c"], ["a", "c"], ["a b"]) for m in (40, 200)]
    for _ in range(200):
        k = rng.randint(1, 3)
        pres = random_presentation(rng, k)
        if rng.random() < 0.5:
            pres = with_involutions(rng, pres)
        gens = [Word(rng.choice([1, -1]) * rng.randint(1, k) for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(0, 2))]
        jobs.append((pres, gens, 200))
    budget_hits = involutions = 0
    for pres, gens, max_cosets in jobs:
        got = _outcome(_Enumeration(pres), pres, gens, max_cosets)
        expected = _outcome(ReferenceEnumeration(pres), pres, gens, max_cosets)
        assert got[:-1] == expected[:-1], (pres, gens, max_cosets)
        assert got[-1] <= expected[-1]
        budget_hits += got[0][0] == "budget"
        involutions += len(_layout(pres).inverse) < 2 * len(pres.alphabet)
    assert budget_hits >= 8 and involutions >= 150


def test_relator_cycles_are_built_once_and_shared():
    """The layout gives an involution one column, and its cycles are the
    two-column cycles read in its columns, without repeats and without the
    cycles s s."""
    involutions = {"S4": 3, "S5": 4, "S6": 5, "B3": 3, "B4": 4, "Z4": 0, "S3": 0, "D4": 2, "Z3": 2,
                   "A2": 3}
    for name, pres in [*GROUPS.items(), ("A2", A2)]:
        layout = _layout(pres)
        assert _layout(pres) is layout
        assert _Enumeration(pres).layout is layout and _Search(pres, 4, 10).layout is layout
        k = len(pres.alphabet)
        assert len(layout.inverse) == 2 * k - involutions[name]
        column = [c for f in layout.forward for c in (f, layout.inverse[f])]
        assert all(layout.inverse[layout.inverse[c]] == c for c in range(len(layout.inverse)))
        mapped = dict.fromkeys(tuple(column[c] for c in w) for ws in uncached_cycles(pres) for w in ws)
        assert isinstance(layout.cycles, tuple)
        for col, ws in enumerate(layout.cycles):
            assert isinstance(ws, tuple)
            cycles = [cols for cols, _ in ws]
            assert len(set(cycles)) == len(cycles)
            assert sorted(cycles) == sorted(w for w in mapped if w[0] == col and w != (col, col))
            assert all(back == tuple(layout.inverse[c] for c in reversed(cols))
                       for cols, back in ws)


def test_one_bfs_per_enumeration(monkeypatch):
    """``forward_columns`` only compacts the live cosets, so the BFS of
    ``SubgroupGraph`` is the only one a call runs, with or without
    coincidences."""
    calls = []
    bfs = subgroup._bfs

    def counted(*args):
        calls.append(args[1])
        return bfs(*args)

    monkeypatch.setattr(subgroup, "_bfs", counted)
    merged = 0
    for group, gens, index, defined in DEFINED:
        pres = GROUPS[group]
        calls.clear()
        assert coset_enumerate(pres, [pres.word(w) for w in gens]).index() == index
        assert calls == [0]
        merged += defined > index
    assert merged >= 15


def test_without_a_coincidence_the_cosets_come_in_bfs_order():
    """A definition fills the first empty entry of the lowest live coset, so
    with no coincidence the cosets are defined in BFS order from coset 0
    and ``SubgroupGraph`` keeps the columns as they are."""
    enum = _Enumeration(GROUPS["S5"])
    enum.run([], 10_000)
    assert enum.coincidences == 0
    forward = enum.forward_columns()
    order, new, _ = _bfs(_table(forward, 4), 0, None, _layout(GROUPS["S5"]).letters)
    assert order == new == list(range(120))
    assert SubgroupGraph(GROUPS["S5"], forward).coset_table().permutations == tuple(forward)
    kept = 0
    for group, gens, index, defined in DEFINED:
        if defined == index:
            pres = GROUPS[group]
            enum = _Enumeration(pres)
            enum.run([pres.word(w) for w in gens], 10_000)
            forward = enum.forward_columns()
            table = _table(forward, len(pres.alphabet))
            assert _bfs(table, 0, None, _layout(pres).letters)[0] == list(range(index))
            kept += 1
    assert kept >= 15


def test_forward_columns_compact_the_live_cosets():
    """After coincidences the live cosets keep their order and are numbered
    0, 1, ... in it."""
    pres = GROUPS["B3"]
    enum = _Enumeration(pres)
    enum.run([pres.word("s1 s2 s1 s1 s2 t")], 10_000)
    live = [v for v in range(len(enum.table)) if enum.rep(v) == v]
    assert len(enum.table) == 18 and len(live) == 12
    forward = enum.forward_columns()
    assert forward == [tuple(live.index(enum.table[v][c]) for v in live)
                       for c in enum.layout.forward]


TRIVIAL = Presentation.parse(["a"], ["a"])
Z2 = Presentation.parse(["a"], ["a a"])


@pytest.mark.parametrize("max_cosets", [0, -1, 2.5, True, "10", None])
@pytest.mark.parametrize("pres", [TRIVIAL, Z2], ids=["<a|a>", "<a|a a>"])
def test_max_cosets_must_be_a_positive_int(pres, max_cosets):
    with pytest.raises(ValueError, match="max_cosets must be a positive integer"):
        coset_enumerate(pres, max_cosets=max_cosets)


def test_one_coset_is_the_least_budget():
    assert coset_enumerate(TRIVIAL, max_cosets=1).index() == 1
    with pytest.raises(CosetLimitExceeded, match="within 1 cosets"):
        coset_enumerate(Z2, max_cosets=1)
    assert coset_enumerate(Z2, max_cosets=2).index() == 2
