"""Coset enumeration: the cosets it defines, its budget and its reach.

``len(_Enumeration.table)`` counts the cosets defined (coset 0 included).
The counts below were recorded from the earlier engine, which rescanned
every relator at every live coset until nothing changed.  The deduction
stack closes the table under the same consequences before each definition,
so it must define the same cosets: the budget ``max_cosets`` bounds live
cosets at each definition, and ``normalizer`` enumerates with the index of
H as its bound.
"""

import random
from itertools import permutations

import pytest

from stallings import CosetLimitExceeded, Presentation, Word, coset_enumerate
from stallings.subgroup import _Enumeration


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


@pytest.mark.parametrize("max_cosets", [40, 200])
@pytest.mark.parametrize("gens", [["a", "b"], ["b", "c"], ["a", "c"]])
def test_dihedral_subgroups_of_a2_exhaust_the_budget(gens, max_cosets):
    # finite subgroups of an infinite group: infinite index
    enum = _Enumeration(A2)
    with pytest.raises(CosetLimitExceeded):
        enum.run([A2.word(w) for w in gens], max_cosets)
    assert len(enum.table) == enum.alive == max_cosets
    with pytest.raises(CosetLimitExceeded):
        coset_enumerate(A2, [A2.word(w) for w in gens], max_cosets=max_cosets)


@pytest.mark.parametrize("n, order", [(6, 720), (7, 5040)])
def test_trivial_subgroup_closes_under_the_default_budget(n, order, monkeypatch):
    monkeypatch.delenv("STALLINGS_MAX_COSETS", raising=False)
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
