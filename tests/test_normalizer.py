"""Normality, normalizers and conjugacy from the automorphisms of the table.

``reference_rebased_is`` is the method the calculus used before: renumber
the whole table by BFS from a vertex and compare it with the other table.
Normality, the normalizer (its representatives, and its graph from coset
enumeration over the generators and those representatives), conjugacy and
unbased isomorphism computed with it must equal what the package returns.
The normalizer also ties low-index search to independent counts: a class
of index n with |N_G(H) : H| = m has n / m based members.
"""

import random
from collections import defaultdict
from functools import cache

import pytest

from stallings import (
    EnumerationTask,
    Presentation,
    SubgroupGraph,
    Word,
    coset_enumerate,
    enumerate_graphs,
    free_presentation,
)


def coxeter(gens, orders):
    """The Coxeter group with m(s_i, s_j) = orders[(i, j)], 2 when absent."""
    rels = [f"{s} {s}" for s in gens]
    rels += [" ".join([f"{gens[i]} {gens[j]}"] * orders.get((i, j), 2))
             for i in range(len(gens)) for j in range(i + 1, len(gens))]
    return Presentation.parse(gens, rels)


S4 = coxeter(["s1", "s2", "s3"], {(0, 1): 3, (1, 2): 3})
S5 = coxeter(["s1", "s2", "s3", "s4"], {(0, 1): 3, (1, 2): 3, (2, 3): 3})
S7 = coxeter([f"s{i}" for i in range(1, 7)], {(i, i + 1): 3 for i in range(5)})
B3 = coxeter(["t", "s1", "s2"], {(0, 1): 4, (1, 2): 3})
A2 = coxeter(["a", "b", "c"], {(0, 1): 3, (1, 2): 3, (0, 2): 3})
MODULAR = Presentation.parse(["a", "b"], ["a a", "b b b"])  # PSL(2, Z)
T237 = Presentation.parse(["a", "b"], ["a a", "b b b", " ".join(["a b"] * 7)])

HALL_F2 = [1, 3, 13, 71, 461, 3447]  # index-n subgroups of F2, Hall (1949)
A005133 = [1, 1, 4, 8, 5, 22, 42, 40, 120, 265]  # index-n subgroups of PSL(2, Z)
A057005 = [1, 3, 7, 26, 97, 624, 4163]  # conjugacy classes of index-n subgroups of F2


@cache
def columns(sg):
    """The table's columns in scan order: each generator, then its inverse."""
    cols = []
    for perm in sg.coset_table().permutations:
        cols += [perm, tuple(sorted(range(len(perm)), key=perm.__getitem__))]
    return cols


def canonical_rows(cols, base):
    """The rows of the table, renumbered by BFS from ``base``."""
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


def reference_rebased_is(sg, base, other) -> bool:
    """``sg`` based at ``base`` is isomorphic to ``other`` (of the same
    index): the canonical tables agree row by row."""
    return all(a == b for a, b in zip(canonical_rows(columns(sg), base), zip(*columns(other))))


def reference_normalizer(sg):
    reps = [r for v, r in enumerate(sg.coset_reps) if reference_rebased_is(sg, v, sg)]
    return reps, coset_enumerate(sg.presentation, sg.generators() + reps,
                                 max_cosets=sg.index())


def seeded_subgroups(pres, seed, count):
    """The trivial subgroup and ``count`` subgroups on one or two random
    words of length one to six."""
    rng = random.Random(seed)
    k = len(pres.alphabet)
    words = [[Word([rng.choice((1, -1)) * rng.randint(1, k) for _ in range(rng.randint(1, 6))])
              for _ in range(rng.randint(1, 2))] for _ in range(count)]
    return [coset_enumerate(pres, gens) for gens in [[]] + words]


@pytest.fixture(scope="module")
def pools():
    """Subgroups of S4, S5 and B3 from seeded words, every A~2 class up to
    index 9 and every PSL(2, Z) class up to index 10."""
    return ([seeded_subgroups(pres, seed, 30) for seed, pres in enumerate((S4, S5, B3))]
            + [[sg for n in range(1, top + 1) for sg in enumerate_graphs(EnumerationTask(pres, n))]
               for pres, top in ((A2, 9), (MODULAR, 10))])


def test_normality_and_normalizer_match_reference(pools):
    for sg in (sg for pool in pools for sg in pool):
        reps, normalizer = sg.normalizer()
        expected_reps, expected = reference_normalizer(sg)
        assert sg.is_normal() == (len(expected_reps) == sg.index())
        assert reps == expected_reps
        assert normalizer.coset_table() == expected.coset_table()
        assert normalizer.coset_reps == expected.coset_reps


def test_conjugacy_and_isomorphism_match_reference(pools):
    """Every pair of the first eight subgroups of each index in each pool."""
    for pool in pools:
        by_index = defaultdict(list)
        for sg in pool:
            by_index[sg.index()].append(sg)
        for group in by_index.values():
            for h in group[:8]:
                for k in group[:8]:
                    n = h.index()
                    expected = next((h.coset_reps[v] for v in range(n)
                                     if reference_rebased_is(h, v, k)), None)
                    assert h.conjugate(k) == expected
                    assert h.isomorphic_unbased_to(k) == any(
                        reference_rebased_is(k, v, h) for v in range(n))


def test_trivial_subgroup_of_s7_is_normal(monkeypatch):
    """Each automorphism found at least doubles the base's orbit, so at
    most log2(5040) < 13 renumberings run."""
    calls = []
    rebased_map = SubgroupGraph._rebased_map
    monkeypatch.setattr(SubgroupGraph, "_rebased_map",
                        lambda sg, *args: calls.append(args) or rebased_map(sg, *args))
    trivial = coset_enumerate(S7, [])
    assert trivial.index() == 5040
    assert trivial.is_normal()
    reps, normalizer = trivial.normalizer()
    assert len(reps) == 5040
    assert normalizer.index() == 1
    assert len(calls) <= 2 * 12


def covered(pres, n):
    """The number of based subgroups the unbased classes at index n stand
    for: n / |N_G(H) : H| each."""
    classes = enumerate_graphs(EnumerationTask(pres, n, mode="unbased"))
    return sum(sg.index() // len(sg.normalizer()[0]) for sg in classes)


@pytest.mark.parametrize("pres, based", [
    (free_presentation(["a", "b"]), HALL_F2),
    (MODULAR, A005133),
    (T237, None),  # counted by the based search, up to index 14
])
def test_conjugacy_classes_cover_the_based_count(pres, based):
    if based is None:
        based = [len(enumerate_graphs(EnumerationTask(pres, n))) for n in range(1, 15)]
    assert [covered(pres, n) for n in range(1, len(based) + 1)] == based


def test_free_group_class_counts():
    f2 = free_presentation(["a", "b"])
    assert [len(enumerate_graphs(EnumerationTask(f2, n, mode="unbased")))
            for n in range(1, 8)] == A057005
