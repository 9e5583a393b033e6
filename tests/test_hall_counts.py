"""Based low-index counts against Hall's recursion, for groups with relators.

For a finitely generated group G with h_n = |Hom(G, S_n)| (h_0 = 1), the
number a_n of subgroups of index n, one per based class, satisfies

    a_n = h_n/(n-1)! - sum_{k=1}^{n-1} h_{n-k}/(n-k)! * a_k

(Lubotzky and Segal, *Subgroup Growth*, 2003, section 1.1).  h_n is
counted here by brute force over tuples of permutations that satisfy the
relators, with no package code: the first generator runs over one
permutation per cycle type, weighted by the size of its conjugacy class,
each generator only over the permutations that satisfy its own relators,
and a relator in several generators is checked once they are chosen.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from stallings import Alphabet, EnumerationTask, Presentation, Word, enumerate_graphs


def _coxeter(m):
    """Relators of the Coxeter group with matrix entries ``m[(i, j)]``,
    generators 1..k, as words of signed generator numbers."""
    k = max(j for _, j in m)
    return [(i, i) for i in range(1, k + 1)] + [(i, j) * e for (i, j), e in m.items()]


def _braids(k):
    """S_{k+1} as the Coxeter group of type A_k."""
    return _coxeter({(i, j): 3 if j == i + 1 else 2
                     for i in range(1, k + 1) for j in range(i + 1, k + 1)})


# name: (generator count, positive relators, largest index checked); at
# index 8 the brute force takes 0.4-1.8 s per group, at index 9 about 3-5 s
GROUPS = {
    "triangle-2-3-7": (2, [(1, 1), (2, 2, 2), (1, 2) * 7], 7),
    "triangle-2-4-6": (2, [(1, 1), (2, 2, 2, 2), (1, 2) * 6], 6),
    "PSL(2,Z)": (2, [(1, 1), (2, 2, 2)], 6),
    "A~2": (3, _coxeter({(1, 2): 3, (2, 3): 3, (1, 3): 3}), 8),
    "S3": (2, _braids(2), 8),
    "S4": (3, _braids(3), 8),
    "S5": (4, _braids(4), 8),
}


def _closes(perms, relator, n):
    """True iff the relator, a positive word read left to right as the right
    action of the assigned permutations, fixes every point."""
    for v in range(n):
        u = v
        for lt in relator:
            u = perms[lt][u]
        if u != v:
            return False
    return True


def hom_count(k, relators, n):
    """|Hom(G, S_n)|: the k-tuples of permutations of n points that satisfy
    every relator, each relator checked once its generators are chosen."""
    if n == 0:
        return 1
    everything = list(permutations(range(n)))
    # generator i runs over the permutations that satisfy its own relators
    # (in i alone); once it is chosen, the others whose largest generator is i
    # are checked
    own = {i: [p for p in everything if all(_closes({i: p}, r, n) for r in relators
                                             if set(map(abs, r)) == {i})]
           for i in range(1, k + 1)}
    due = {i: [r for r in relators if max(map(abs, r)) == i and set(map(abs, r)) != {i}]
           for i in range(1, k + 1)}
    classes = {}  # cycle type -> [first permutation of that type, class size]
    for p in everything:
        seen, shape = set(), []
        for v in range(n):
            if v not in seen:
                length = 0
                while v not in seen:
                    seen.add(v)
                    v, length = p[v], length + 1
                shape.append(length)
        entry = classes.setdefault(tuple(sorted(shape)), [p, 0])
        entry[1] += 1

    def extend(perms, i):
        if i > k:
            return 1
        total = 0
        for p in own[i]:
            perms[i] = p
            if all(_closes(perms, r, n) for r in due[i]):
                total += extend(perms, i + 1)
        return total

    total = 0
    for rep, size in classes.values():
        if rep in own[1]:
            total += size * extend({1: rep}, 2)
    return total


def hall_counts(k, relators, n_max):
    """a_1, ..., a_{n_max} by Hall's recursion."""
    h = [hom_count(k, relators, n) for n in range(n_max + 1)]
    a = [None]
    for n in range(1, n_max + 1):
        value = Fraction(h[n], factorial(n - 1)) - sum(
            Fraction(h[n - j], factorial(n - j)) * a[j] for j in range(1, n))
        assert value.denominator == 1
        a.append(int(value))
    return a[1:]


@pytest.mark.parametrize("k, relators, n_max", GROUPS.values(), ids=GROUPS.keys())
def test_based_counts_match_halls_recursion(k, relators, n_max):
    pres = Presentation(Alphabet([f"g{i}" for i in range(1, k + 1)]),
                        [Word(r) for r in relators])
    searched = [len(enumerate_graphs(EnumerationTask(pres, n))) for n in range(1, n_max + 1)]
    assert searched == hall_counts(k, relators, n_max)
