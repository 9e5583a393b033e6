"""Based low-index counts against Hall's recursion, for groups with relators.

For a finitely generated group G with h_n = |Hom(G, S_n)| (h_0 = 1), the
number a_n of subgroups of index n, one per based class, satisfies

    a_n = h_n/(n-1)! - sum_{k=1}^{n-1} h_{n-k}/(n-k)! * a_k

(Lubotzky and Segal, *Subgroup Growth*, 2003, section 1.1).  h_n is
counted here by brute force over tuples of permutations that satisfy the
relators, with no package code: the first generator runs over one
permutation per conjugacy class, weighted by the size of the class, each
generator only over the permutations that satisfy its own relators, and a
relator in several generators is checked once they are chosen.

The unbased classes of index n are the orbits of S_n, acting by
conjugation, on the transitive homomorphisms G -> S_n.  A permutation that
commutes with a transitive group is semiregular, n/d cycles of length d,
and its centralizer C_d has order d^(n/d) (n/d)!, so by Burnside's lemma
the number of unbased classes is

    c_n = a_n/n + sum_{d | n, d > 1} T_d/|C_d|

where T_d counts the transitive homomorphisms into C_d, by the same brute
force (Mednykh, *Counting conjugacy classes of subgroups in a finitely
generated group*, J. Algebra 320, 2008).
"""

from fractions import Fraction
from functools import cache
from itertools import permutations, product
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


def _tuples(k, relators, n, elements, classes, transitive=False):
    """The k-tuples of ``elements``, a group of permutations of n points
    given with its conjugacy classes as (representative, size) pairs, that
    satisfy every relator (and act transitively, if asked), each relator
    checked once its generators are chosen."""
    # generator i runs over the permutations that satisfy its own relators
    # (in i alone); once it is chosen, the others whose largest generator is i
    # are checked
    own = {i: [p for p in elements if all(_closes({i: p}, r, n) for r in relators
                                          if set(map(abs, r)) == {i})]
           for i in range(1, k + 1)}
    due = {i: [r for r in relators if max(map(abs, r)) == i and set(map(abs, r)) != {i}]
           for i in range(1, k + 1)}

    def extend(perms, i):
        if i > k:
            return not transitive or _orbit_size(perms.values()) == n
        total = 0
        for p in own[i]:
            perms[i] = p
            if all(_closes(perms, r, n) for r in due[i]):
                total += extend(perms, i + 1)
        return total

    mine = set(own[1])
    return sum(size * extend({1: rep}, 2) for rep, size in classes if rep in mine)


def _orbit_size(perms):
    """The size of the orbit of point 0 under the permutations."""
    orbit = {0}
    while True:
        step = {p[v] for p in perms for v in orbit} - orbit
        if not step:
            return len(orbit)
        orbit |= step


def hom_count(k, relators, n):
    """|Hom(G, S_n)|: the k-tuples of permutations of n points that satisfy
    every relator; S_n's classes are its cycle types."""
    if n == 0:
        return 1
    everything = list(permutations(range(n)))
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
    return _tuples(k, relators, n, everything, classes.values())


def centralizer(n, d):
    """The permutations of n points that commute with the product of the
    cycles (0 1 ... d-1)(d ... 2d-1)...: each takes cycle i to a cycle pi(i),
    turned by r_i steps, so there are d^(n/d) (n/d)! of them."""
    m = n // d
    return [tuple(pi[v // d] * d + (v + r[v // d]) % d for v in range(n))
            for pi in permutations(range(m)) for r in product(range(d), repeat=m)]


def conjugacy_classes(group):
    """(representative, size) per conjugacy class of a permutation group."""
    classes, seen = [], set()
    for g in group:
        if g not in seen:
            conjugates = set()
            for h in group:
                c = [0] * len(g)
                for v, t in enumerate(g):
                    c[h[v]] = h[t]  # h^-1 g h, acting on the right
                conjugates.add(tuple(c))
            seen |= conjugates
            classes.append((g, len(conjugates)))
    return classes


@cache
def hall_counts(name):
    """a_1, ..., a_{n_max} of the group ``name`` of GROUPS by Hall's recursion."""
    k, relators, n_max = GROUPS[name]
    h = [hom_count(k, relators, n) for n in range(n_max + 1)]
    a = [None]
    for n in range(1, n_max + 1):
        value = Fraction(h[n], factorial(n - 1)) - sum(
            Fraction(h[n - j], factorial(n - j)) * a[j] for j in range(1, n))
        assert value.denominator == 1
        a.append(int(value))
    return a[1:]


def burnside_counts(name):
    """c_1, ..., c_{n_max} of the group ``name`` of GROUPS by Burnside's lemma."""
    k, relators, n_max = GROUPS[name]
    c = []
    for n, a in enumerate(hall_counts(name), 1):
        value = Fraction(a, n)
        for d in range(2, n + 1):
            if n % d == 0:
                group = centralizer(n, d)
                transitive = _tuples(k, relators, n, group, conjugacy_classes(group), True)
                value += Fraction(transitive, len(group))
        assert value.denominator == 1
        c.append(int(value))
    return c


def _search(name, mode):
    k, relators, n_max = GROUPS[name]
    pres = Presentation(Alphabet([f"g{i}" for i in range(1, k + 1)]),
                        [Word(r) for r in relators])
    return [len(enumerate_graphs(EnumerationTask(pres, n, mode=mode)))
            for n in range(1, n_max + 1)]


@pytest.mark.parametrize("name", GROUPS)
def test_based_counts_match_halls_recursion(name):
    assert _search(name, "based") == hall_counts(name)


@pytest.mark.parametrize("name", GROUPS)
def test_unbased_counts_match_burnsides_lemma(name):
    assert _search(name, "unbased") == burnside_counts(name)
