"""Answers computed without the package under test.

Permutations are tuples ``p`` with ``p[x]`` the image of point ``x``;
products read left to right, so a word maps to the product of its
letters' images in order.  Coset tables are the package's output read as
plain data: one tuple per generator, ``perms[i][v]`` the coset reached from
``v`` by generator ``i``.
"""

from __future__ import annotations

from math import factorial
from typing import Optional


# --- permutation groups -----------------------------------------------------

def mul(p, q):
    """p then q."""
    return tuple(q[x] for x in p)


def inverse(p):
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def evaluate(letters, perms):
    """The permutation of a word over generators with images ``perms``."""
    inverses = [inverse(p) for p in perms]
    out = tuple(range(len(perms[0])))
    for lt in letters:
        out = mul(out, perms[lt - 1] if lt > 0 else inverses[-lt - 1])
    return out


def closure(elements, degree: int, limit: Optional[int] = None) -> Optional[frozenset]:
    """The subgroup generated by ``elements``, or None once it has more
    than ``limit`` elements."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in elements:
                b = mul(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        if limit is not None and len(seen) > limit:
            return None
        frontier = nxt
    return frozenset(seen)


def conjugate_set(c, group):
    """c H c^-1."""
    ci = inverse(c)
    return frozenset(mul(mul(c, h), ci) for h in group)


def coset_key(group, g):
    """A label of the right coset H g."""
    return min(mul(h, g) for h in group)


def check_coset_action(h, perms, rep_words, table) -> Optional[str]:
    """The table must be the action of the generators on the right cosets
    of ``h``: vertex v is the coset H g_v of its representative word, the
    cosets are pairwise distinct, and generator i sends H g_v to the coset
    of vertex table[i][v]."""
    reps = [evaluate(w, perms) for w in rep_words]
    keys = [coset_key(h, g) for g in reps]
    if len(set(keys)) != len(keys):
        return "two vertices carry the same coset"
    for i, gen in enumerate(perms):
        for v, g in enumerate(reps):
            if coset_key(h, mul(g, gen)) != keys[table[i][v]]:
                return f"generator {i} moves vertex {v} to the wrong coset"
    return None


# --- subgroup counts ----------------------------------------------------------

def hall_counts(rank: int, nmax: int) -> list[int]:
    """Hall (1949): a_n = n (n!)^(r-1) - sum_{k<n} ((n-k)!)^(r-1) a_k, the
    number of index-n subgroups of the free group of rank r; a[0] is unused."""
    a = [0]
    for n in range(1, nmax + 1):
        total = n * factorial(n) ** (rank - 1)
        total -= sum(factorial(n - k) ** (rank - 1) * a[k] for k in range(1, n))
        a.append(total)
    return a


# OEIS A005133: index-n subgroups of PSL(2, Z), n = 1 .. 12.
A005133 = (1, 1, 4, 8, 5, 22, 42, 40, 120, 265, 286, 764)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# --- coset tables ---------------------------------------------------------------

def trace(perms, inverses, start: int, letters) -> int:
    v = start
    for lt in letters:
        v = perms[lt - 1][v] if lt > 0 else inverses[-lt - 1][v]
    return v


def table_inverses(perms):
    return [inverse(p) for p in perms]


def check_table(perms, relators) -> Optional[str]:
    """Every generator column is a permutation, every relator closes at every
    vertex, and the graph is connected."""
    n = len(perms[0])
    for p in perms:
        if sorted(p) != list(range(n)):
            return "a generator column is not a permutation"
    inverses = table_inverses(perms)
    for r in relators:
        for v in range(n):
            if trace(perms, inverses, v, r) != v:
                return f"relator {r} does not close at vertex {v}"
    if len(orbit(perms, inverses, [0])) != n:
        return "graph is not connected"
    return None


def orbit(perms, inverses, start):
    """The vertices reachable from ``start`` (a list of vertex labels)."""
    seen = set(start)
    stack = list(start)
    while stack:
        v = stack.pop()
        for cols in (perms, inverses):
            for col in cols:
                t = col[v]
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return seen


def pair_orbit(left, right) -> set:
    """The pairs (u, v) reached from (0, 0) in the product of two tables:
    the cosets of H cap K, when both bases are vertex 0."""
    li, ri = table_inverses(left), table_inverses(right)
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        u, v = stack.pop()
        for a, b in ((left, right), (li, ri)):
            for i in range(len(a)):
                t = (a[i][u], b[i][v])
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return seen


def rebased(perms, base: int) -> tuple:
    """The table renumbered by breadth-first discovery from ``base``, each
    generator before its inverse: equal for based-isomorphic tables."""
    inverses = table_inverses(perms)
    order = [base]
    number = {base: 0}
    for v in order:
        for i in range(len(perms)):
            for t in (perms[i][v], inverses[i][v]):
                if t not in number:
                    number[t] = len(order)
                    order.append(t)
    return tuple(tuple(number[p[v]] for v in order) for p in perms)


def check_classes(tables, relators, based_count: int, mode: str) -> Optional[str]:
    """A low-index answer is right when every table is valid, no two are
    (based or unbased) isomorphic, and in unbased mode the conjugacy classes
    add up to the based count: a class with normalizer index m over H
    stands for n/m based subgroups."""
    forms = set()
    sizes = 0
    for perms in tables:
        err = check_table(perms, relators)
        if err:
            return err
        if mode == "based":
            forms.add(rebased(perms, 0))
        else:
            conjugates = {rebased(perms, v) for v in range(len(perms[0]))}
            forms.add(min(conjugates))
            sizes += len(conjugates)
    if len(forms) != len(tables):
        return "two classes are isomorphic"
    if mode == "unbased" and sizes != based_count:
        return f"conjugacy classes cover {sizes} subgroups, expected {based_count}"
    return None


def check_folded_core(edges, vertex_count: int, base: int, words) -> Optional[str]:
    """A folded core graph whose loops at the base read every word."""
    out, inc = {}, {}
    degree = [0] * vertex_count
    for (u, li, v) in edges:
        if (u, li) in out or (v, li) in inc:
            return "graph is not folded"
        out[(u, li)] = v
        inc[(v, li)] = u
        degree[u] += 1
        degree[v] += 1
    if any(d <= 1 for v, d in enumerate(degree) if v != base):
        return "graph has a hanging vertex"
    for w in words:
        v = base
        for lt in w:
            v = out.get((v, lt - 1)) if lt > 0 else inc.get((v, -lt - 1))
            if v is None:
                return "a generator does not read in the graph"
        if v != base:
            return "a generator does not close at the base"
    return None


def free_reduce(letters) -> tuple:
    stack = []
    for lt in letters:
        if stack and stack[-1] == -lt:
            stack.pop()
        else:
            stack.append(lt)
    return tuple(stack)
