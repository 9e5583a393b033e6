"""products: product-graph jobs on fixed pools of subgroups.

Set-up builds two pools: the subgroups of A~2 of index at most 9, found by
low-index search, and seeded random subgroups of S5 of fixed indices, built
by coset enumeration and including the 120-vertex trivial subgroup.  Each
pass draws the same job shapes (operation and factor indices) with seeded
factors: ``intersect``, ``ProductGraph`` with ``coset_meet``,
``is_normal``, ``conjugate``, ``normalizer``, ``is_malnormal`` and
``contains``.  The 120 x 120 intersection is a fixed anchor.

Answers are checked without the package: on S5 by the permutation image
of each subgroup, on A~2 by tracing words and pairs of cosets through the
coset tables the package returned.
"""

from __future__ import annotations

import random

import stallings as st

import groups
import oracles
from harness import Job
from workloads.common import Subgroup, check_equal, random_word, sample_subgroups

MAX_COSETS = 10_000
S5_ORDER = 120
CONTAINS_WORDS = 10

# Index of each random S5 subgroup in the pool; the trivial one is added.
S5_POOL = [2, 2, 5, 5, 10, 10, 15, 20, 20, 24, 30, 30, 40, 40, 60, 60]
A2_MAX_INDEX = 9
# One pass, as factor indices per operation; "S5"/"A2" picks the pool.
FULL = {
    "intersect": [("S5", 120, 120), ("S5", 60, 60), ("S5", 60, 40), ("S5", 40, 40),
                  ("S5", 60, 30), ("S5", 30, 30), ("S5", 40, 20), ("S5", 24, 20),
                  ("S5", 20, 10), ("S5", 15, 5), ("S5", 10, 2)]
                 + [("A2", 9, 9)] * 4 + [("A2", 9, 8)] * 2
                 + [("A2", 8, 8), ("A2", 9, 6), ("A2", 9, 6), ("A2", 6, 6),
                    ("A2", 9, 3), ("A2", 4, 9)],
    "coset_meet": [("S5", 60, 40), ("S5", 40, 30), ("S5", 30, 20), ("S5", 20, 20)]
                  + [("A2", 9, 9)] * 3 + [("A2", 9, 8)] * 2 + [("A2", 8, 6)],
    "is_normal": [("S5", n) for n in (2, 5, 10, 20, 30, 60, 120)],
    "conjugate": [("S5", n, n) for n in (5, 10, 20, 30, 40, 60)],
    "normalizer": [("S5", n) for n in (2, 5, 10, 20, 30, 40, 60)],
    "is_malnormal": [("S5", n) for n in (5, 10, 20, 30, 60)],
    "contains": [("S5", n) for n in (10, 30, 40, 60, 120)]
                + [("A2", n) for n in (9, 9, 8, 6, 3)],
}
TINY_S5_POOL = [5, 10, 20]
TINY_A2_MAX_INDEX = 4
TINY = {
    "intersect": [("S5", 20, 10), ("A2", 4, 3)],
    "coset_meet": [("S5", 20, 10), ("A2", 3, 4)],
    "is_normal": [("S5", 5)],
    "conjugate": [("S5", 10, 10)],
    "normalizer": [("S5", 20)],
    "is_malnormal": [("S5", 10)],
    "contains": [("S5", 20), ("A2", 4)],
}


def build(seed: int, tiny: bool, work_dir) -> list[Job]:
    rng = random.Random(seed)
    s5 = groups.symmetric(5)
    a2 = groups.affine_a2()
    pres = {"S5": s5.presentation(), "A2": a2.presentation()}
    specs = {"S5": s5, "A2": a2}
    pools = {"S5": {}, "A2": {}}
    samples = sample_subgroups(s5, rng, TINY_S5_POOL if tiny else S5_POOL)
    samples.append(([], oracles.closure([], len(s5.perms[0]))))
    for words, elements in samples:
        sg = st.coset_enumerate(pres["S5"], [st.Word(w) for w in words],
                                max_cosets=MAX_COSETS)
        pools["S5"].setdefault(sg.index(), []).append(Subgroup(sg, elements))
    for n in range(1, (TINY_A2_MAX_INDEX if tiny else A2_MAX_INDEX) + 1):
        for sg in st.enumerate_graphs(st.EnumerationTask(pres["A2"], n)):
            pools["A2"].setdefault(n, []).append(Subgroup(sg))
    group = oracles.closure(s5.perms, len(s5.perms[0]))

    def pick(name, n):
        return rng.choice(pools[name][n])

    jobs = []
    for op, shapes in (TINY if tiny else FULL).items():
        for name, *indices in shapes:
            factors = [pick(name, n) for n in indices]
            if op == "intersect":
                jobs.append(_intersect(factors, [random_word(rng, 3, rng.randint(2, 12))
                                                 for _ in range(4)]))
            elif op == "coset_meet":
                v1 = rng.randrange(factors[0].sg.index())
                v2 = rng.randrange(factors[1].sg.index())
                jobs.append(_coset_meet(factors, v1, v2))
            elif op == "contains":
                words = [random_word(rng, len(specs[name].gens), rng.randint(10, 40))
                         for _ in range(CONTAINS_WORDS)]
                jobs.append(_contains(factors[0], specs[name], pres[name], words))
            else:
                jobs.append(_S5_JOBS[op](factors, s5, group))
    rng.shuffle(jobs)
    return jobs


def _intersect(factors, words) -> Job:
    h, k = factors
    pairs = len(h.table[0]) * len(k.table[0])

    def run(t):
        meet = t.call("products.intersect", st.intersect, h.sg, k.sg)
        t.count("products.intersect.pairs", pairs)
        t.count("products.intersect.meet_vertices", meet.index())
        return meet

    def check(meet):
        if h.elements is not None:
            index = S5_ORDER // len(h.elements & k.elements)
        else:
            index = len(oracles.pair_orbit(h.table, k.table))
        err = check_equal("index of the intersection", meet.index(), index)
        if err:
            return err
        m = Subgroup(meet)
        for w in words + [g.letters for g in meet.generators()]:
            if m.contains(w) != (h.contains(w) and k.contains(w)):
                return f"membership of {w} in the intersection disagrees with its factors"
        return None

    return Job("intersect", run, check)


def _coset_meet(factors, v1: int, v2: int) -> Job:
    h, k = factors

    def run(t):
        pg = t.call("products.ProductGraph", st.ProductGraph, h.sg, k.sg)
        t.count("products.ProductGraph.pairs", len(h.table[0]) * len(k.table[0]))
        return t.call("products.coset_meet", st.coset_meet, pg, v1, v2)

    def check(word):
        meets = (v1, v2) in oracles.pair_orbit(h.table, k.table)
        if word is None:
            return None if not meets else f"cosets {v1}, {v2} meet but no word came back"
        if not meets:
            return f"cosets {v1}, {v2} do not meet but a word came back"
        ends = (oracles.trace(h.table, h.inverses, 0, word.letters),
                oracles.trace(k.table, k.inverses, 0, word.letters))
        return check_equal("coset_meet word ends at", ends, (v1, v2))

    return Job("coset_meet", run, check)


def _contains(h, spec, pres, words) -> Job:
    texts = [spec.text(w) for w in words]

    def run(t):
        answers = []
        for text in texts:
            w = t.call("words.parse_word", pres.alphabet.parse_word, text)
            t.count("words.parse_word.letters", len(w))
            answers.append(t.call("subgroup.contains", h.sg.contains, w))
            t.count("subgroup.contains.letters", len(w))
        return answers

    def check(answers):
        if h.elements is not None:
            truth = [oracles.evaluate(w, spec.perms) in h.elements for w in words]
        else:
            truth = [h.contains(w) for w in words]
        return check_equal("memberships", answers, truth)

    return Job("contains", run, check)


def _is_normal(factors, spec, group) -> Job:
    (h,) = factors

    def run(t):
        return t.call("subgroup.is_normal", h.sg.is_normal)

    def check(answer):
        normal = all(oracles.conjugate_set(c, h.elements) == h.elements for c in spec.perms)
        return check_equal("is_normal", answer, normal)

    return Job("is_normal", run, check)


def _conjugate(factors, spec, group) -> Job:
    h, k = factors

    def run(t):
        return t.call("subgroup.conjugate", h.sg.conjugate, k.sg)

    def check(word):
        if word is not None:
            c = oracles.evaluate(word.letters, spec.perms)
            if oracles.conjugate_set(c, k.elements) != h.elements:
                return "the returned word does not conjugate K onto H"
            return None
        if any(oracles.conjugate_set(c, k.elements) == h.elements for c in group):
            return "the subgroups are conjugate but no word came back"
        return None

    return Job("conjugate", run, check)


def _normalizer(factors, spec, group) -> Job:
    (h,) = factors

    def run(t):
        return t.call("subgroup.normalizer", h.sg.normalizer)

    def check(answer):
        reps, nsg = answer
        normalizer = [c for c in group if oracles.conjugate_set(c, h.elements) == h.elements]
        err = check_equal("normalizer index", nsg.index(), S5_ORDER // len(normalizer))
        if err:
            return err
        err = check_equal("coset representatives", len(reps),
                          len(normalizer) // len(h.elements))
        if err:
            return err
        normal = set(normalizer)
        if any(oracles.evaluate(r.letters, spec.perms) not in normal for r in reps):
            return "a representative lies outside the normalizer"
        return None

    return Job("normalizer", run, check)


def _is_malnormal(factors, spec, group) -> Job:
    (h,) = factors
    n = len(h.table[0])

    def run(t):
        answer = t.call("products.is_malnormal", st.is_malnormal, h.sg, S5_ORDER)
        t.count("products.is_malnormal.pairs", n * n)
        return answer

    def check(answer):
        malnormal = all(len(oracles.conjugate_set(c, h.elements) & h.elements) == 1
                        for c in group if c not in h.elements)
        return check_equal("is_malnormal", answer, malnormal)

    return Job("is_malnormal", run, check)


_S5_JOBS = {
    "is_normal": _is_normal,
    "conjugate": _conjugate,
    "normalizer": _normalizer,
    "is_malnormal": _is_malnormal,
}
