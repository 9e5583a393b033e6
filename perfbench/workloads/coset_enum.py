"""coset-enum: a seeded stream of ``coset_enumerate`` calls.

Subgroups of S4, S5, S6 (Coxeter type A) and B3, B4 (signed permutations)
are generated by one to three random words of length one to six.  Each pass
asks for a fixed list of indices per group, so the work per pass is steady
while the subgroups change with the seed.  Fixed anchors add the large
indices, and budget jobs in the infinite group A~2 must end in
``CosetLimitExceeded``.  Every index is checked against |G|/|H| from the
permutation image, and every table against the action on the cosets.
"""

from __future__ import annotations

import random

import stallings as st

import groups
import oracles
from harness import Job
from workloads.common import sample_subgroups

MAX_COSETS = 10_000  # the package default, passed as an argument
BUDGET_COSETS = 200

# Target indices of the random subgroups in one pass.  The percentiles are
# steady only where many jobs cost alike: the extra S4 24, S5 20 and B3 24
# jobs (5-8 ms each) hold the median, and the 25-100 ms jobs at index 40-64
# keep the two long anchors from dominating a pass.  Indices that random
# words rarely reach are left out of S6 and B4, where each try costs most,
# so that set-up time does not swing with the seed.
RANDOM_INDICES = {
    "S4": [1, 2, 3, 4, 6, 8, 12, 24] * 2 + [24] * 6,
    "S5": [1, 2, 5, 5, 10, 10, 15, 20, 20, 24, 30, 30, 40, 40, 60, 60]
          + [20] * 6 + [40, 40, 40, 60, 60, 60],
    "S6": [1, 1, 6, 6, 15, 15, 30, 30, 60, 60, 60, 60, 60],
    "B3": [1, 2, 4, 6, 8, 12, 16, 24, 24, 48, 2, 8, 12, 16, 24, 48] + [24] * 7,
    "B4": [1, 2, 2, 8, 16, 16, 32, 32, 48, 48, 48, 64, 64, 64],
}
# (group, generator words) with the index each must reach.  The S5
# trivial subgroup comes seven times, so that the 90th percentile falls
# inside a block of equal jobs; random index-120 subgroups of S5 cost 0.15
# or 0.2 s depending on their words, and put it on a step.
ANCHORS = [("S5", [], 120)] * 7 + [
    ("S6", [(1,), (2,)], 120),
    ("S6", [(1,)], 360),
    ("B4", [], 384),
]
BUDGET_JOBS = 3
# The dihedral subgroups <a,b>, <b,c>, <a,c> of A~2 are finite, so they
# have infinite index.
BUDGET_SUBGROUPS = [[(1,), (2,)], [(2,), (3,)], [(1,), (3,)]]

TINY_RANDOM_INDICES = {"S4": [1, 2, 12, 24], "B3": [2, 24]}
TINY_ANCHORS = [("B3", [], 48)]
TINY_BUDGET_COSETS = 40


def build(seed: int, tiny: bool, work_dir) -> list[Job]:
    rng = random.Random(seed)
    specs = {s.name: s for s in (groups.symmetric(4), groups.symmetric(5),
                                 groups.symmetric(6), groups.hyperoctahedral(3),
                                 groups.hyperoctahedral(4))}
    presentations = {name: spec.presentation() for name, spec in specs.items()}
    jobs = []
    for name, indices in (TINY_RANDOM_INDICES if tiny else RANDOM_INDICES).items():
        spec = specs[name]
        for words, elements in sample_subgroups(spec, rng, indices):
            jobs.append(_enumerate_job(spec, presentations[name], words, elements))
    for name, words, index in TINY_ANCHORS if tiny else ANCHORS:
        spec = specs[name]
        elements = oracles.closure(
            [oracles.evaluate(w, spec.perms) for w in words], len(spec.perms[0]))
        if spec.order // len(elements) != index:
            raise ValueError(f"anchor {name} {words} does not have index {index}")
        jobs.append(_enumerate_job(spec, presentations[name], words, elements))
    a2 = groups.affine_a2()
    a2_pres = a2.presentation()
    budget = TINY_BUDGET_COSETS if tiny else BUDGET_COSETS
    for _ in range(1 if tiny else BUDGET_JOBS):
        words = list(rng.choice(BUDGET_SUBGROUPS))
        rng.shuffle(words)
        jobs.append(_budget_job(a2, a2_pres, words, budget))
    rng.shuffle(jobs)
    return jobs


def _parse_all(t, pres, texts):
    words = []
    for text in texts:
        w = t.call("words.parse_word", pres.alphabet.parse_word, text)
        t.count("words.parse_word.letters", len(w))
        words.append(w)
    return words


def _enumerate_job(spec, pres, words, elements) -> Job:
    texts = [spec.text(w) for w in words]
    index = spec.order // len(elements)

    def run(t):
        gens = _parse_all(t, pres, texts)
        sg = t.call("subgroup.coset_enumerate", st.coset_enumerate, pres, gens,
                    max_cosets=MAX_COSETS)
        t.count("subgroup.coset_enumerate.cosets", sg.index())
        return sg

    def check(sg):
        if sg.index() != index:
            return f"{spec.name} <{', '.join(texts)}>: index {sg.index()}, expected {index}"
        reps = [w.letters for w in sg.coset_reps]
        return oracles.check_coset_action(elements, spec.perms, reps,
                                          sg.coset_table().permutations)

    return Job(f"{spec.name} index {index}", run, check)


def _budget_job(spec, pres, words, budget) -> Job:
    texts = [spec.text(w) for w in words]

    def run(t):
        gens = _parse_all(t, pres, texts)
        try:
            sg = t.call("subgroup.coset_enumerate", st.coset_enumerate, pres, gens,
                        max_cosets=budget)
        except st.CosetLimitExceeded:
            t.count("subgroup.coset_enumerate.budget_hits")
            return None
        return sg

    def check(sg):
        if sg is not None:
            return f"A2 <{', '.join(texts)}> closed at index {sg.index()}; it is infinite"
        return None

    return Job("A2 budget", run, check)
