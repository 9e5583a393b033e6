"""low-index: a seeded stream of ``enumerate_graphs`` calls.

Each pass runs every (group, index, mode) of a fixed grid in a seeded
order, on a seeded relabeling of the presentation: generators permuted
and some inverted, which leaves the answer fixed and moves the search.
Four large anchors ride along.  Answers are checked by counts from Hall's
formula (free groups), OEIS A005133 (PSL(2, Z)) and the counts the package
gave when this benchmark was written (the rest); by validating and
comparing every table without the package; and by rebuilding one sampled
class per job with ``coset_enumerate`` from its generators.
"""

from __future__ import annotations

import random

import stallings as st

import groups
import oracles
from harness import Job
from workloads.common import check_equal

MAX_COSETS = 10_000
NODE_BUDGET = 10_000_000  # the package default, passed as an argument

GROUPS = {
    "F2": groups.free(2), "F3": groups.free(3), "PSL2Z": groups.modular(),
    "A2": groups.affine_a2(),
    "T237": groups.triangle(2, 3, 7), "T238": groups.triangle(2, 3, 8),
    "T239": groups.triangle(2, 3, 9), "T245": groups.triangle(2, 4, 5),
    "T246": groups.triangle(2, 4, 6), "T334": groups.triangle(3, 3, 4),
    "T335": groups.triangle(3, 3, 5),
}
MODES = ("based", "unbased")
# group -> largest index of the grid, for both modes.
GRID = {"F2": 5, "F3": 3, "PSL2Z": 10, "A2": 10, "T237": 10, "T238": 10,
        "T239": 10, "T245": 10, "T246": 10, "T334": 10, "T335": 10}
EXTRA = [("F3", 4, "unbased")]
ANCHORS = [("F2", 6, "based"), ("F3", 4, "based"), ("T237", 21, "based"),
           ("PSL2Z", 10, "unbased")]
TINY_JOBS = [("F2", 3, "based"), ("F2", 3, "unbased"), ("PSL2Z", 4, "based"),
             ("PSL2Z", 6, "unbased"), ("T237", 7, "based"), ("A2", 3, "unbased")]

# Class counts the package returned when this benchmark was written, where
# no formula gives them: (group, mode) -> counts at index 2, 3, ...
RECORDED = {
    ("F2", "unbased"): (3, 7, 26, 97),
    ("F3", "unbased"): (7, 41, 604),
    ("PSL2Z", "unbased"): (1, 2, 2, 1, 8, 6, 7, 14, 27),
    ("A2", "based"): (1, 12, 4, 0, 10, 0, 4, 21, 0),
    ("A2", "unbased"): (1, 4, 1, 0, 6, 0, 1, 5, 0),
    ("T237", "based"): (0, 0, 0, 0, 0, 14, 8, 9, 0),
    ("T237", "unbased"): (0, 0, 0, 0, 0, 2, 1, 1, 0),
    ("T238", "based"): (1, 3, 4, 0, 7, 0, 28, 18, 40),
    ("T238", "unbased"): (1, 1, 1, 0, 3, 0, 5, 2, 4),
    ("T239", "based"): (0, 1, 4, 0, 3, 0, 0, 36, 60),
    ("T239", "unbased"): (0, 1, 1, 0, 1, 0, 0, 4, 6),
    ("T245", "based"): (1, 0, 0, 10, 18, 0, 0, 0, 86),
    ("T245", "unbased"): (1, 0, 0, 2, 3, 0, 0, 0, 16),
    ("T246", "based"): (3, 3, 9, 5, 37, 28, 77, 108, 155),
    ("T246", "unbased"): (3, 1, 4, 1, 10, 4, 14, 12, 17),
    ("T334", "based"): (0, 1, 4, 0, 15, 28, 20, 36, 40),
    ("T334", "unbased"): (0, 1, 1, 0, 3, 4, 3, 4, 4),
    ("T335", "based"): (0, 1, 0, 5, 18, 7, 0, 0, 90),
    ("T335", "unbased"): (0, 1, 0, 1, 3, 1, 0, 0, 9),
}
RECORDED_ANCHORS = {("T237", 21, "based"): 189}


def expected_count(group: str, n: int, mode: str) -> int:
    if mode == "based" and group in ("F2", "F3"):
        return oracles.hall_counts(int(group[1]), n)[n]
    if mode == "based" and group == "PSL2Z":
        return oracles.A005133[n - 1]
    if (group, n, mode) in RECORDED_ANCHORS:
        return RECORDED_ANCHORS[(group, n, mode)]
    return RECORDED[(group, mode)][n - 2]


def build(seed: int, tiny: bool, work_dir) -> list[Job]:
    rng = random.Random(seed)
    if tiny:
        combos = list(TINY_JOBS)
    else:
        combos = [(g, n, mode) for g, top in GRID.items()
                  for n in range(2, top + 1) for mode in MODES]
        combos += EXTRA + ANCHORS
    rng.shuffle(combos)
    return [_job(GROUPS[g].relabeled(rng), n, mode, rng.random())
            for g, n, mode in combos]


def _job(spec, n: int, mode: str, sample: float) -> Job:
    pres = spec.presentation()
    task = st.EnumerationTask(pres, n, mode)
    count = expected_count(spec.name, n, mode)
    based = expected_count(spec.name, n, "based")

    def run(t):
        found = t.call("enumerator.enumerate_graphs", st.enumerate_graphs, task,
                       node_budget=NODE_BUDGET)
        t.count("enumerator.enumerate_graphs.classes", len(found))
        return found

    def check(found):
        err = check_equal("class count", len(found), count)
        if err:
            return err
        tables = [sg.coset_table().permutations for sg in found]
        err = oracles.check_classes(tables, spec.relators, based, mode)
        if err or not found:
            return err
        i = int(sample * len(found))
        rebuilt = st.coset_enumerate(pres, found[i].generators(), max_cosets=MAX_COSETS)
        if rebuilt.coset_table().permutations != tables[i]:
            return f"class {i} is not rebuilt by coset enumeration from its generators"
        return None

    return Job(f"{spec.name} index {n} {mode}", run, check)
