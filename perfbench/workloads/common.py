"""Input generation shared by the workloads."""

from __future__ import annotations

from collections import defaultdict

import oracles


def random_word(rng, rank: int, length: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(length))


def sample_subgroups(spec, rng, indices, max_tries: int = 50_000):
    """For each target index, a random subgroup of that index generated by
    one to three words of length one to six.

    Returns (words, elements) pairs in the order of ``indices``; the
    elements come from the permutation image, so the index is known before
    the package sees the subgroup."""
    wanted = defaultdict(int)
    for index in indices:
        wanted[index] += 1
    found = defaultdict(list)
    degree = len(spec.perms[0])
    tries = 0
    while wanted:
        tries += 1
        if tries > max_tries:
            raise RuntimeError(f"{spec.name}: no subgroups of index {sorted(wanted)}")
        words = [random_word(rng, len(spec.gens), rng.randint(1, 6))
                 for _ in range(rng.randint(1, 3))]
        # a subgroup larger than the smallest index wanted allows is useless
        elements = oracles.closure([oracles.evaluate(w, spec.perms) for w in words],
                                   degree, spec.order // min(wanted))
        if elements is None:
            continue
        index = spec.order // len(elements)
        if wanted.get(index):
            found[index].append((words, elements))
            wanted[index] -= 1
            if not wanted[index]:
                del wanted[index]
    return [found[index].pop() for index in indices]


def check_equal(what: str, got, expected):
    return None if got == expected else f"{what} {got!r}, expected {expected!r}"


class Subgroup:
    """The package's subgroup graph with its coset table as plain data, for
    tracing words without the package; ``elements`` is the permutation
    image of the subgroup when the group has one."""

    def __init__(self, sg, elements=None):
        self.sg = sg
        self.table = sg.coset_table().permutations
        self.inverses = oracles.table_inverses(self.table)
        self.elements = elements

    def end(self, letters) -> int:
        return oracles.trace(self.table, self.inverses, 0, letters)

    def contains(self, letters) -> bool:
        return self.end(letters) == 0
