"""Group presentations the workloads use.

A presentation is kept as plain data: generator names and relators as
lists of signed letters (generator ``i`` is ``i + 1``, its inverse
``-(i + 1)``), the same encoding the package uses.  Finite Coxeter groups
also carry the permutation image of each generator, which the oracles use
to compute subgroup orders without the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Optional

import stallings as st


@dataclass(frozen=True)
class GroupSpec:
    name: str
    gens: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]
    perms: Optional[tuple[tuple[int, ...], ...]] = None
    order: Optional[int] = None

    def presentation(self) -> st.Presentation:
        return st.Presentation(
            st.Alphabet(self.gens), [st.Word(r) for r in self.relators]
        )

    def text(self, letters) -> str:
        """A word in the package's spaced syntax, e.g. ``s1 s2^-1``."""
        return " ".join(
            self.gens[abs(lt) - 1] + ("" if lt > 0 else "^-1") for lt in letters
        )

    def presentation_file(self) -> str:
        lines = ["gens: " + " ".join(self.gens)]
        lines += ["rel: " + self.text(r) for r in self.relators]
        return "\n".join(lines) + "\n"

    def relabeled(self, rng) -> "GroupSpec":
        """The same group with its generators permuted and some inverted.

        Subgroup counts are unchanged; the search order is not."""
        k = len(self.gens)
        order = list(range(k))
        rng.shuffle(order)  # new generator j is old generator order[j]
        new_of_old = {old: new for new, old in enumerate(order)}
        flip = [rng.choice((1, -1)) for _ in range(k)]

        def move(lt):
            old = abs(lt) - 1
            sign = 1 if lt > 0 else -1
            return sign * flip[old] * (new_of_old[old] + 1)

        relators = tuple(tuple(move(lt) for lt in r) for r in self.relators)
        return GroupSpec(self.name, tuple(self.gens[o] for o in order), relators)


def _transposition(degree: int, a: int, b: int) -> tuple[int, ...]:
    p = list(range(degree))
    p[a], p[b] = p[b], p[a]
    return tuple(p)


def _braid_relators(first: int, count: int) -> list[tuple[int, ...]]:
    """Coxeter relators of type A on letters first .. first+count-1."""
    letters = range(first, first + count)
    rels = [(i, i) for i in letters]
    rels += [(i, i + 1) * 3 for i in letters if i + 1 < first + count]
    rels += [(i, j) * 2 for i in letters for j in letters if j >= i + 2]
    return rels


def symmetric(n: int) -> GroupSpec:
    """S_n as the Coxeter group of type A_{n-1}; s_i swaps points i-1, i."""
    gens = tuple(f"s{i}" for i in range(1, n))
    perms = tuple(_transposition(n, i - 1, i) for i in range(1, n))
    return GroupSpec(f"S{n}", gens, tuple(_braid_relators(1, n - 1)),
                     perms, factorial(n))


def hyperoctahedral(n: int) -> GroupSpec:
    """B_n, the signed permutations of n points, as a Coxeter group.

    ``t`` negates point 0; ``s_i`` swaps points i-1 and i.  Point ``x`` is
    stored as ``x`` and its negative as ``x + n``, so each generator is a
    permutation of 2n points.  ``(t s1)^4`` is the order-4 relator."""
    gens = ("t",) + tuple(f"s{i}" for i in range(1, n))
    rels = [(1, 1), (1, 2) * 4] + [(1, j) * 2 for j in range(3, n + 1)]
    rels += _braid_relators(2, n - 1)
    t = _transposition(2 * n, 0, n)
    swaps = []
    for i in range(1, n):
        p = list(_transposition(2 * n, i - 1, i))
        p[n + i - 1], p[n + i] = n + i, n + i - 1
        swaps.append(tuple(p))
    return GroupSpec(f"B{n}", gens, tuple(rels), (t,) + tuple(swaps),
                     2 ** n * factorial(n))


def affine_a2() -> GroupSpec:
    """The affine Coxeter group of type A~2 (infinite)."""
    rels = [(1, 1), (2, 2), (3, 3), (1, 2) * 3, (2, 3) * 3, (1, 3) * 3]
    return GroupSpec("A2", ("a", "b", "c"), tuple(rels))


def triangle(l: int, m: int, n: int) -> GroupSpec:
    """The von Dyck group <x, y | x^l, y^m, (xy)^n>."""
    rels = [(1,) * l, (2,) * m, (1, 2) * n]
    return GroupSpec(f"T{l}{m}{n}", ("x", "y"), tuple(rels))


def free(rank: int) -> GroupSpec:
    return GroupSpec(f"F{rank}", tuple("abcdefgh"[:rank]), ())


def modular() -> GroupSpec:
    """PSL(2, Z) as the free product Z2 * Z3."""
    return GroupSpec("PSL2Z", ("a", "b"), ((1, 1), (2, 2, 2)))


def braid3() -> GroupSpec:
    """The braid group B3 = <x, y | xyx = yxy>."""
    return GroupSpec("Braid3", ("x", "y"), ((1, 2, 1, -2, -1, -2),))


def cyclic(name: str, n: int) -> GroupSpec:
    return GroupSpec(f"Z{n}", (name,), ((1,) * n,))
