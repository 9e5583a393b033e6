"""Builders for the prime-indexed graph families and their certificates.

Each builder produces an X-regular fulfilling graph together with a word
whose powers sweep every vertex from the base.  Such a graph on p vertices
witnesses that every coset of any subgroup containing a power of the word
coprime to p meets the graph's subgroup; the certificate records the graph,
the word and the verified checks.

Type 2 and glued graphs are chains of circles or factor graphs glued at
single vertices, all built by ``_chain``; a glued chain lives over the
factors' amalgamated product, which is free without identifications.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Sequence

from .errors import GluingInvalid
from .words import (
    Alphabet,
    Presentation,
    Word,
    free_reduce,
    merge_alphabets,
    shift_word,
)
from .subgroup import SubgroupGraph
from .products import _orbit_sizes


@dataclass(frozen=True)
class OrbitCertificate:
    """A verified witness: an X-regular fulfilling graph whose vertices are
    exactly the power-of-``word`` translates of the base.

    ``vertex_count`` is the certified p; primality (and the infinite-order
    hypothesis on the underlying group element) is the caller's concern.
    """

    graph: SubgroupGraph
    word: Word
    vertex_count: int
    orbit: tuple[int, ...]


@dataclass(frozen=True)
class GluingSpec:
    """Two factor subgroup graphs with words acting as full coset cycles,
    and the number of pairs of copies to chain together."""

    left: SubgroupGraph
    left_word: Word
    right: SubgroupGraph
    right_word: Word
    pair_count: int

    def __post_init__(self):
        if self.pair_count < 1:
            raise ValueError("pair count must be positive")


def _orbit(sg: SubgroupGraph, w: Word, failure: str) -> tuple[int, ...]:
    """The first |V| power-of-``w`` translates of the base; raises
    GluingInvalid(failure) unless they are distinct and the next one is the
    base again."""
    step, orbit = sg._step(w), [sg.base]
    for _ in range(sg.index() - 1):
        orbit.append(step[orbit[-1]])
    if len(set(orbit)) != len(orbit) or step[orbit[-1]] != sg.base:
        raise GluingInvalid(failure)
    return tuple(orbit)


def certify(sg: SubgroupGraph, w: Word) -> OrbitCertificate:
    """The certificate that the powers of ``w`` sweep the vertices of
    ``sg`` from the base; raises GluingInvalid if they do not."""
    orbit = _orbit(sg, w, "powers of the word do not sweep the vertices from the base")
    return OrbitCertificate(sg, free_reduce(w), sg.index(), orbit)


def _circle(n: int) -> list[int]:
    """The forward column of one circle through vertices 0, 1, ..., n-1."""
    return [(i + 1) % n for i in range(n)]


def _chain(ncols: int, links: Sequence[tuple[dict, int]], pair_count: int) -> list[list[int]]:
    """The forward columns of ``pair_count`` periods of a chain of pieces,
    each glued at one vertex to the one before.  A link of the period is a
    piece's forward columns keyed by table column and the piece vertex at
    which the next piece is glued on.  A piece's vertex 0 is the one it is
    glued on at, and its other vertices get fresh ids in order; every
    column is a loop where no piece passes."""
    m = sum(len(next(iter(cols.values()))) - 1 for cols, _ in links) * pair_count + 1
    forward = [list(range(m)) for _ in range(ncols)]
    fresh, entry = 1, 0
    for cols, glue in list(links) * pair_count:
        n = len(next(iter(cols.values())))
        ids = [entry, *range(fresh, fresh + n - 1)]
        fresh += n - 1
        for c, col in cols.items():
            for u, v in enumerate(col):
                forward[c][ids[u]] = ids[v]
        entry = ids[glue]
    if fresh != m:
        raise RuntimeError(f"chain numbered {fresh} vertices, expected {m}")
    return forward


def build_type1(presentation: Presentation, letter: int, p: int) -> OrbitCertificate:
    """A one-letter circle of length ``p`` with a loop for every other
    generator at every vertex."""
    if p < 1:
        raise ValueError("circle length must be positive")
    k = len(presentation.alphabet)
    if not 0 <= letter < k:
        raise ValueError("letter index out of range")
    forward = [_circle(p) if li == letter else range(p) for li in range(k)]
    return certify(SubgroupGraph(presentation, forward), Word([letter + 1]))


def build_parallel_circles(
    presentation: Presentation, p: int, word_letter: int = 0
) -> OrbitCertificate:
    """Every generator advances one step around the same circle.

    This is the construction for Artin and pure braid groups, whose relators
    have zero exponent sum in every generator; the generic one-circle builder
    does not fulfill them.
    """
    if p < 1:
        raise ValueError("circle length must be positive")
    if not 0 <= word_letter < len(presentation.alphabet):
        raise ValueError("letter index out of range")
    forward = [_circle(p)] * len(presentation.alphabet)
    return certify(SubgroupGraph(presentation, forward), Word([word_letter + 1]))


def build_type2(
    presentation: Presentation,
    a: int,
    k: int,
    b: int,
    l: int,
    pair_count: int,
) -> OrbitCertificate:
    """An alternating chain of (a,k)- and (b,l)-circles sharing single
    vertices, loop-completed to regularity; (k+l-2)*pair_count + 1 vertices."""
    if k < 2 or l < 2:
        raise ValueError("circle lengths must be at least 2")
    if a == b:
        raise ValueError("the two circle letters must differ")
    nletters = len(presentation.alphabet)
    if not (0 <= a < nletters and 0 <= b < nletters):
        raise ValueError("letter index out of range")
    if pair_count < 1:
        raise ValueError("pair count must be positive")
    links = [({a: _circle(k)}, 1), ({b: _circle(l)}, 1)]
    forward = _chain(nletters, links, pair_count)
    return certify(SubgroupGraph(presentation, forward), Word([a + 1, b + 1]))


def extend_with_loops(
    cert: OrbitCertificate,
    extra_letters: Sequence[str],
    new_relators: Sequence[Word] = (),
) -> OrbitCertificate:
    """Extend the alphabet, adding a loop per new letter at every vertex.

    ``new_relators`` are words over the extended alphabet (old letters keep
    their indices).  Fulfillment is re-verified against the combined
    presentation, which covers free, direct and semidirect product relator
    shapes; reachability is re-checked.
    """
    old = cert.graph.presentation
    alphabet = (merge_alphabets(old.alphabet, Alphabet(extra_letters)) if extra_letters
                else old.alphabet)
    presentation = Presentation(alphabet, list(old.relators) + list(new_relators))
    loops = [range(cert.graph.index())] * len(extra_letters)
    forward = list(cert.graph.coset_table().permutations) + loops
    return certify(SubgroupGraph(presentation, forward), cert.word)


def build_glued(spec: GluingSpec,
                identifications: Sequence[tuple[Word, Word]] = ()) -> OrbitCertificate:
    """Chain copies of the two factor graphs, glued at single vertices, over
    the amalgamated product of the factor presentations.

    Each identification (d, psi(d)) adds the relator d * psi(d)^-1 and must
    lie in the respective factor subgroup, so that both sides trace as loops
    at every vertex of the chain; a relator that reduces to the identity is
    skipped.  With none, the product is free: the amalgam over the trivial
    subgroup.  The result has (n1+n2-2)*pair_count + 1 vertices and is swept
    by powers of the concatenated words; when the vertex count is prime it
    witnesses the contractibility hypotheses for the product.
    """
    left, right = spec.left, spec.right
    offset = len(left.presentation.alphabet)
    extra = []
    for (d, psi_d) in identifications:
        if not left.contains(d):
            raise GluingInvalid("identification element is not in the left factor subgroup")
        if not right.contains(psi_d):
            raise GluingInvalid("identification image is not in the right factor subgroup")
        extra.append(free_reduce(d * shift_word(psi_d, offset).inverse()))
    if left.index() < 2 or right.index() < 2:
        raise GluingInvalid("factor subgroups must be proper")
    for sg, w, side in ((left, spec.left_word, "left"), (right, spec.right_word, "right")):
        _orbit(sg, w, f"powers of the {side} word are not a full set of coset "
                      f"representatives of the {side} factor")
    alphabet = merge_alphabets(left.presentation.alphabet, right.presentation.alphabet)
    relators = list(left.presentation.relators)
    relators += [shift_word(r, offset) for r in right.presentation.relators]
    relators += [r for r in extra if r]
    presentation = Presentation(alphabet, relators)

    links = []  # a copy of each factor, glued on at its base's w-translate
    for sg, w, shift in ((left, spec.left_word, 0), (right, spec.right_word, offset)):
        cols = {li + shift: col for li, col in enumerate(sg.coset_table().permutations)}
        links.append((cols, sg.trace(sg.base, w)))
    forward = _chain(len(alphabet), links, spec.pair_count)
    w = spec.left_word * shift_word(spec.right_word, offset)
    return certify(SubgroupGraph(presentation, forward), w)


def verify_coprime_certificate(
    cert: OrbitCertificate, other: SubgroupGraph, m: int
) -> bool:
    """Check the coprimality theorem instance: every coset of ``other``
    meets the certificate subgroup.

    Requires w^m in the other subgroup and gcd(m, p) = 1, with p the
    index of the certificate's graph.  With H the certificate subgroup and
    K the other, of index n, the product's base orbit holds
    [G : H cap K] = p [H : H cap K] pairs, n p iff every coset of K meets
    H.  A False return on valid inputs indicates an implementation bug.
    """
    if m <= 0:
        raise ValueError("the power m must be positive")
    p = cert.graph.index()
    if gcd(m, p) != 1:
        raise ValueError(f"m = {m} and p = {p} are not coprime")
    if not other.contains(cert.word ** m):
        raise ValueError("the other subgroup does not contain word^m")
    return next(_orbit_sizes(other, cert.graph)) == other.index() * p


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for 64-bit inputs."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def chain_primes(step: int, count: int, minimum: int = 2) -> Iterator[tuple[int, int]]:
    """Pairs (c, m) with m = step*c + 1 prime and m >= minimum, ascending."""
    if step < 1:
        raise ValueError("step must be positive")
    found = 0
    c = max(1, -(-(minimum - 1) // step))  # the least c with step*c + 1 >= minimum
    while found < count:
        m = step * c + 1
        if is_prime(m):
            yield c, m
            found += 1
        c += 1
