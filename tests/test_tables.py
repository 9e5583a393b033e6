"""Subgroup graphs in coset-table form, checked against independent references.

Hall's formula counts the finite-index subgroups of free groups; coset
enumeration must rebuild every class that low-index search finds; the
table calculus must agree with the edge-propagating isomorphism test of
``test_xgraph`` (on ``xgraph._propagate``) run on the ``.graph`` views.
"""

from math import factorial

import pytest
from hypothesis import given, settings, strategies as hs

from stallings import (
    BasedXGraph,
    EnumerationTask,
    GluingSpec,
    Presentation,
    ProductGraph,
    Word,
    build_glued,
    build_type1,
    build_type2,
    coset_enumerate,
    coset_meet,
    enumerate_graphs,
    free_basis,
    free_presentation,
    intersect,
)
from test_xgraph import coset_rep_words, isomorphic_based, isomorphic_unbased

S4 = Presentation.parse(["a", "b"], ["a a", "b b b", "a b a b a b a b"])
Q8 = Presentation.parse(["a", "b"], ["a a a a", "a a b^-1 b^-1", "b^-1 a b a"])
MODULAR = Presentation.parse(["a", "b"], ["a a", "b b b"])  # PSL(2, Z)
CATALOG = [(S4, (1, 2, 3, 4, 6, 8, 12, 24)), (Q8, (1, 2, 4, 8)), (MODULAR, range(1, 7))]


def hall_counts(rank: int, n_max: int) -> list[int]:
    """Hall (1949): a_n = n (n!)^(r-1) - sum_{k<n} ((n-k)!)^(r-1) a_k."""
    a: list[int] = []
    for n in range(1, n_max + 1):
        a.append(n * factorial(n) ** (rank - 1)
                 - sum(factorial(n - k) ** (rank - 1) * a[k - 1] for k in range(1, n)))
    return a


@pytest.mark.parametrize("rank, expected", [
    (2, [1, 3, 13, 71, 461, 3447]),
    (3, [1, 7, 97, 2143]),
])
def test_based_counts_match_hall(rank, expected):
    assert hall_counts(rank, len(expected)) == expected
    pres = free_presentation(["a", "b", "c"][:rank])
    counts = [len(enumerate_graphs(EnumerationTask(pres, n)))
              for n in range(1, len(expected) + 1)]
    assert counts == expected


@pytest.fixture(scope="module")
def classes():
    found = [sg for pres, indices in CATALOG for n in indices
             for sg in enumerate_graphs(EnumerationTask(pres, n))]
    assert len(found) == 77
    return found


def test_coset_enumeration_rebuilds_every_class(classes):
    for sg in classes:
        rebuilt = coset_enumerate(sg.presentation, sg.generators())
        assert rebuilt.coset_table() == sg.coset_table()
        assert rebuilt.coset_reps == sg.coset_reps


@pytest.fixture(scope="module")
def certificates():
    """Certificate graphs of about 2000 vertices, whose spanning trees are
    1001 to 1332 edges deep."""
    f2, z1, z2 = (free_presentation(names) for names in (["a", "b"], ["x"], ["d"]))
    spec = GluingSpec(coset_enumerate(z1, [z1.word("x x x")]), z1.word("x"),
                      coset_enumerate(z2, [z2.word("d d")]), z2.word("d"), 666)
    certs = [build_type1(f2, 0, 2003), build_type2(f2, 0, 2, 1, 3, 666), build_glued(spec)]
    assert [c.vertex_count for c in certs] == [2003, 1999, 1999]
    return [c.graph for c in certs]


def test_spanning_tree_matches_reference(classes, certificates):
    for sg in classes + certificates:
        assert list(sg.coset_reps) == coset_rep_words(sg.graph)
        assert sg.free_basis() == free_basis(sg.graph)


def based_at(sg, v, other) -> bool:
    """Reference: ``sg`` based at ``v`` is isomorphic to ``other``."""
    return isomorphic_based(BasedXGraph(sg.graph.graph, v), other.graph) is not None


def test_normal_and_normalizer_match_reference(classes):
    for sg in classes:
        symmetric = [v for v in range(sg.index()) if based_at(sg, v, sg)]
        assert sg.is_normal() == (len(symmetric) == sg.index())
        reps, normalizer = sg.normalizer()
        assert reps == [sg.coset_reps[v] for v in symmetric]
        assert normalizer.index() * len(reps) == sg.index()


def test_conjugacy_and_isomorphism_match_reference(classes):
    for h in classes:
        for k in classes:
            if h.presentation != k.presentation or h.index() != k.index():
                continue
            expected = next((h.coset_reps[v] for v in range(h.index())
                             if based_at(h, v, k)), None)
            assert h.conjugate(k) == expected
            assert h.isomorphic_based_to(k) == based_at(h, 0, k)
            unbased = isomorphic_unbased(h.graph.graph, k.graph.graph) is not None
            assert h.isomorphic_unbased_to(k) == unbased


POOL_PAIRS = [
    (h, k)
    for pool in ([sg for n in (2, 3, 4, 6) for sg in enumerate_graphs(EnumerationTask(S4, n))],
                 [sg for n in (2, 3, 4) for sg in enumerate_graphs(EnumerationTask(MODULAR, n))])
    for h in pool for k in pool
]


def test_coset_meet_words_land_in_both_cosets():
    """Each word lies in both chosen cosets, and the pairs that get one
    number [G : H cap K], the cosets that meet, so every None is right."""
    for h, k in POOL_PAIRS:
        pg = ProductGraph(h, k)
        met = 0
        for v1 in range(h.index()):
            for v2 in range(k.index()):
                g = coset_meet(pg, v1, v2)
                if g is not None:
                    assert (h.trace(0, g), k.trace(0, g)) == (v1, v2)
                    met += 1
        assert met == intersect(h, k).index()


@settings(max_examples=300, deadline=None)
@given(pair=hs.sampled_from(POOL_PAIRS),
       letters=hs.lists(hs.sampled_from((1, -1, 2, -2)), max_size=24))
def test_intersection_membership(pair, letters):
    h, k = pair
    w = Word(letters)
    assert intersect(h, k).contains(w) == (h.contains(w) and k.contains(w))
