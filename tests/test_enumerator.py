import random

import pytest

from stallings import (
    EnumerationTask,
    Presentation,
    SearchBudgetExceeded,
    coset_enumerate,
    enumerate_graphs,
    free_presentation,
    fulfills,
    hall_search,
    is_connected,
    is_regular,
)
from stallings.enumerator import _Search


def counts(presentation, n_max, mode):
    return [
        len(enumerate_graphs(EnumerationTask(presentation, n, mode=mode)))
        for n in range(1, n_max + 1)
    ]


def test_task_validation(s3):
    with pytest.raises(ValueError):
        EnumerationTask(s3, 0)
    with pytest.raises(ValueError):
        EnumerationTask(s3, 2, mode="weird")


def test_bouquet_at_one_vertex(s3):
    found = enumerate_graphs(EnumerationTask(s3, 1))
    assert len(found) == 1
    assert found[0].index() == 1


def test_s3_counts(s3):
    assert counts(s3, 6, "based") == [1, 1, 3, 0, 0, 1]
    assert counts(s3, 6, "unbased") == [1, 1, 1, 0, 0, 1]


def test_emitted_graphs_are_valid(s3):
    for sg in enumerate_graphs(EnumerationTask(s3, 3)):
        g = sg.graph.graph
        assert is_regular(g)
        assert is_connected(g)
        assert fulfills(g, s3)


def test_based_classes_are_pairwise_distinct(s3):
    found = enumerate_graphs(EnumerationTask(s3, 3))
    for i, a in enumerate(found):
        for b in found[i + 1:]:
            assert not a.isomorphic_based_to(b)


def test_unbased_representatives_cover_based_classes(s3):
    based = enumerate_graphs(EnumerationTask(s3, 3))
    unbased = enumerate_graphs(EnumerationTask(s3, 3, mode="unbased"))
    for sg in based:
        assert any(sg.isomorphic_unbased_to(u) for u in unbased)


def test_free_group_index_two(f2):
    # F(a, b) has exactly 3 subgroups of index 2
    assert len(enumerate_graphs(EnumerationTask(f2, 2))) == 3


def test_deterministic_order(s3):
    a = enumerate_graphs(EnumerationTask(s3, 3))
    b = enumerate_graphs(EnumerationTask(s3, 3))
    assert [x.graph for x in a] == [x.graph for x in b]


def test_budget(f2):
    with pytest.raises(SearchBudgetExceeded):
        enumerate_graphs(EnumerationTask(f2, 6), node_budget=10)


class TestHallSearch:
    def test_s3_witnesses(self, s3):
        for d in (1, 2, 3, 6):
            witness = hall_search(s3, 6, d)
            assert witness is not None
            assert witness.index() == 6 // d

    def test_witness_against_known_subgroup(self, s3):
        witness = hall_search(s3, 6, 3)
        rotation = coset_enumerate(s3, [s3.word("s1 s2")])
        assert witness.isomorphic_based_to(rotation)

    def test_preconditions(self, s3):
        with pytest.raises(ValueError):
            hall_search(s3, 6, 4)  # 4 does not divide 6
        with pytest.raises(ValueError):
            hall_search(s3, 12, 2)  # 2 and 6 share a factor

    def test_nonpositive_orders(self, s3):
        for order, d in [(0, 0), (6, 0), (0, 2), (-6, 2), (6, -2)]:
            with pytest.raises(ValueError):
                hall_search(s3, order, d)

    def test_whole_group_is_hall(self, s3):
        witness = hall_search(s3, 6, 6)
        assert witness.index() == 1


def test_search_is_the_free_group_filtered_by_fulfillment(random_presentation):
    """The relator scans prune nothing a fulfilling table needs: the
    classes of P are exactly the classes of F_k that fulfill P."""
    rng = random.Random(4)
    free = {}
    for _ in range(150):
        k, n = rng.randint(1, 2), rng.randint(1, 4)
        pres = random_presentation(rng, k)
        for mode in ("based", "unbased"):
            if (k, n, mode) not in free:
                fk = free_presentation(["a", "b"][:k])
                free[k, n, mode] = enumerate_graphs(EnumerationTask(fk, n, mode))
            expected = [sg.coset_table() for sg in free[k, n, mode]
                        if fulfills(sg.graph.graph, pres)]
            found = enumerate_graphs(EnumerationTask(pres, n, mode))
            assert [sg.coset_table() for sg in found] == expected, (pres, n, mode)


P = Presentation.parse
# (presentation, index, search nodes counted when every relator was rescanned
# at every used vertex after each edge, based classes)
NODE_BOUNDS = [
    (P(["a", "b"], []), 5, 1911, 461),
    (P(["s1", "s2"], ["s1 s1", "s2 s2", "s1 s2 s1 s2 s1 s2"]), 6, 50, 1),
    (P(["x", "y"], ["x x", "y y y"]), 8, 827, 40),
    (P(["a", "b"], ["a a", "b b b", " ".join(["a b"] * 7)]), 14, 5027, 84),
    (P(["a", "b", "c"], ["a a", "b b", "c c", "a b a b a b", "b c b c b c", "a c a c a c"]),
     8, 2055, 4),
    (P(["a", "b"], ["a a a a", "a a b^-1 b^-1", "b^-1 a b a"]), 4, 68, 1),
    (P(["a", "b"], ["a b a b^-1 a^-1 b^-1"]), 6, 3037, 22),
    # relators of length one, and relators that are not cyclically reduced
    (P(["a", "b", "c"], ["b", "a a a", "c b a c^-1", "c c c c"]), 4, 134, 1),
    (P(["a", "b"], ["a", "b b b"]), 3, 10, 1),
    (P(["a", "b"], ["a b a^-1 b b", "b a b a^-1 b^-1"]), 5, 385, 1),
    (P(["x", "y"], ["x x x", "x y y x^-1", "x y x y"]), 6, 186, 1),
]


@pytest.mark.parametrize("pres, n, nodes, classes", NODE_BOUNDS)
def test_search_visits_no_more_nodes_than_a_full_rescan(pres, n, nodes, classes):
    search = _Search(pres, n, nodes)
    assert sum(1 for _ in search._extend()) == classes
    assert search.nodes <= nodes
