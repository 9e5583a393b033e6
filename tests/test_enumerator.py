import random
import tracemalloc

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
)
from stallings.enumerator import _Search
from test_coset_enumeration import (
    canonical_rows, reference_scan, symmetric, uncached_cycles, with_involutions)
from test_xgraph import connected, regular


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
    for count in (2.5, 3.0, "3", True):
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            EnumerationTask(s3, count)


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
        assert regular(g)
        assert connected(g)
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
    assert [x.coset_table() for x in a] == [x.coset_table() for x in b]


def test_budget(f2):
    with pytest.raises(SearchBudgetExceeded):
        enumerate_graphs(EnumerationTask(f2, 6), node_budget=10)


@pytest.mark.parametrize("budget", [0, -1, 2.5, True, "10", None])
def test_node_budget_must_be_a_positive_int(s3, budget):
    with pytest.raises(ValueError, match="node_budget must be a positive integer"):
        enumerate_graphs(EnumerationTask(s3, 3), node_budget=budget)
    with pytest.raises(ValueError, match="node_budget must be a positive integer"):
        hall_search(s3, 6, 2, node_budget=budget)


def test_one_node_is_the_least_budget(s3):
    assert len(enumerate_graphs(EnumerationTask(free_presentation(["a"]), 1), node_budget=1)) == 1
    with pytest.raises(SearchBudgetExceeded, match="node budget of 1$"):
        enumerate_graphs(EnumerationTask(s3, 3), node_budget=1)


def test_search_grows_its_table_with_its_vertices(s3):
    search = _Search(s3, 10**9, 10)
    assert len(search.table) == 1
    tracemalloc.start()
    try:
        assert enumerate_graphs(EnumerationTask(s3, 10**6), node_budget=1000) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("search", [
    lambda: hall_search(free_presentation(["a", "b"]), 1000, 1).index() == 1000,
    lambda: len(enumerate_graphs(EnumerationTask(free_presentation(["a"]), 2000))) == 1,
], ids=["hall-free-order-1000", "enumerate-cyclic-index-2000"])
def test_a_search_far_deeper_than_the_recursion_limit_answers(search):
    # the search keeps one branch entry per empty entry on its path in a list
    assert search()


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

    @pytest.mark.parametrize("k, order, orders", [
        (3, 6, (1, 2, 3, 6)),
        (4, 24, (1, 3, 8, 24)),
        (5, 120, (1, 3, 5, 8, 15, 24, 40, 120)),
    ])
    def test_witness_is_the_first_class(self, k, order, orders):
        pres = symmetric(k)
        for d in orders:
            witness = hall_search(pres, order, d)
            found = enumerate_graphs(EnumerationTask(pres, order // d))
            if found:
                assert witness.coset_table() == found[0].coset_table()
            else:
                assert witness is None


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


def test_search_counters():
    f2 = free_presentation(["a", "b"])
    based = _Search(f2, 6, 10**6)
    assert sum(1 for _ in based._extend()) == 3447
    assert (based.nodes, based.forced, based.pruned) == (13970, 0, 0)
    t237 = _Search(P(["a", "b"], ["a a", "b b b", " ".join(["a b"] * 7)]), 28, 10**6)
    assert sum(1 for _ in t237._extend()) == 1092
    assert (t237.nodes, t237.forced, t237.pruned) == (53802, 19894, 0)
    unbased = _Search(f2, 7, 10**6, unbased=True)
    assert sum(1 for _ in unbased._extend()) == 4163
    assert (unbased.nodes, unbased.forced, unbased.pruned) == (34733, 0, 6758)


class ReferenceSearch:
    """The search without forced entries or pruning, as a reference: it
    branches over every vertex at every empty entry, on a two-column table
    (a forward and an inverse column per generator) of ``n`` rows allocated
    up front; unbased classes are the complete tables that
    ``least_from_base`` keeps."""

    def __init__(self, presentation, n, budget):
        self.n = n
        self.ncols = 2 * len(presentation.alphabet)
        self.table = [[None] * self.ncols for _ in range(n)]
        self.used = 1
        self.budget = budget
        self.nodes = 0
        self.conjugates = uncached_cycles(presentation)

    def _extend(self, v=0, c=0):
        while v < self.used and None not in self.table[v][c:]:
            v, c = v + 1, 0
        if v == self.used:
            if self.used == self.n:
                yield tuple(tuple(row) for row in self.table)
            return
        c = self.table[v].index(None, c)
        inv = c ^ 1
        used = self.used
        for t in range(min(used + 1, self.n)):
            if t < used and self.table[t][inv] is not None:
                continue
            self.nodes += 1
            if self.nodes > self.budget:
                raise SearchBudgetExceeded(self.budget)
            self.used = max(used, t + 1)
            self.table[v][c] = t
            self.table[t][inv] = v
            if all(len(reference_scan(self.table, v, w)) != 2 for w in self.conjugates[c]):
                yield from self._extend(v, c)
            self.table[t][inv] = None
            self.table[v][c] = None
        self.used = used


def least_from_base(rows):
    """True iff no other base renumbers the canonical table ``rows`` into a
    lexicographically smaller table."""
    cols = list(zip(*rows))
    for v in range(1, len(rows)):
        for a, b in zip(canonical_rows(cols, [v]), rows):
            if a != b:
                if a < b:
                    return False
                break
    return True


def assert_search_matches_reference(pres, n, mode):
    """The search finds the reference's tables, in order, compared by their
    forward columns."""
    reference = ReferenceSearch(pres, n, 10**7)
    expected = [list(zip(*rows))[0::2] for rows in reference._extend()
                if mode == "based" or least_from_base(rows)]
    search = _Search(pres, n, 10**7, unbased=mode == "unbased")
    found = [[cols[c] for c in search.layout.forward] for cols in search._extend()]
    assert found == expected, (pres, n, mode)
    assert search.nodes <= reference.nodes, (pres, n, mode)


def test_search_matches_the_reference_on_random_presentations(random_presentation):
    rng = random.Random(10)
    for _ in range(300):
        k, n = rng.randint(1, 3), rng.randint(1, 5)
        pres = random_presentation(rng, k)
        if rng.random() < 0.5:
            pres = with_involutions(rng, pres)
        for mode in ("based", "unbased"):
            assert_search_matches_reference(pres, n, mode)


def triangle(l, m, n):
    return P(["x", "y"], [" ".join(["x"] * l), " ".join(["y"] * m), " ".join(["x y"] * n)])


# the groups of the low-index benchmark grid, each with its largest index up to 8
LOW_INDEX_GRID = [
    (free_presentation(["a", "b"]), 5),
    (free_presentation(["a", "b", "c"]), 3),
    (P(["a", "b"], ["a a", "b b b"]), 8),
    (P(["a", "b", "c"], ["a a", "b b", "c c", "a b a b a b", "b c b c b c", "a c a c a c"]), 8),
] + [(triangle(*lmn), 8) for lmn in
     [(2, 3, 7), (2, 3, 8), (2, 3, 9), (2, 4, 5), (2, 4, 6), (3, 3, 4), (3, 3, 5)]]


@pytest.mark.parametrize("pres, top", LOW_INDEX_GRID)
def test_search_matches_the_reference_on_the_low_index_grid(pres, top):
    for n in range(1, top + 1):
        for mode in ("based", "unbased"):
            assert_search_matches_reference(pres, n, mode)
