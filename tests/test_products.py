import tracemalloc

import pytest

from stallings import products
from stallings import (
    EnumerationTask,
    Presentation,
    ProductGraph,
    SubgroupGraph,
    build_type1,
    coset_enumerate,
    coset_meet,
    enumerate_graphs,
    free_reduce,
    intersect,
    is_malnormal,
)
from stallings.subgroup import _layout
from test_coset_enumeration import symmetric
from test_subgroup import all_columns_bfs, walk_pools


@pytest.fixture
def h_and_k(s3):
    return (coset_enumerate(s3, [s3.word("s1")]),
            coset_enumerate(s3, [s3.word("s2")]))


def test_intersection_of_distinct_reflections(s3, h_and_k):
    h, k = h_and_k
    meet = intersect(h, k)
    assert meet.index() == 6  # trivial subgroup
    for w in h.generators():
        assert not meet.contains(w) or coset_enumerate(s3).contains(w)


def test_intersection_with_self(h_and_k):
    h, _ = h_and_k
    assert intersect(h, h).coset_table() == h.coset_table()


def test_intersection_subgroup_membership(s3):
    # <s1s2> has index 2; meet with <s1> is trivial
    rot = coset_enumerate(s3, [s3.word("s1 s2")])
    refl = coset_enumerate(s3, [s3.word("s1")])
    meet = intersect(rot, refl)
    assert meet.index() == 6


def test_coset_meet_words(h_and_k):
    """Each word lies in both chosen cosets, and the pairs that get one
    number [G : H cap K], as many as there are cosets that meet, so every
    None is right."""
    h, k = h_and_k
    pg = ProductGraph(h, k)
    met = 0
    for v1 in range(h.index()):
        for v2 in range(k.index()):
            g = coset_meet(pg, v1, v2)
            if g is not None:
                assert h.trace(0, g) == v1
                assert k.trace(0, g) == v2
                met += 1
    assert met == intersect(h, k).index() == 6


def test_coset_meet_base_is_identity(h_and_k):
    h, k = h_and_k
    pg = ProductGraph(h, k)
    assert coset_meet(pg, 0, 0) == free_reduce(coset_meet(pg, 0, 0))


def test_malnormal_reflection_in_s3(s3):
    refl = coset_enumerate(s3, [s3.word("s1")])
    assert is_malnormal(refl, 6)


def test_rotation_not_malnormal(s3):
    rot = coset_enumerate(s3, [s3.word("s1 s2")])
    assert not is_malnormal(rot, 6)


def test_malnormal_checks_group_order(s3):
    refl = coset_enumerate(s3, [s3.word("s1")])
    with pytest.raises(ValueError):
        is_malnormal(refl, 7)


def test_component_sizes_partition(h_and_k):
    h, k = h_and_k
    assert sum(products._orbit_sizes(h, k)) == h.index() * k.index()


def test_vertices_outside_a_factor_are_rejected(f2):
    h = coset_enumerate(f2, [f2.word("a"), f2.word("b a b^-1"), f2.word("b b")])
    pg = ProductGraph(h, h)
    for v_left, v_right in [(0, 2), (0, -1), (1, -1), (2, 0), (-1, 1)]:
        with pytest.raises(ValueError):
            pg.pair_id(v_left, v_right)
        with pytest.raises(ValueError):
            coset_meet(pg, v_left, v_right)


def test_the_trivial_group_of_order_one_is_malnormal_in_itself():
    trivial = Presentation.parse(["a"], ["a"])
    assert is_malnormal(coset_enumerate(trivial), 1)


@pytest.mark.parametrize("order", [0, -4])
def test_malnormality_needs_a_positive_group_order(f2, order):
    with pytest.raises(ValueError):
        is_malnormal(coset_enumerate(f2, [f2.word("a"), f2.word("b")]), order)


S5 = symmetric(5)
A2 = Presentation.parse(["a", "b", "c"],
                        ["a a", "b b", "c c", "a b a b a b", "b c b c b c", "a c a c a c"])
S5_POOL = [[], ["s1"], ["s1 s2"], ["s1", "s3"], ["s1 s2 s3 s4"], ["s1 s2", "s2 s3", "s3 s4"]]


def _reference_orbit(left, right, start):
    """The pairs reachable from ``start`` by BFS along forward and inverse
    columns alike, in scan order, with a set of the pairs seen."""
    n2 = right.index()
    cols = list(zip(left._table.values(), right._table.values()))
    order, seen = [start], {start}
    for p in order:
        a, b = divmod(p, n2)
        for lc, rc in cols:
            q = lc[a] * n2 + rc[b]
            if q not in seen:
                seen.add(q)
                order.append(q)
    return order


def _reference_components(left, right):
    """The size of each component keyed by its least pair, in order of that
    pair, one reference orbit per component."""
    component = [-1] * (left.index() * right.index())
    for p in range(len(component)):
        if component[p] < 0:
            for q in _reference_orbit(left, right, p):
                component[q] = p
    sizes = {}
    for c in component:
        sizes[c] = sizes.get(c, 0) + 1
    return sizes


def _reference_meet(left, right):
    """The intersection renumbered from the columns of the base orbit, and
    the vertex of it that each pair of the orbit is."""
    vertex = {p: i for i, p in enumerate(_reference_orbit(left, right, 0))}
    n2 = right.index()
    forward = [[vertex[lc[p // n2] * n2 + rc[p % n2]] for p in vertex]
               for lc, rc in zip(left.coset_table().permutations,
                                 right.coset_table().permutations)]
    return vertex, SubgroupGraph(left.presentation, forward)


def _pool_pairs():
    s5 = [coset_enumerate(S5, [S5.word(w) for w in gens]) for gens in S5_POOL]
    a2 = [sg for n in range(1, 7) for sg in enumerate_graphs(EnumerationTask(A2, n))]
    return [(h, k) for pool in (s5, a2) for h in pool for k in pool]


def test_labels_match_the_reference_bfs():
    pairs = _pool_pairs()
    assert len(pairs) == 6 ** 2 + 28 ** 2
    every_coset_meets = 0
    for h, k in pairs:
        pg = ProductGraph(h, k)
        orbit_sizes = list(products._orbit_sizes(h, k))
        assert orbit_sizes == list(_reference_components(h, k).values())
        # the coprimality check's count: the base orbit holds every pair
        # exactly when it holds every pair (v, 0)
        base_orbit = set(_reference_orbit(h, k, 0))
        meets = all(v * k.index() in base_orbit for v in range(h.index()))
        assert (orbit_sizes[0] == h.index() * k.index()) == meets
        every_coset_meets += meets
        vertex, meet = _reference_meet(h, k)
        got = intersect(h, k)
        assert got.coset_reps == meet.coset_reps  # builds the Schreier vector
        assert (got._table, got._parent) == (meet._table, meet._parent)
        assert list(got._table) == list(meet._table)
        assert got.free_basis() == meet.free_basis()
        for v1 in range(h.index()):
            v2 = (7 * v1 + 3) % k.index()
            p = v1 * k.index() + v2
            expected = meet.coset_reps[vertex[p]] if p in vertex else None
            assert coset_meet(pg, v1, v2) == expected
        assert_a_rejected_pair_walks_nothing(h, k, vertex, meet)
    assert 100 <= every_coset_meets <= len(pairs) - 100, every_coset_meets


def assert_a_rejected_pair_walks_nothing(h, k, vertex, meet):
    """A fresh product of h and k rejects a pair outside it before walking
    anything, then answers every pair as the references do."""
    every = [(v1, v2) for v1 in range(h.index()) for v2 in range(k.index())]
    words = [meet.coset_reps[vertex[p]] if p in vertex else None for p in range(len(every))]
    pg = ProductGraph(h, k)
    with pytest.raises(ValueError) as raised:
        coset_meet(pg, h.index(), 0)
    assert str(raised.value) == f"no vertex pair ({h.index()}, 0) in the product"
    assert pg._meet is None  # nothing walked
    assert [coset_meet(pg, v1, v2) for v1, v2 in every] == words


def test_a_product_allocates_nothing_per_pair(f2):
    """Two 2003-vertex certificates have 4,012,009 pairs.  Building their
    product labels none of them, so it allocates no list or tuple of labels,
    and neither does a ``coset_meet`` for a pair outside it, which is
    rejected before the meet is built."""
    left, right = build_type1(f2, 0, 2003).graph, build_type1(f2, 0, 2003).graph
    message = r"^no vertex pair \(2003, 0\) in the product$"
    tracemalloc.start()
    try:
        pg = ProductGraph(left, right)
        with pytest.raises(ValueError, match=message):
            coset_meet(pg, 2003, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert pg._meet is None
    assert pg.pair_id(2002, 2002) == 2003 ** 2 - 1
    with pytest.raises(ValueError, match=message):
        pg.pair_id(2003, 0)


def test_coset_meet_builds_the_meet_once(monkeypatch):
    """The S5 trivial self-product meets in 120 vertices; the meet is built
    on the first ``coset_meet`` call and reused by every later one."""
    calls = []
    meet = products._meet

    def counted(left, right):
        calls.append((left, right))
        return meet(left, right)

    monkeypatch.setattr(products, "_meet", counted)
    trivial = coset_enumerate(S5)
    pg = ProductGraph(trivial, trivial)
    assert calls == []
    words = [coset_meet(pg, v, v) for v in range(120)]
    assert calls == [(trivial, trivial)]
    assert [trivial.trace(0, w) for w in words] == list(range(120))
    assert words == [coset_meet(pg, v, v) for v in range(120)]
    assert coset_meet(pg, 0, 1) is None
    assert len(calls) == 1

def test_malnormality_in_s5():
    assert is_malnormal(coset_enumerate(S5), 120)
    # A5 is normal of index 2: it meets each of its conjugates in itself
    assert not is_malnormal(coset_enumerate(S5, [S5.word(w) for w in S5_POOL[-1]]), 120)


def all_columns_meet(left, right):
    """``_meet`` as it was before it read one column per involution: pair
    rows over every column of the table, keyed as the table is, and the
    Schreier vector of the all-columns BFS."""
    left._check_presentation(right)
    n2 = right.index()
    cols = list(zip(left._table.values(), right._table.values()))
    vertex = [-1] * (left.index() * n2)
    vertex[0] = 0
    order, rows = [0], []
    for p in order:
        a, b = divmod(p, n2)
        row = []
        for lc, rc in cols:
            q = lc[a] * n2 + rc[b]
            if vertex[q] < 0:
                vertex[q] = len(order)
                order.append(q)
            row.append(vertex[q])
        rows.append(row)
    table = dict(zip(left._table, zip(*rows)))
    meet = SubgroupGraph._canonical(left.presentation,
                                    [table[lt] for lt in _layout(left.presentation).letters])
    meet._parent = all_columns_bfs(meet._table, 0)[2]
    return vertex, meet


def test_meet_matches_all_columns(random_presentation):
    """Every pair within each pool of ``walk_pools``, which holds the S5 and
    A~2 pools above, every D4 class and seeded random presentations."""
    involutions = 0
    pools = walk_pools(random_presentation)
    for h, k in ((h, k) for pool in pools for h in pool for k in pool):
        vertex, meet = products._meet(h, k)
        expected_vertex, expected = all_columns_meet(h, k)
        assert vertex == expected_vertex
        assert meet._table == expected._table and list(meet._table) == list(expected._table)
        assert meet.coset_reps == expected.coset_reps and meet._parent == expected._parent
        assert meet.free_basis() == expected.free_basis()
        layout = _layout(h.presentation)
        shared = [lt for lt in layout.letters if lt > 0 and -lt not in layout.letters]
        assert all(meet._table[lt] is meet._table[-lt] for lt in shared)
        involutions += bool(shared)
    assert involutions >= 3000


class ReadLog(dict):
    """A table that logs the keys read from it; reading every value or item
    logs every key."""

    def __init__(self, table, log):
        super().__init__(table)
        self.log = log

    def __getitem__(self, lt):
        self.log.add(lt)
        return super().__getitem__(lt)

    def values(self):
        self.log.update(self)
        return super().values()

    def items(self):
        self.log.update(self)
        return super().items()


def test_walks_read_one_column_per_involution():
    """Every generator of S5 and A~2 is an involution: the meet, and the
    renumbering from every base of one table compared with another, read
    only the forward columns of either table."""
    renumbered = 0
    for h, k in _pool_pairs()[::3]:
        h, k = (SubgroupGraph(sg.presentation, sg.coset_table().permutations) for sg in (h, k))
        forward = set(range(1, len(h.presentation.alphabet) + 1))
        meet_log, map_log = set(), set()
        h._table, k._table = ReadLog(h._table, meet_log), ReadLog(k._table, meet_log)
        products._meet(h, k)
        assert meet_log == forward
        if h.index() == k.index():
            h._table, k._table = ReadLog(h._table, map_log), ReadLog(k._table, map_log)
            renumbered += sum(h._rebased_map(v, k) is not None for v in range(h.index()))
            assert map_log == forward
    assert renumbered >= 100
