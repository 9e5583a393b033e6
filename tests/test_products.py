import pytest

from stallings import (
    ProductGraph,
    coset_enumerate,
    coset_meet,
    free_reduce,
    intersect,
    is_malnormal,
    product,
)


@pytest.fixture
def h_and_k(s3):
    return (coset_enumerate(s3, [s3.word("s1")]),
            coset_enumerate(s3, [s3.word("s2")]))


def test_product_vertex_and_edge_counts(h_and_k):
    h, k = h_and_k
    pg = product(h, k)
    assert pg.graph.vertex_count == h.index() * k.index()
    # both factors regular: one edge per pair vertex per letter
    assert len(pg.graph.edges) == pg.graph.vertex_count * 2


def test_intersection_of_distinct_reflections(s3, h_and_k):
    h, k = h_and_k
    meet = intersect(h, k)
    assert meet.index() == 6  # trivial subgroup
    for w in h.generators():
        assert not meet.contains(w) or coset_enumerate(s3).contains(w)


def test_intersection_with_self(h_and_k):
    h, _ = h_and_k
    assert intersect(h, h).graph == h.graph


def test_intersection_subgroup_membership(s3):
    # <s1s2> has index 2; meet with <s1> is trivial
    rot = coset_enumerate(s3, [s3.word("s1 s2")])
    refl = coset_enumerate(s3, [s3.word("s1")])
    meet = intersect(rot, refl)
    assert meet.index() == 6


def test_coset_meet_words(h_and_k):
    h, k = h_and_k
    pg = ProductGraph(h, k)
    for v1 in range(h.index()):
        for v2 in range(k.index()):
            g = coset_meet(pg, v1, v2)
            if g is None:
                assert not pg.in_base_component(v1, v2)
            else:
                # g lies in both chosen cosets
                assert h.contains_coset(g, v1)
                assert k.contains_coset(g, v2)


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
    pg = ProductGraph(h, k)
    assert sum(pg.component_sizes().values()) == pg.graph.vertex_count


def test_vertices_outside_a_factor_are_rejected(f2):
    h = coset_enumerate(f2, [f2.word("a"), f2.word("b a b^-1"), f2.word("b b")])
    pg = product(h, h)
    for v_left, v_right in [(0, 2), (0, -1), (1, -1), (2, 0), (-1, 1)]:
        with pytest.raises(ValueError):
            pg.pair_id(v_left, v_right)
        with pytest.raises(ValueError):
            pg.in_base_component(v_left, v_right)
        with pytest.raises(ValueError):
            coset_meet(pg, v_left, v_right)


@pytest.mark.parametrize("order", [0, -4])
def test_malnormality_needs_a_positive_group_order(f2, order):
    with pytest.raises(ValueError):
        is_malnormal(coset_enumerate(f2, [f2.word("a"), f2.word("b")]), order)
