"""End-to-end acceptance checks against known catalogs and worked examples.

One test per criterion; each asserts exact counts or exhaustively verified
properties.
"""

import random
from math import gcd

import pytest

from stallings import (
    EnumerationTask,
    GluingSpec,
    Presentation,
    ProductGraph,
    Word,
    build_glued,
    build_parallel_circles,
    build_type1,
    build_type2,
    chain_primes,
    coset_enumerate,
    coset_meet,
    enumerate_graphs,
    free_presentation,
    free_subgroup_graph,
    fulfills,
    hall_search,
    intersect,
    is_malnormal,
    is_prime,
    subgroup_from_graph,
    trace,
    verify_coprime_certificate,
)
from stallings.products import _orbit_sizes
from test_families import graph_sweep
from test_xgraph import held, regular


def class_counts(presentation, n_max, mode):
    return [
        len(enumerate_graphs(EnumerationTask(presentation, n, mode=mode)))
        for n in range(1, n_max + 1)
    ]


def test_criterion_1_s3_catalog(s3):
    assert class_counts(s3, 6, "unbased") == [1, 1, 1, 0, 0, 1]
    assert class_counts(s3, 6, "based") == [1, 1, 3, 0, 0, 1]
    # the three based index-3 subgroups are <s1>, <s1 s2 s1>, <s2>
    found = enumerate_graphs(EnumerationTask(s3, 3))
    targets = [s3.word(t) for t in ("s1", "s1 s2 s1", "s2")]
    for target in targets:
        assert sum(sg.contains(target) for sg in found) == 1
    matched = {
        next(i for i, sg in enumerate(found) if sg.contains(target))
        for target in targets
    }
    assert matched == {0, 1, 2}


def test_criterion_2_d3_catalog(d3):
    assert class_counts(d3, 6, "unbased") == [1, 1, 1, 0, 0, 1]
    assert class_counts(d3, 6, "based") == [1, 1, 3, 0, 0, 1]
    # the index-2 subgroup is the rotation subgroup <a>
    (sg,) = enumerate_graphs(EnumerationTask(d3, 2))
    assert sg.contains(d3.word("a"))
    assert sg.contains(d3.word("a a"))
    assert not sg.contains(d3.word("b"))
    assert sg.coset_table() == coset_enumerate(d3, [d3.word("a")]).coset_table()


def test_criterion_3_free_basis():
    # a reference 6-vertex {a,b,c,d}-graph, reconstructed from its known basis
    f4 = free_presentation(["a", "b", "c", "d"])
    reference = [
        f4.word(t)
        for t in ("b a b", "b a c", "a a", "b b d a^-1", "b a^-1 d a b^-1")
    ]
    graph = free_subgroup_graph(f4.alphabet, reference)
    assert graph.vertex_count == 6
    from stallings import free_basis

    computed = free_basis(graph)
    assert len(computed) == 5
    # mutual membership: each set's words are loops in the other's graph
    other = free_subgroup_graph(f4.alphabet, computed)
    for w in computed:
        assert trace(graph.graph, graph.base, w) == graph.base
    for w in reference:
        assert trace(other.graph, other.base, w) == other.base
    assert held(other) == held(graph)


def test_criterion_4_delta333_intersection(delta333):
    p = delta333
    h = coset_enumerate(p, [p.word(t) for t in ("a", "c b c", "c a b")])
    k = coset_enumerate(p, [p.word(t) for t in ("b", "a c a", "a b c")])
    assert h.index() == 3 and k.index() == 3
    meet = intersect(h, k)
    assert meet.index() == 6
    assert meet.is_normal()

    pg = ProductGraph(h, k)
    a, b, c = p.word("a"), p.word("b"), p.word("c")
    hb, hc = h.trace(0, b), h.trace(0, c)
    kc, ka = k.trace(0, c), k.trace(0, a)

    def check(v_left, v_right, rep):
        g = coset_meet(pg, v_left, v_right)
        assert g is not None
        assert h.trace(0, g) == v_left
        assert k.trace(0, g) == v_right
        assert meet.contains(g * rep.inverse())

    check(0, 0, Word())                 # H cap K
    check(0, ka, a)                     # H cap Ka = (H cap K) a
    check(hb, 0, b)                     # Hb cap K = (H cap K) b
    check(hc, kc, c)                    # Hc cap Kc = (H cap K) c
    check(hb, kc, a * b)                # Hb cap Kc = (H cap K) ab
    check(hc, ka, b * a)                # Hc cap Ka = (H cap K) ba
    for pair in ((0, kc), (hc, 0), (hb, ka)):
        assert coset_meet(pg, *pair) is None


def all_subgroup_graphs(presentation, order):
    out = []
    for n in range(1, order + 1):
        if order % n == 0:
            out += enumerate_graphs(EnumerationTask(presentation, n))
    return out


def test_criterion_5_malnormality(s3, d3):
    refl = coset_enumerate(s3, [s3.word("s1")])
    assert is_malnormal(refl, 6)
    rotation = coset_enumerate(s3, [s3.word("s1 s2")])
    assert not is_malnormal(rotation, 6)
    # |G| divides n^2 - n for every malnormal subgroup of S3 and D3
    for presentation in (s3, d3):
        order = coset_enumerate(presentation).index()
        assert order == 6
        for sg in all_subgroup_graphs(presentation, order):
            if is_malnormal(sg, order):
                n = sg.index()
                assert (n * n - n) % order == 0


def test_criterion_6_hall_search(s3, q8):
    for d in (1, 2, 3, 6):
        witness = hall_search(s3, 6, d)
        assert witness is not None
        assert witness.index() == 6 // d
        assert fulfills(witness.graph.graph, s3)
    assert hall_search(q8, 8, 8).index() == 1
    # 8 = 2^3: no divisor pair (d, 8/d) with both parts > 1 is coprime
    assert not any(
        8 % d == 0 and gcd(d, 8 // d) == 1 for d in range(2, 8)
    )


# --- the certificate family catalog -----------------------------------------

FREE2 = free_presentation(["a", "b"])
ZXZ = Presentation.parse(["a", "b"], ["a b a^-1 b^-1"])
BS23 = Presentation.parse(["a", "b"], ["a b b a^-1 b^-1 b^-1 b^-1"])
Z2_FREE_Z3 = Presentation.parse(["a", "b"], ["a a", "b b b"])
RACG4 = Presentation.parse(
    ["s1", "s2", "s3", "s4"],
    ["s1 s1", "s2 s2", "s3 s3", "s4 s4",
     "s1 s3 s1 s3", "s1 s4 s1 s4", "s2 s3 s2 s3", "s2 s4 s2 s4",
     "s3 s4 s3 s4"],  # every pair commutes except (s1, s2)
)
FUCHS2 = Presentation.parse(
    ["a1", "b1", "a2", "b2"],
    ["a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1"],
)
B3 = Presentation.parse(["x", "y"], ["x y x y^-1 x^-1 y^-1"])


CATALOG = [
    ("free", lambda p: build_type1(FREE2, 0, p), [2, 3, 5]),
    ("free abelian", lambda p: build_parallel_circles(ZXZ, p), [2, 3, 5]),
    ("baumslag-solitar", lambda p: build_type1(BS23, 0, p), [2, 3, 5]),
    ("cyclic free product",
     lambda p: build_type2(Z2_FREE_Z3, 0, 2, 1, 3, (p - 1) // 3),
     [m for _, m in chain_primes(3, 3)]),
    ("right-angled coxeter",
     lambda p: build_type2(RACG4, 0, 2, 1, 2, (p - 1) // 2),
     [m for _, m in chain_primes(2, 3)]),
    ("fuchsian genus 2",
     lambda p: build_type2(FUCHS2, 0, 2, 2, 2, (p - 1) // 2),
     [m for _, m in chain_primes(2, 3)]),
    ("braid", lambda p: build_parallel_circles(B3, p), [2, 3, 5]),
]


def test_criterion_7_certificate_catalog():
    for name, build, primes in CATALOG:
        assert len(primes) == 3 and all(is_prime(p) for p in primes), name
        for p in primes:
            cert = build(p)
            g = cert.graph
            assert cert.vertex_count == p, name
            assert regular(g.graph.graph), name
            assert fulfills(g.graph.graph, cert.graph.presentation), name
            ok, orbit = graph_sweep(g.graph, cert.word)
            assert ok, name
            # coset-representative property: powers of w are pairwise
            # distinct cosets covering the vertex set
            assert sorted(orbit) == list(range(p)), name


def test_criterion_8_glued_13_vertex(delta333):
    h1 = coset_enumerate(
        delta333, [delta333.word(t) for t in ("b", "c", "a b c b a")])
    # the powers of abc are a full set of coset representatives; the index
    # is 4 (verified independently by exhaustive enumeration: no 3-vertex
    # fulfilling graph contains all three generators)
    assert h1.index() == 4
    ok, _ = graph_sweep(h1.graph, delta333.word("a b c"))
    assert ok
    z2 = Presentation.parse(["d"], ["d d"])
    h2 = coset_enumerate(z2)
    assert h2.index() == 2
    # (n1 + n2 - 2) * pairs + 1 = 4 * 3 + 1 = 13
    spec = GluingSpec(h1, delta333.word("a b c"), h2, z2.word("d"), 3)
    cert = build_glued(spec)
    assert cert.vertex_count == 13
    assert is_prime(cert.vertex_count)
    assert regular(cert.graph.graph.graph)
    assert fulfills(cert.graph.graph.graph, cert.graph.presentation)
    ok, orbit = graph_sweep(cert.graph.graph, cert.word)
    assert ok and sorted(orbit) == list(range(13))


def test_criterion_9_coprimality_theorem():
    rng = random.Random(20240817)
    instances = [
        ("free", lambda m: build_type1(FREE2, 0, m), 1),
        ("free abelian", lambda m: build_parallel_circles(ZXZ, m), 1),
        ("baumslag-solitar", lambda m: build_type1(BS23, 0, m), 1),
        ("cyclic free product",
         lambda m: build_type2(Z2_FREE_Z3, 0, 2, 1, 3, (m - 1) // 3), 3),
        ("right-angled coxeter",
         lambda m: build_type2(RACG4, 0, 2, 1, 2, (m - 1) // 2), 2),
    ]
    checked = 0
    while checked < 100:
        name, build, step = instances[rng.randrange(len(instances))]
        p = step * rng.randint(1, 8) + 1 if step > 1 else rng.randint(2, 25)
        if not is_prime(p):
            continue
        m = step * rng.randint(1, 8) + 1 if step > 1 else rng.randint(2, 25)
        if gcd(m, p) != 1 or m < 2:
            continue
        cert = build(p)
        # a subgroup containing word^m, rebuilt through coset enumeration
        # from the generators read off the m-vertex companion graph
        companion = build(m).graph
        other = coset_enumerate(
            companion.presentation, companion.free_basis(), max_cosets=5000)
        assert other.index() == m
        assert other.contains(cert.word ** m)
        assert verify_coprime_certificate(cert, other, m), (name, p, m)
        checked += 1
    assert checked == 100


def _z4_chain(pair_count, identifications=()):
    """The chain of <a | a^4> and <b | b^4> over <a^2> and <b^2>: the free
    product, or with (a^2, b^2) the amalgam over Z2."""
    pa = Presentation.parse(["a"], ["a a a a"])
    pb = Presentation.parse(["b"], ["b b b b"])
    spec = GluingSpec(coset_enumerate(pa, [pa.word("a a")]), pa.word("a"),
                      coset_enumerate(pb, [pb.word("b b")]), pb.word("b"), pair_count)
    return build_glued(spec, [(pa.word(d), pb.word(e)) for d, e in identifications])


def test_coprimality_lemma_on_every_small_index_subgroup():
    """The lemma behind the certificates: if the powers of w sweep the p
    vertices of H's graph, p is prime, w^m lies in K and gcd(m, p) = 1, then
    every coset of K meets H, so [G : H cap K] = p [G : K].  Checked against
    every based subgroup K of small index, with m the length of w's cycle
    through K's base; the base orbit the check counts is the intersection's
    index on every instance, and where p divides m the product can fall
    short."""
    families = {
        "free": ([build_type1(FREE2, 0, p) for p in (3, 5, 7)], 5),
        "free abelian": ([build_parallel_circles(ZXZ, p) for p in (3, 5, 7)], 6),
        "baumslag-solitar": ([build_type1(BS23, 0, p) for p in (3, 5, 7)], 5),
        "cyclic free product":
            ([build_type2(Z2_FREE_Z3, 0, 2, 1, 3, c) for c in (2, 4)], 8),
        "right-angled coxeter":
            ([build_type2(RACG4, 0, 2, 1, 2, c) for c in (1, 2, 3)], 4),
        "braid": ([build_parallel_circles(B3, p) for p in (3, 5, 7)], 6),
        "glued": ([_z4_chain(c) for c in (1, 2, 3)], 6),
        "amalgam": ([_z4_chain(c, [("a a", "b b")]) for c in (1, 2, 3)], 6),
    }
    tally = {}
    for name, (certs, max_index) in families.items():
        presentation = certs[0].graph.presentation
        subgroups = [k for n in range(1, max_index + 1)
                     for k in enumerate_graphs(EnumerationTask(presentation, n))]
        counts = tally[name] = [len(subgroups), 0, 0, 0]
        for cert in certs:
            p = cert.vertex_count
            for k in subgroups:
                m, v = 1, k.trace(0, cert.word)
                while v != 0:
                    m, v = m + 1, k.trace(v, cert.word)
                meet = intersect(cert.graph, k).index()
                assert next(_orbit_sizes(k, cert.graph)) == meet, (name, p, m)
                if gcd(m, p) == 1:
                    assert verify_coprime_certificate(cert, k, m), (name, p, m)
                    assert meet == p * k.index(), (name, p, m)
                    counts[1] += 1
                else:
                    counts[2] += 1
                    counts[3] += meet != p * k.index()
    # per family: subgroups, instances the lemma covers, instances where p
    # divides m, and of those the ones where some coset of K misses H
    assert tally == {
        "free": [549, 1413, 234, 2],
        "free abelian": [33, 82, 17, 5],
        "baumslag-solitar": [10, 28, 2, 2],
        "cyclic free product": [123, 225, 21, 14],
        "right-angled coxeter": [70, 207, 3, 3],
        "braid": [43, 105, 24, 9],
        "glued": [456, 1102, 266, 51],
        "amalgam": [26, 63, 15, 15],
    }


# --- independent finite-group oracle ----------------------------------------


def multiplication_table(presentation):
    """Right-multiplication table of the finite group, from the trivial
    subgroup's coset graph: element v times element u = trace(v, rep_u)."""
    triv = coset_enumerate(presentation)
    n = triv.index()
    return triv, [[triv.trace(v, triv.coset_reps[u]) for u in range(n)]
                  for v in range(n)]


def brute_force_subgroups(table):
    """All subgroups of the group given by its multiplication table, as
    frozensets of element ids, found by closing generator sets."""
    n = len(table)
    inverse = [next(u for u in range(n) if table[v][u] == 0) for v in range(n)]

    def close(elements):
        closed = set(elements) | {0}
        frontier = list(closed)
        while frontier:
            x = frontier.pop()
            for y in list(closed):
                for z in (table[x][y], table[y][x], inverse[x]):
                    if z not in closed:
                        closed.add(z)
                        frontier.append(z)
        return frozenset(closed)

    subgroups = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        s = frontier.pop()
        for g in range(n):
            if g not in s:
                bigger = close(s | {g})
                if bigger not in subgroups:
                    subgroups.add(bigger)
                    frontier.append(bigger)
    return subgroups


CORPUS = [
    ("z4", ["a"], ["a a a a"], 4),
    ("z2xz2", ["a", "b"], ["a a", "b b", "a b a b"], 4),
    ("s3", ["s1", "s2"], ["s1 s1", "s2 s2", "s1 s2 s1 s2 s1 s2"], 6),
    ("d3", ["a", "b"], ["a a a", "b b", "a b a b"], 6),
    ("q8", ["a", "b"], ["a a a a", "a a b^-1 b^-1", "b^-1 a b a"], 8),
    ("d4", ["a", "b"], ["a a a a", "b b", "a b a b"], 8),
    ("a4", ["a", "b"], ["a a a", "b b", "a b a b a b"], 12),
    ("s4", ["a", "b"], ["a a a a", "b b", "a b a b a b"], 24),
]


@pytest.mark.parametrize("name,gens,rels,order", CORPUS, ids=[c[0] for c in CORPUS])
def test_criterion_10_oracle_equivalence(name, gens, rels, order):
    presentation = Presentation.parse(gens, rels)
    triv, table = multiplication_table(presentation)
    assert len(table) == order
    expected = brute_force_subgroups(table)

    found = {}
    for n in range(1, order + 1):
        if order % n != 0:
            continue
        for sg in enumerate_graphs(EnumerationTask(presentation, n)):
            members = frozenset(
                u for u in range(order) if sg.contains(triv.coset_reps[u])
            )
            assert len(members) == order // n
            assert members not in found  # based classes are distinct subgroups
            found[members] = sg
    assert set(found) == expected
