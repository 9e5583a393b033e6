import dataclasses
import random

import pytest

from stallings import (
    AlphabetMismatch,
    EnumerationTask,
    FulfillmentFailed,
    GluingInvalid,
    GluingSpec,
    Presentation,
    PresentationMismatch,
    Word,
    build_glued,
    build_parallel_circles,
    build_type1,
    build_type2,
    chain_primes,
    coset_enumerate,
    enumerate_graphs,
    extend_with_loops,
    free_presentation,
    free_reduce,
    free_subgroup_graph,
    fulfills,
    is_prime,
    subgroup_from_graph,
    trace,
    verify_coprime_certificate,
)
from stallings.families import _orbit, certify
from test_xgraph import held, rechecked, regular


def check_certificate(cert):
    g = cert.graph.graph.graph
    assert regular(g)
    assert fulfills(g, cert.graph.presentation)
    ok, orbit = graph_sweep(cert.graph.graph, cert.word)
    assert ok
    assert len(set(orbit)) == cert.vertex_count
    assert tuple(orbit) == cert.orbit


class TestType1:
    def test_free_group_circle(self, f2):
        cert = build_type1(f2, 0, 5)
        assert cert.vertex_count == 5
        check_certificate(cert)

    def test_baumslag_solitar(self):
        bs23 = Presentation.parse(["a", "b"], ["a b b b a^-1 b^-1 b^-1"])
        for p in (2, 3, 5):
            check_certificate(build_type1(bs23, 0, p))

    def test_finite_order_obstruction(self):
        z2 = Presentation.parse(["a"], ["a a"])
        with pytest.raises(FulfillmentFailed):
            build_type1(z2, 0, 3)

    def test_bad_arguments(self, f2):
        with pytest.raises(ValueError):
            build_type1(f2, 0, 0)
        with pytest.raises(ValueError):
            build_type1(f2, 7, 3)


class TestParallelCircles:
    def test_free_abelian(self):
        z2 = Presentation.parse(["a", "b"], ["a b a^-1 b^-1"])
        for p in (2, 3, 5):
            check_certificate(build_parallel_circles(z2, p))

    def test_braid_group(self):
        b3 = Presentation.parse(["x", "y"], ["x y x y^-1 x^-1 y^-1"])
        for p in (2, 3, 5):
            check_certificate(build_parallel_circles(b3, p))

    def test_generic_builder_fails_on_braid_relators(self):
        b3 = Presentation.parse(["x", "y"], ["x y x y^-1 x^-1 y^-1"])
        with pytest.raises(FulfillmentFailed):
            build_type1(b3, 0, 5)

    def test_word_letter_outside_the_alphabet_is_rejected(self, f2):
        assert build_parallel_circles(f2, 5, 1).word == Word([2])
        for word_letter in (-2, -1, 2, 7):
            with pytest.raises(ValueError, match="letter index out of range"):
                build_parallel_circles(f2, 5, word_letter)

    def test_zero_length_is_rejected(self, f2):
        with pytest.raises(ValueError, match="^circle length must be positive$"):
            build_parallel_circles(f2, 0)


class TestType2:
    def test_modular_group(self):
        z2z3 = Presentation.parse(["a", "b"], ["a a", "b b b"])
        cert = build_type2(z2z3, 0, 2, 1, 3, 2)
        assert cert.vertex_count == (2 + 3 - 2) * 2 + 1 == 7
        check_certificate(cert)

    def test_vertex_count_formula(self, f2):
        for c in range(1, 21):
            cert = build_type2(f2, 0, 2, 1, 2, c)
            assert cert.vertex_count == 2 * c + 1

    def test_finite_dihedral_rejected(self):
        d_inf = Presentation.parse(["a", "b"], ["a a", "b b", "a b a b"])
        with pytest.raises(FulfillmentFailed):
            build_type2(d_inf, 0, 2, 1, 2, 2)

    def test_bad_arguments(self, f2):
        with pytest.raises(ValueError):
            build_type2(f2, 0, 1, 1, 2, 2)
        with pytest.raises(ValueError):
            build_type2(f2, 0, 2, 0, 2, 2)
        for a, b in ((0, 2), (-1, 1), (0, -1), (5, 1)):
            with pytest.raises(ValueError, match="^letter index out of range$"):
                build_type2(f2, a, 2, b, 2, 2)
        with pytest.raises(ValueError, match="pair count must be positive"):
            build_type2(f2, 0, 2, 1, 3, 0)


class TestExtendWithLoops:
    def test_free_product_extension(self, f2):
        cert = build_type1(free_presentation(["a"]), 0, 5)
        extended = extend_with_loops(cert, ["b"])
        assert extended.vertex_count == 5
        assert len(extended.graph.presentation.alphabet) == 2
        check_certificate(extended)

    def test_direct_product_relator(self):
        cert = build_type1(free_presentation(["a"]), 0, 5)
        ab = free_presentation(["a", "b"]).alphabet
        commutator = ab.parse_word("a b a^-1 b^-1")
        check_certificate(extend_with_loops(cert, ["b"], [commutator]))

    def test_semidirect_relator(self):
        cert = build_type1(free_presentation(["a"]), 0, 5)
        ab = free_presentation(["a", "b"]).alphabet
        check_certificate(
            extend_with_loops(cert, ["b"], [ab.parse_word("a b a^-1 b^-2")])
        )

    def test_no_extra_letters(self):
        cert = build_type1(free_presentation(["a"]), 0, 5)
        same = extend_with_loops(cert, [])
        assert same.graph._table == cert.graph._table
        assert (same.word, same.vertex_count) == (cert.word, cert.vertex_count)
        assert same.graph.presentation.alphabet == cert.graph.presentation.alphabet

    def test_relator_without_extra_letters_rejected(self):
        cert = build_type1(free_presentation(["a"]), 0, 5)
        # a a advances the circle twice
        with pytest.raises(FulfillmentFailed):
            extend_with_loops(cert, [], [cert.graph.presentation.word("a a")])

    def test_moving_relator_rejected(self):
        cert = build_type1(free_presentation(["a"]), 0, 5)
        ab = free_presentation(["a", "b"]).alphabet
        # b a b^-1 a advances the circle twice; 5 does not divide 2
        with pytest.raises(FulfillmentFailed):
            extend_with_loops(cert, ["b"], [ab.parse_word("b a b^-1 a")])

    def test_the_loops_are_sized_by_the_graph(self, f2):
        # a vertex count that disagrees with the certificate's graph is ignored
        forged = dataclasses.replace(build_type1(f2, 0, 7), vertex_count=5)
        extended = extend_with_loops(forged, ["z"])
        assert (extended.vertex_count, extended.graph.index()) == (7, 7)
        assert extended.graph.coset_table().permutations[2] == tuple(range(7))
        check_certificate(extended)


@pytest.fixture
def z3_factor():
    za = free_presentation(["x"])
    g = free_subgroup_graph(za.alphabet, [za.word("x x x")])
    return subgroup_from_graph(g, za), za.word("x")


@pytest.fixture
def z2_factor():
    zd = free_presentation(["d"])
    g = free_subgroup_graph(zd.alphabet, [zd.word("d d")])
    return subgroup_from_graph(g, zd), zd.word("d")


class TestGlued:
    def test_vertex_count_formula(self, z3_factor, z2_factor):
        (h1, w1), (h2, w2) = z3_factor, z2_factor
        for c in range(1, 21):
            cert = build_glued(GluingSpec(h1, w1, h2, w2, c))
            assert cert.vertex_count == (3 + 2 - 2) * c + 1
            if c <= 4:
                check_certificate(cert)

    def test_rejects_improper_factor(self, z2_factor):
        h2, w2 = z2_factor
        zd = h2.presentation
        whole = coset_enumerate(zd, [zd.word("d")])
        with pytest.raises(GluingInvalid):
            build_glued(GluingSpec(whole, zd.word("d"), h2, w2, 2))

    @pytest.mark.parametrize("pair_count", [0, -1])
    def test_pair_count_must_be_positive(self, z3_factor, z2_factor, pair_count):
        (h1, w1), (h2, w2) = z3_factor, z2_factor
        with pytest.raises(ValueError, match="^pair count must be positive$"):
            GluingSpec(h1, w1, h2, w2, pair_count)

    def test_rejects_bad_coset_word(self, z3_factor, z2_factor):
        (h1, _), (h2, w2) = z3_factor, z2_factor
        # x^2 generates the same cosets but returns early? no: x^2 has
        # order 3 on the circle, so it works; x^3 is in H1 and fails
        bad = h1.presentation.word("x x x")
        with pytest.raises(GluingInvalid):
            build_glued(GluingSpec(h1, bad, h2, w2, 2))

    def test_matches_type2_shape(self, z2_factor):
        # two order-2 factors chained = the (a,2,b,2)-graph
        za = free_presentation(["a"])
        ha = subgroup_from_graph(
            free_subgroup_graph(za.alphabet, [za.word("a a")]), za)
        h2, w2 = z2_factor
        cert = build_glued(GluingSpec(ha, za.word("a"), h2, w2, 2))
        assert cert.vertex_count == 5
        merged = free_presentation(["a", "d"])
        reference = build_type2(merged, 0, 2, 1, 2, 2)
        assert held(cert.graph.graph.graph) == held(reference.graph.graph.graph)


class TestAmalgam:
    def test_empty_identifications_match_glued(self):
        # the free product Z4 * Z4: the factor relators and no others
        pa = Presentation.parse(["a"], ["a a a a"])
        pb = Presentation.parse(["b"], ["b b b b"])
        ha = coset_enumerate(pa, [pa.word("a a")])
        hb = coset_enumerate(pb, [pb.word("b b")])
        spec = GluingSpec(ha, pa.word("a"), hb, pb.word("b"), 2)
        cert = build_glued(spec, [])
        assert held(cert.graph.graph) == held(build_glued(spec).graph.graph)
        assert cert.graph.presentation.relators == (Word([1] * 4), Word([2] * 4))

    def test_identity_identified_with_itself_matches_glued(self, z3_factor, z2_factor):
        # the identity lies in both factor subgroups and adds no relation
        (h1, w1), (h2, w2) = z3_factor, z2_factor
        spec = GluingSpec(h1, w1, h2, w2, 4)
        identified = build_glued(spec, [(Word(), Word())])
        assert held(identified.graph.graph) == held(build_glued(spec).graph.graph)

    def test_z4_amalgam_over_z2(self):
        pa = Presentation.parse(["a"], ["a a a a"])
        pb = Presentation.parse(["b"], ["b b b b"])
        ha = coset_enumerate(pa, [pa.word("a a")])
        hb = coset_enumerate(pb, [pb.word("b b")])
        spec = GluingSpec(ha, pa.word("a"), hb, pb.word("b"), 2)
        cert = build_glued(spec, [(pa.word("a a"), pb.word("b b"))])
        assert cert.vertex_count == 5
        check_certificate(cert)
        assert any(
            r == pa.word("a a") * Word([-2, -2]) for r in cert.graph.presentation.relators
        )

    def test_identification_outside_subgroup(self, z3_factor, z2_factor):
        (h1, w1), (h2, w2) = z3_factor, z2_factor
        spec = GluingSpec(h1, w1, h2, w2, 2)
        x, d = h1.presentation.word, h2.presentation.word
        with pytest.raises(GluingInvalid, match="^identification element is not in the left"):
            build_glued(spec, [(x("x"), d("d d"))])
        with pytest.raises(GluingInvalid, match="^identification image is not in the right"):
            build_glued(spec, [(x("x x x"), d("d"))])


def _wiring_cases():
    f2 = free_presentation(["a", "b"])
    b3 = Presentation.parse(["x", "y"], ["x y x y^-1 x^-1 y^-1"])
    psl = Presentation.parse(["a", "b"], ["a a", "b b b"])
    za, zd = free_presentation(["x"]), free_presentation(["d"])
    h1 = subgroup_from_graph(free_subgroup_graph(za.alphabet, [za.word("x x x")]), za)
    h2 = subgroup_from_graph(free_subgroup_graph(zd.alphabet, [zd.word("d d")]), zd)
    h5 = subgroup_from_graph(free_subgroup_graph(zd.alphabet, [zd.word("d d d d d")]), zd)
    pa = Presentation.parse(["a"], ["a a a a"])
    pb = Presentation.parse(["b"], ["b b b b"])
    ha = coset_enumerate(pa, [pa.word("a a")])
    hb = coset_enumerate(pb, [pb.word("b b")])
    amalgam = GluingSpec(ha, pa.word("a"), hb, pb.word("b"), 2)
    return {
        "type1-1": lambda: build_type1(f2, 0, 1),
        "type1-5": lambda: build_type1(f2, 0, 5),
        "parallel-1": lambda: build_parallel_circles(b3, 1),
        "parallel-5": lambda: build_parallel_circles(b3, 5),
        "type2-psl": lambda: build_type2(psl, 0, 2, 1, 3, 2),
        "glued-z3-z2": lambda: build_glued(GluingSpec(h1, za.word("x"), h2, zd.word("d"), 2)),
        # x^2 and d^2 glue each next copy on at factor vertex 2, not 1
        "glued-z3-z5-squares": lambda: build_glued(
            GluingSpec(h1, za.word("x x"), h5, zd.word("d d"), 2)),
        "amalgam-z4-z4": lambda: build_glued(amalgam, [(pa.word("a a"), pb.word("b b"))]),
    }


# Literal tables and orbits: they pin where each circle or factor copy is
# glued on, which the regularity, fulfillment and sweep checks above do not.
WIRING = {
    "type1-1": (((0,), (0,)), (0,)),
    "type1-5": (((1, 3, 0, 4, 2), (0, 1, 2, 3, 4)), (0, 1, 3, 4, 2)),
    "parallel-1": (((0,), (0,)), (0,)),
    "parallel-5": (((1, 3, 0, 4, 2), (1, 3, 0, 4, 2)), (0, 1, 3, 4, 2)),
    "type2-psl": (((1, 0, 4, 3, 2, 5, 6), (0, 2, 3, 1, 5, 6, 4)), (0, 2, 5, 6, 4, 3, 1)),
    "glued-z3-z2": (((1, 2, 0, 4, 5, 3, 6), (0, 3, 2, 1, 6, 5, 4)), (0, 3, 6, 4, 5, 1, 2)),
    "glued-z3-z5-squares": (((1, 2, 0, 3, 4, 7, 6, 8, 5, 9, 10, 11, 12),
                             (0, 1, 3, 5, 2, 6, 4, 7, 9, 11, 8, 12, 10)),
                            (0, 5, 11, 10, 9, 12, 8, 7, 4, 3, 6, 2, 1)),
    "amalgam-z4-z4": (((1, 0, 3, 2, 4), (0, 2, 1, 4, 3)), (0, 2, 4, 3, 1)),
}


@pytest.mark.parametrize("name", sorted(WIRING))
def test_chain_wiring_is_pinned(name):
    cert = _wiring_cases()[name]()
    assert (cert.graph.coset_table().permutations, cert.orbit) == WIRING[name]
    assert held(cert.graph.graph) == rechecked(cert.graph.graph)


class TestCertify:
    def test_circle(self, f2):
        cert = build_type1(f2, 0, 5)
        assert sorted(certify(cert.graph, Word([1])).orbit) == [0, 1, 2, 3, 4]

    def test_wrong_word(self, f2):
        cert = build_type2(f2, 0, 2, 1, 2, 2)
        with pytest.raises(GluingInvalid):
            certify(cert.graph, Word([1]))  # a alone has period 2 on the chain
        assert len(certify(cert.graph, Word([1, 2])).orbit) == 5


class TestCoprimeCertificate:
    @pytest.fixture
    def index3(self, f2):
        # the index-3 subgroup of F(a, b) containing a^3 and all b-conjugates
        gens = ["a a a", "b", "a b a^-1", "a a b a^-1 a^-1"]
        return coset_enumerate(f2, [f2.word(t) for t in gens])

    def test_free_group_instance(self, f2, index3):
        cert = build_type1(f2, 0, 5)
        assert verify_coprime_certificate(cert, index3, 3)

    def test_gcd_precondition(self, f2):
        cert = build_type1(f2, 0, 5)
        with pytest.raises(ValueError):
            verify_coprime_certificate(cert, cert.graph, 5)

    @pytest.mark.parametrize("m", [0, -3])
    def test_power_must_be_positive(self, f2, index3, m):
        with pytest.raises(ValueError, match="^the power m must be positive$"):
            verify_coprime_certificate(build_type1(f2, 0, 5), index3, m)

    def test_presentation_mismatch(self, f2):
        # the index3 subgroup over <a, b | b^2>: it contains a^3, but its
        # presentation is not the certificate's
        z2_b = Presentation.parse(["a", "b"], ["b b"])
        gens = ["a a a", "b", "a b a^-1", "a a b a^-1 a^-1"]
        other = coset_enumerate(z2_b, [z2_b.word(t) for t in gens])
        assert other.index() == 3 and other.contains(Word([1, 1, 1]))
        with pytest.raises(PresentationMismatch):
            verify_coprime_certificate(build_type1(f2, 0, 5), other, 3)

    def test_membership_precondition(self, f2, index3):
        cert = build_type1(f2, 0, 5)
        with pytest.raises(ValueError):
            verify_coprime_certificate(cert, index3, 2)  # a^2 not in it

    def test_p_is_read_from_the_graph(self, f2, index3):
        # a vertex count that disagrees with the certificate's graph is ignored
        forged = dataclasses.replace(build_type1(f2, 0, 7), vertex_count=5)
        assert verify_coprime_certificate(forged, index3, 3)
        with pytest.raises(ValueError, match="^m = 7 and p = 7 are not coprime$"):
            verify_coprime_certificate(forged, forged.graph, 7)


class TestPrimes:
    def test_is_prime_small(self):
        primes_below_60 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                           43, 47, 53, 59}
        for n in range(60):
            assert is_prime(n) == (n in primes_below_60)

    def test_is_prime_large(self):
        assert is_prime(2 ** 61 - 1)
        assert not is_prime(2 ** 61 + 1)

    def test_chain_primes(self):
        assert list(chain_primes(3, 3)) == [(2, 7), (4, 13), (6, 19)]
        for step in (0, -2):
            with pytest.raises(ValueError, match="^step must be positive$"):
                next(chain_primes(step, 3))

    def test_is_prime_agrees_with_a_sieve(self):
        n = 20_000
        sieve = bytearray([1]) * n
        sieve[:2] = b"\0\0"
        for q in range(2, int(n ** 0.5) + 1):
            if sieve[q]:
                sieve[q * q::q] = bytes(len(range(q * q, n, q)))
        assert [m for m in range(n) if is_prime(m)] == [m for m in range(n) if sieve[m]]
        assert sum(sieve) == 2262

    @pytest.mark.parametrize("n", [1373653, 25326001, 3215031751, 2152302898747,
                                   3474749660383, 341550071728321, 3825123056546413051])
    def test_strong_pseudoprimes_are_composite(self, n):
        # each is a strong pseudoprime to every prime base up to some bound,
        # so only a later witness of the Miller-Rabin loop rejects it
        assert not is_prime(n)

    def test_admissible_primes(self):
        assert [m for _, m in chain_primes(1, 4, 3)] == [3, 5, 7, 11]
        assert [m for _, m in chain_primes(2, 3, 3)] == [3, 5, 7]
        assert [m for _, m in chain_primes(3, 3, 7)] == [7, 13, 19]


# The sweep as it was before it stepped through the word's permutation:
# one trace of the reduced word per vertex.
def trace_sweep(trace_from, w, base, n):
    w = free_reduce(w)
    orbit = [base]
    v = base
    for _ in range(n):
        v = trace_from(v, w)
        if v is None:
            return False, orbit
        orbit.append(v)
    ok = len(set(orbit[:n])) == n and orbit[n] == base
    return ok, orbit[:n]


def graph_sweep(g, w):
    """``trace_sweep`` along the edges of a based X-graph."""
    return trace_sweep(lambda v, w: trace(g.graph, v, w), w, g.base, g.vertex_count)


def _sweep_graphs():
    """Enumerated classes of small index over free, modular and braid
    presentations, and type 1 certificates."""
    f2 = free_presentation(["a", "b"])
    psl = Presentation.parse(["a", "b"], ["a a", "b b b"])
    b3 = Presentation.parse(["x", "y"], ["x y x y^-1 x^-1 y^-1"])
    graphs = [sg for presentation, n in ((f2, 3), (f2, 4), (psl, 6), (b3, 4))
              for sg in enumerate_graphs(EnumerationTask(presentation, n))]
    graphs += [build_type1(f2, letter, p).graph for letter in (0, 1) for p in (1, 2, 7, 11)]
    return graphs


def _sweep_words(rng):
    """The empty word, single letters and their inverses, and random words,
    half of them with a cancelling pair spliced in."""
    words = [Word(), Word([1]), Word([-1]), Word([2]), Word([-2]), Word([1, -1])]
    for _ in range(8):
        letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.5:
            i, lt = rng.randint(0, len(letters)), rng.choice([1, -1, 2, -2])
            letters[i:i] = [lt, -lt]
        words.append(Word(letters))
    return words


def test_sweep_matches_the_trace_per_vertex_reference():
    rng = random.Random(2003)
    pairs = sweeping = 0
    for sg in _sweep_graphs():
        assert held(sg.graph) == rechecked(sg.graph)
        for w in _sweep_words(rng):
            expected = trace_sweep(sg.trace, w, sg.base, sg.index())
            assert graph_sweep(sg.graph, w) == expected
            if expected[0]:
                assert _orbit(sg, w, "") == certify(sg, w).orbit == tuple(expected[1])
            else:
                with pytest.raises(GluingInvalid, match="^no sweep$"):
                    _orbit(sg, w, "no sweep")
                with pytest.raises(GluingInvalid):
                    certify(sg, w)
            pairs += 1
            sweeping += expected[0]
    assert pairs >= 1500 and 300 <= sweeping <= pairs - 300, (pairs, sweeping)


def test_a_foreign_letter_is_an_alphabet_mismatch(f2):
    sg = build_type1(f2, 0, 5).graph
    for w in (Word([3]), Word([1, -3]), Word([-3, 2, 2]), Word([1, 3, -3])):
        with pytest.raises(AlphabetMismatch, match="^word uses letters outside the alphabet$"):
            certify(sg, w)


def test_the_gluing_messages_are_pinned(f2, z3_factor, z2_factor):
    with pytest.raises(GluingInvalid, match="^powers of the word do not sweep the "
                                            "vertices from the base$"):
        certify(build_type2(f2, 0, 2, 1, 2, 2).graph, Word([1]))
    (h1, w1), (h2, w2) = z3_factor, z2_factor
    for spec, side in ((GluingSpec(h1, w1 ** 3, h2, w2, 2), "left"),
                       (GluingSpec(h1, w1, h2, w2 ** 2, 2), "right")):
        with pytest.raises(GluingInvalid, match=f"^powers of the {side} word are not a full "
                                                f"set of coset representatives of the "
                                                f"{side} factor$"):
            build_glued(spec)

