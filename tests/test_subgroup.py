import random

import pytest

from stallings import (
    Alphabet,
    AlphabetMismatch,
    BasedXGraph,
    CosetLimitExceeded,
    EnumerationTask,
    FulfillmentFailed,
    Presentation,
    PresentationMismatch,
    SubgroupGraph,
    Word,
    XGraph,
    build_type1,
    build_type2,
    coset_enumerate,
    enumerate_graphs,
    free_basis,
    free_presentation,
    free_reduce,
    fulfills,
    subgroup_from_graph,
)
from stallings import subgroup
from stallings.subgroup import _Enumeration, _bfs, _layout, _relator_violation, _table
from test_coset_enumeration import GROUPS, canonical_rows, symmetric, with_involutions

XY_PRES = Presentation.parse(["x", "y"], ["x x", "y y", "x y x y x y"])

GAMMA = XGraph(XY_PRES.alphabet, 3,
               [(0, 0, 1), (1, 0, 0), (2, 0, 2),
                (0, 1, 0), (1, 1, 2), (2, 1, 1)])
GAMMA_PRIME = XGraph(XY_PRES.alphabet, 4,
                     [(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 0),
                      (0, 1, 3), (1, 1, 0), (2, 1, 2), (3, 1, 1)])


class TestFulfillment:
    def test_reference_examples(self):
        assert fulfills(GAMMA, XY_PRES)
        p2 = Presentation.parse(["x", "y"], ["x x x x", "y y y", "x y x y"])
        assert fulfills(GAMMA_PRIME, p2)

    def test_violation_reported(self):
        bad = Presentation.parse(["x", "y"], ["x y x y"])
        assert not fulfills(GAMMA, bad)
        with pytest.raises(FulfillmentFailed) as raised:
            subgroup_from_graph(BasedXGraph(GAMMA, 0), bad)
        v, r, t = raised.value.vertex, raised.value.relator, raised.value.terminus
        assert t != v
        assert r == bad.relators[0]

    def test_requires_regular(self):
        for edges in ([(0, 0, 1)],  # too few edges
                      # the full edge count, but two x-edges out of 0 and none out of 1
                      [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 1)],
                      # the full edge count, but two x-edges into 0
                      [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)]):
            g = XGraph(XY_PRES.alphabet, 2, edges)
            with pytest.raises(ValueError, match="not X-regular"):
                fulfills(g, XY_PRES)
            with pytest.raises(ValueError, match="not X-regular"):
                subgroup_from_graph(BasedXGraph(g, 0), XY_PRES)

    def test_alphabet_checked(self):
        other = free_presentation(["a", "b"])
        with pytest.raises(AlphabetMismatch):
            fulfills(GAMMA, other)

    def test_the_alphabet_is_checked_first_with_a_pinned_message(self):
        # a graph over other letters is reported as such, regular or not
        ab = free_presentation(["a", "b"])
        for g in (GAMMA, XGraph(XY_PRES.alphabet, 2, [(0, 0, 1)])):
            for f in (fulfills, lambda g, p: subgroup_from_graph(BasedXGraph(g, 0), p)):
                with pytest.raises(AlphabetMismatch) as e:
                    f(g, ab)
                assert str(e.value) == "graph and presentation alphabets differ"
        sg = subgroup_from_graph(BasedXGraph(GAMMA, 0), XY_PRES)
        other = coset_enumerate(ab, [Word([1]), Word([2])])
        for check in (sg.isomorphic_based_to, sg.isomorphic_unbased_to):
            with pytest.raises(AlphabetMismatch) as e:
                check(other)
            assert str(e.value) == "graphs live over different alphabets"


class TestSubgroupFromGraph:
    def test_accepts_and_canonicalizes(self):
        sg = subgroup_from_graph(BasedXGraph(GAMMA, 2), XY_PRES)
        assert sg.base == 0
        assert sg.index() == 3

    def test_rejects_unfulfilling(self):
        bad = Presentation.parse(["x", "y"], ["x y x y"])
        with pytest.raises(FulfillmentFailed):
            subgroup_from_graph(BasedXGraph(GAMMA, 0), bad)

    def test_rejects_irregular(self):
        g = XGraph(XY_PRES.alphabet, 2, [(0, 0, 1)])
        with pytest.raises(ValueError):
            subgroup_from_graph(BasedXGraph(g, 0), XY_PRES)

    def test_rejects_disconnected(self):
        g = XGraph(XY_PRES.alphabet, 2,
                   [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)])
        for base in (0, 1):
            with pytest.raises(ValueError, match="not connected"):
                subgroup_from_graph(BasedXGraph(g, base), XY_PRES)
        # the base reaches a vertex before it, not the third one
        g = XGraph(XY_PRES.alphabet, 3,
                   [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 0, 2), (2, 1, 2)])
        with pytest.raises(ValueError, match="not connected"):
            subgroup_from_graph(BasedXGraph(g, 1), XY_PRES)


class TestCosetEnumeration:
    def test_trivial_subgroup_gives_group_order(self, s3):
        assert coset_enumerate(s3).index() == 6

    def test_generated_subgroups(self, s3):
        assert coset_enumerate(s3, [s3.word("s1")]).index() == 3
        assert coset_enumerate(s3, [s3.word("s1 s2")]).index() == 2

    def test_whole_group(self, s3):
        sg = coset_enumerate(s3, [s3.word("s1"), s3.word("s2")])
        assert sg.index() == 1

    def test_q8_order(self, q8):
        assert coset_enumerate(q8).index() == 8

    def test_free_group_finite_index(self, f2):
        # <a^2, b, aba^-1> has index 2 in F(a, b)
        gens = [f2.word(t) for t in ("a a", "b", "a b a^-1")]
        assert coset_enumerate(f2, gens).index() == 2

    def test_infinite_index_hits_limit(self, f2):
        with pytest.raises(CosetLimitExceeded):
            coset_enumerate(f2, [f2.word("a")], max_cosets=50)

    def test_deterministic(self, s3):
        a = coset_enumerate(s3, [s3.word("s1")])
        b = coset_enumerate(s3, [s3.word("s1")])
        assert a.coset_table() == b.coset_table()
        assert a.coset_reps == b.coset_reps

    def test_foreign_generator_rejected(self, s3):
        # checked as given, before the enumeration: foreign letters that cancel too
        for w in (Word([5]), Word([5, -5]), Word([1, 3, -3])):
            with pytest.raises(AlphabetMismatch, match="^subgroup generator outside the alphabet$"):
                coset_enumerate(s3, [w])


class TestSubgroupCalculus:
    def test_membership(self, s3):
        sg = coset_enumerate(s3, [s3.word("s1")])
        assert sg.contains(s3.word("s1"))
        assert sg.contains(s3.word("s1 s1 s1"))
        assert not sg.contains(s3.word("s2"))
        assert not sg.contains(s3.word("s2 s1 s2"))

    def test_trace_rejects_a_start_outside_the_graph(self, s3):
        sg = coset_enumerate(s3, [s3.word("s1")])
        assert sg.trace(sg.index() - 1, Word()) == sg.index() - 1
        for start in (-1, sg.index()):
            with pytest.raises(ValueError, match="out of range"):
                sg.trace(start, s3.word("s2"))

    def test_trace_rejects_letters_outside_the_alphabet(self, s3):
        # a word is checked as given: foreign letters that cancel are foreign too
        sg = coset_enumerate(s3, [s3.word("s1")])
        for w in (Word([5]), Word([1, -3]), Word([5, -5]), Word([1, 2, 5, -5])):
            for check in (lambda w: sg.trace(0, w), sg.contains, sg._step):
                with pytest.raises(AlphabetMismatch,
                                   match="^word uses letters outside the alphabet$"):
                    check(w)

    def test_trace_ends_where_the_reduced_word_ends(self, s3):
        # each column pair is a permutation and its inverse
        rng = random.Random(3030)
        sg = coset_enumerate(s3, [s3.word("s1")])
        for _ in range(500):
            w = Word(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 12)))
            assert sg._step(w) == sg._step(free_reduce(w)), w
            for v in range(sg.index()):
                assert sg.trace(v, w) == sg.trace(v, free_reduce(w)), (v, w)

    def test_membership_reduces_first(self, s3):
        sg = coset_enumerate(s3, [s3.word("s1")])
        assert sg.contains(s3.word("s2 s2^-1 s1"))

    def test_coset_reps_land_on_their_vertices(self, s3):
        sg = coset_enumerate(s3, [s3.word("s1")])
        for v, rep in enumerate(sg.coset_reps):
            assert sg.trace(0, rep) == v

    def test_coset_table_is_permutations(self, s3):
        sg = coset_enumerate(s3, [s3.word("s1")])
        for perm in sg.coset_table().permutations:
            assert sorted(perm) == list(range(sg.index()))

    def test_free_basis_closes(self, s3):
        sg = coset_enumerate(s3, [s3.word("s1")])
        basis = sg.free_basis()
        # rank = |E| - |V| + 1
        assert len(basis) == 6 - 3 + 1
        for w in basis:
            assert sg.contains(w)

    def test_generators_regenerate(self, s3):
        sg = coset_enumerate(s3, [s3.word("s1")])
        again = coset_enumerate(s3, sg.generators())
        assert sg.coset_table() == again.coset_table()

    def test_conjugacy(self, s3):
        h = coset_enumerate(s3, [s3.word("s1")])
        k = coset_enumerate(s3, [s3.word("s2")])
        g = h.conjugate(k)
        assert g is not None
        # h = g k g^-1: every conjugated generator of k lands in h
        for w in k.generators():
            assert h.contains(g * w * g.inverse())

    def test_not_conjugate(self, s3):
        h = coset_enumerate(s3, [s3.word("s1")])
        k = coset_enumerate(s3, [s3.word("s1 s2")])
        assert h.conjugate(k) is None

    def test_conjugate_requires_same_presentation(self, s3, d3):
        h = coset_enumerate(s3, [s3.word("s1")])
        k = coset_enumerate(d3, [d3.word("a")])
        with pytest.raises(PresentationMismatch):
            h.conjugate(k)

    def test_normality(self, s3):
        rotation = coset_enumerate(s3, [s3.word("s1 s2")])
        reflection = coset_enumerate(s3, [s3.word("s1")])
        assert rotation.is_normal()
        assert not reflection.is_normal()

    def test_normalizer_of_self_normalizing(self, s3):
        reflection = coset_enumerate(s3, [s3.word("s1")])
        reps, n = reflection.normalizer()
        assert len(reps) == 1
        assert n.coset_table() == reflection.coset_table()

    def test_normalizer_of_normal(self, s3):
        rotation = coset_enumerate(s3, [s3.word("s1 s2")])
        reps, n = rotation.normalizer()
        assert len(reps) == rotation.index()
        assert n.index() == 1

    def test_q8_all_subgroups_normal(self, q8):
        # every subgroup of the quaternion group is normal
        for text in ("a", "b", "a b", "a a"):
            assert coset_enumerate(q8, [q8.word(text)]).is_normal()


S5 = symmetric(5)
S5_SUBGROUPS = [[], ["s1"], ["s1 s2"], ["s1", "s3"], ["s1", "s2"], ["s1 s2 s3 s4"],
                ["s2 s1 s4", "s2"], ["s3 s2 s4 s3 s4", "s4 s2 s2"], ["s1 s2", "s2 s3", "s3 s4"]]
T237 = Presentation.parse(["a", "b"], ["a a", "b b b", " ".join(["a b"] * 7)])


def _renumbered(table: dict, base: int = 0) -> tuple[dict, list]:
    """The canonical table and Schreier vector by renumbering every row with
    ``canonical_rows`` and reading the tree edges off the renumbered rows."""
    rows = list(canonical_rows(table.values(), [base]))
    parent = [None]
    for i, row in enumerate(rows):
        for lt, t in zip(table, row):
            if t == len(parent):
                parent.append((i, lt))
    return dict(zip(table, zip(*rows))), parent


def _relabeled(forward, sigma):
    """The forward columns with vertex v renamed sigma[v]."""
    out = [[0] * len(sigma) for _ in forward]
    for new, col in zip(out, forward):
        for v, t in enumerate(col):
            new[sigma[v]] = sigma[t]
    return out


class TestCanonicalCheck:
    """A table already numbered by BFS from the base is kept as it is, any
    other is renumbered; both must give the same table and Schreier vector
    as renumbering every row."""

    @pytest.mark.parametrize("pres, n", [(free_presentation(["a", "b"]), 6), (T237, 21)])
    def test_search_classes_match_renumbering(self, pres, n):
        classes = enumerate_graphs(EnumerationTask(pres, n))
        assert len(classes) == {6: 3447, 21: 189}[n]
        for sg in classes:
            # the search's tables skip the constructor's checks, which run here
            assert sg._parent is None
            reps = sg.coset_reps  # builds the Schreier vector
            order, new, parent = _bfs(sg._table, 0, None, _layout(pres).letters)
            assert order == new == list(range(n)) and parent == sg._parent
            assert _renumbered(sg._table) == (sg._table, sg._parent)
            again = SubgroupGraph(pres, sg.coset_table().permutations)
            assert (again._table, again._parent) == (sg._table, sg._parent)
            assert list(again._table) == list(sg._table)
            assert again.coset_reps == reps and again.free_basis() == sg.free_basis()

    def test_canonical_entry_raises_the_constructors_witness(self):
        """``_canonical`` checks the relators as the constructor does: on
        every class of F2 at index 4 and 6, read over (2,3,7) and over
        XY_PRES, both accept the same tables or raise the same witness.  A
        table whose involution's column is not its own inverse has no
        ``_Layout`` columns; the constructor rejects it at that ``s s``."""
        f2 = free_presentation(["a", "b"])
        tables = [sg.coset_table().permutations for n in (4, 6)
                  for sg in enumerate_graphs(EnumerationTask(f2, n))]
        failed = 0
        for pres in (T237, XY_PRES):
            letters = _layout(pres).letters
            for forward in tables:
                table = _table(forward, 2)
                if any(table[lt] != table[-lt] for lt in letters if -lt not in letters):
                    with pytest.raises(FulfillmentFailed) as got:
                        SubgroupGraph(pres, forward)
                    assert len(got.value.relator) == 2
                    failed += 1
                    continue
                columns = [table[lt] for lt in letters]
                try:
                    expected = SubgroupGraph(pres, forward)
                except FulfillmentFailed as e:
                    with pytest.raises(FulfillmentFailed) as got:
                        SubgroupGraph._canonical(pres, columns)
                    witness = (got.value.vertex, got.value.relator, got.value.terminus)
                    assert witness == (e.vertex, e.relator, e.terminus)
                    assert str(got.value) == str(e)
                    failed += 1
                else:
                    sg = SubgroupGraph._canonical(pres, columns)
                    assert sg._table == expected._table
        assert 0 < failed < 2 * len(tables)

    @pytest.mark.parametrize("gens", S5_SUBGROUPS)
    def test_coset_enumeration_matches_renumbering(self, gens):
        enum = _Enumeration(S5)
        enum.run([S5.word(w) for w in gens], 1000)
        forward = enum.forward_columns()
        sg = SubgroupGraph(S5, forward)
        assert (sg._table, sg._parent) == _renumbered(_table(forward, 4))
        assert coset_enumerate(S5, [S5.word(w) for w in gens])._table == sg._table

    @pytest.mark.parametrize("gens", S5_SUBGROUPS[:6])
    def test_relabeled_table_is_renumbered(self, gens):
        sg = coset_enumerate(S5, [S5.word(w) for w in gens])
        n = sg.index()
        rng = random.Random(n)
        for _ in range(5):
            rest = list(range(1, n))
            rng.shuffle(rest)
            # vertex 0 renamed 0, so still the base, then renamed rest[0]
            for sigma in ([0] + rest, rest + [0]):
                forward = _relabeled(sg.coset_table().permutations, sigma)
                order, new, parent = _bfs(_table(forward, 4), sigma[0], None, _layout(S5).letters)
                # so order is 0..n-1 only for the identity, the one canonical relabeling
                assert order == sigma and [new[v] for v in sigma] == list(range(n))
                assert parent == sg._parent
                again = SubgroupGraph(S5, forward, base=sigma[0])
                assert (again._table, again._parent) == (sg._table, sg._parent)

    @pytest.mark.parametrize("gens", S5_SUBGROUPS[1:6])
    def test_bfs_compares_with_a_target(self, gens):
        """Given a target, ``_bfs`` returns what it returns without one if
        the renumbered table equals the target, else None."""
        sg = coset_enumerate(S5, [S5.word(w) for w in gens])
        n = sg.index()
        sigma = list(range(n))
        random.Random(n).shuffle(sigma)
        relabeled = _table(_relabeled(sg.coset_table().permutations, sigma), 4)
        letters = _layout(S5).letters
        found = _bfs(relabeled, sigma[0], sg._table, letters)
        assert found == _bfs(relabeled, sigma[0], None, letters) and found[0] == sigma
        for lt in letters:  # one entry of the last row changed, in each column compared
            col = list(sg._table[lt])
            col[-1] = (col[-1] + 1) % n
            assert _bfs(relabeled, sigma[0], {**sg._table, lt: tuple(col)}, letters) is None


class TestForwardGuards:
    """Bad forward columns are rejected, and so is a base outside the table."""

    @pytest.mark.parametrize("forward", [
        [[1, 1, 0], [0, 2, 1]],         # x is not a permutation
        [[1, 0, 2], [0, 2]],            # a short column
        [[1, 0, 2], [0, 2, 1], [0, 1, 2]],  # a column too many
        [[1, 0, 3], [0, 2, 1]],         # an entry out of range
        [[1, 0, -1], [0, 2, 1]],        # -1 standing for vertex 2
    ])
    def test_irregular_columns_are_rejected(self, forward):
        with pytest.raises(ValueError, match="not X-regular"):
            SubgroupGraph(XY_PRES, forward)

    def test_disconnected_columns_are_rejected(self):
        with pytest.raises(ValueError, match="not connected"):
            SubgroupGraph(XY_PRES, [[0, 2, 1], [0, 2, 1]])

    @pytest.mark.parametrize("forward, base", [
        ([[1, 0]], -1),  # would index vertex 1 from the end
        ([[0, 1]], 5),
        ([[]], 0),       # no vertex at all
    ])
    def test_base_outside_the_table_is_rejected(self, forward, base):
        with pytest.raises(ValueError, match="base vertex"):
            SubgroupGraph(free_presentation(["a"]), forward, base=base)

    def test_relator_failure_is_reported(self):
        # x a 3-cycle, y the identity: x x fails at the base
        with pytest.raises(FulfillmentFailed):
            SubgroupGraph(XY_PRES, [[1, 2, 0], [0, 1, 2]])

    def test_connectivity_is_checked_before_the_relators(self):
        """The BFS scans one column of ``a`` over <a | a a>, also on tables
        that fail ``a a``: a 3-cycle is connected and fails it with the
        witness in the given numbering, from any base, and a disconnected
        table is reported as such whether it fulfills ``a a`` or not."""
        z2 = Presentation.parse(["a"], ["a a"])
        assert _layout(z2).letters == [1]
        for forward, base, terminus in (([1, 2, 0], 0, 2), ([1, 2, 0], 1, 2), ([2, 0, 1], 2, 1)):
            with pytest.raises(FulfillmentFailed) as e:
                SubgroupGraph(z2, [forward], base)
            assert (e.value.vertex, e.value.relator, e.value.terminus) == (0, z2.relators[0],
                                                                         terminus)
            assert str(e.value) == ("relator does not close: tracing from vertex 0 ends at "
                                    f"vertex {terminus}")
        for forward in ([1, 0, 2], [1, 2, 0, 3]):
            with pytest.raises(ValueError, match="^graph is not connected$"):
                SubgroupGraph(z2, [forward])


def reference_violation(table, relators):
    """The relator check before powers: each relator traced letter by letter
    from every vertex at once, relators outer and vertices inner."""
    identity = list(range(len(table[1])))
    for r in relators:
        ends = identity
        for lt in r:
            col = table[lt]
            ends = [col[v] for v in ends]
        if ends != identity:
            v = next(v for v, t in enumerate(ends) if t != v)
            return (v, r, ends[v])
    return None


def random_relator(rng, k):
    """A freely reduced relator over k letters: ``s s`` or ``s^-1 s^-1``, a
    power of a word of one to three letters, a random word, or a conjugate,
    so some are not cyclically reduced."""
    def word(length):
        return [rng.choice([1, -1]) * rng.randint(1, k) for _ in range(length)]
    while True:
        kind = rng.randrange(4)
        if kind == 0:
            letters = [rng.choice([1, -1]) * rng.randint(1, k)] * 2
        elif kind == 1:
            letters = word(rng.randint(1, 3)) * rng.randint(2, 7)
        elif kind == 2:
            letters = word(rng.randint(1, 6))
        else:
            u = Word(word(rng.randint(1, 2)))
            letters = (u * Word(word(rng.randint(1, 3)) * rng.randint(1, 3)) * u.inverse()).letters
        r = free_reduce(Word(letters))
        if len(r):
            return r


def random_guard_case(rng):
    """A presentation over 1-3 generators and a random permutation table on
    1-8 vertices, some generators fixed or involutions.  Most relators are
    drawn until one holds, so that failures reach the later positions."""
    k, n = rng.randint(1, 3), rng.randint(1, 8)
    forward = []
    for _ in range(k):
        p = list(range(n))
        shape = rng.randrange(4)
        if shape == 1:  # an involution
            for i in range(0, rng.randint(0, n // 2) * 2, 2):
                p[i], p[i + 1] = p[i + 1], p[i]
        elif shape > 1:
            rng.shuffle(p)
        forward.append(p)
    table = _table(forward, k)
    relators = []
    for _ in range(rng.randint(1, 4)):
        for _ in range(30):
            r = random_relator(rng, k)
            if rng.random() < 0.25 or reference_violation(table, [r]) is None:
                break
        relators.append(r)
    return Presentation(Alphabet(["a", "b", "c"][:k]), relators), table


class TestRelatorGuard:
    """``_relator_violation`` checks each relator as a power of its root,
    and ``s s`` as s equal to its inverse, and must give the witness of the
    letter-by-letter trace."""

    def test_powers_of_the_layout(self):
        pres = Presentation.parse(["x", "y"], ["x x", "y^-1 y^-1", "x y x y x y x y x y x y x y",
                                               "x y y x^-1", "x^6", "x y x y^-1"])
        assert [(root, e) for _, root, e in _layout(pres).powers] == [
            ((1,), 2), ((-2,), 2), ((1, 2), 7), ((1, 2, 2, -1), 1), ((1,), 6), ((1, 2, 1, -2), 1)]
        assert all(r.letters == root * e for r, root, e in _layout(pres).powers)

    def test_a6_on_a_four_cycle(self):
        pres = Presentation.parse(["a"], ["a^6"])
        table = _table([[1, 2, 3, 0]], 1)
        witness = (0, pres.relators[0], 2)
        assert _relator_violation(table, pres) == reference_violation(table, pres.relators)
        assert _relator_violation(table, pres) == witness
        assert _relator_violation(_table([[1, 0, 3, 2]], 1), pres) is None

    def test_matches_the_letter_by_letter_reference(self):
        rng = random.Random(19)
        holds = 0
        failed_at, kinds = set(), dict.fromkeys(["s s", "s^-1 s^-1", "power", "conjugate"], 0)
        for _ in range(2500):
            pres, table = random_guard_case(rng)
            expected = reference_violation(table, pres.relators)
            assert _relator_violation(table, pres) == expected, (pres, table)
            if expected is None:
                holds += 1
                continue
            r = expected[1]
            failed_at.add(pres.relators.index(r))
            root, e = next((root, e) for s, root, e in _layout(pres).powers if s == r)
            if len(r) == 2 and r[0] == r[1]:
                kinds["s s" if r[0] > 0 else "s^-1 s^-1"] += 1
            elif e > 1 and len(root) > 1:
                kinds["power"] += 1
            elif r[0] == -r[-1]:
                kinds["conjugate"] += 1
        assert failed_at == {0, 1, 2, 3}
        assert holds >= 300 and min(kinds.values()) >= 50, (holds, kinds)


def all_columns_bfs(table, base, target=None):
    """``_bfs`` as it was before it took the letters to scan: every column
    of the table, in table order, each row compared with ``target``'s row
    over every column."""
    columns = list(table.items())
    new = [-1] * len(columns[0][1])
    new[base] = 0
    order, parent = [base], [None]
    rows = None if target is None else zip(*target.values())
    for i, v in enumerate(order):
        if rows is None and len(order) == len(new):
            break
        for lt, col in columns:
            t = col[v]
            if new[t] < 0:
                new[t] = len(order)
                order.append(t)
                parent.append((i, lt))
        if rows is not None and tuple([new[col[v]] for _, col in columns]) != next(rows):
            return None
    return order, new, parent


A2 = Presentation.parse(["a", "b", "c"],
                        ["a a", "b b", "c c", "a b a b a b", "b c b c b c", "a c a c a c"])
MODULAR = Presentation.parse(["a", "b"], ["a a", "b b b"])  # PSL(2, Z)
Z_Z3 = Presentation.parse(["a", "b"], ["b b b"])  # MODULAR without a a


def walk_pools(random_presentation):
    """Subgroup pools whose generators are all or partly involutions: the
    S5 subgroups above, every A~2 class to index 6, every D4 class, and
    the first ten classes at each index to 4 of 40 seeded random
    presentations, half of them with ``s s`` or ``s^-1 s^-1`` added for
    random generators."""
    pools = [[coset_enumerate(S5, [S5.word(w) for w in gens]) for gens in S5_SUBGROUPS],
             [sg for n in range(1, 7) for sg in enumerate_graphs(EnumerationTask(A2, n))],
             [sg for n in (1, 2, 4, 8)
              for sg in enumerate_graphs(EnumerationTask(GROUPS["D4"], n))]]
    rng = random.Random(24)
    while len(pools) < 43:
        pres = random_presentation(rng, rng.randint(1, 3))
        if len(pools) % 2:
            pres = with_involutions(rng, pres)
        pools.append([sg for n in range(1, 5)
                      for sg in enumerate_graphs(EnumerationTask(pres, n))[:10]])
    return pools


def calculus(pool):
    """Per subgroup, rebuilt through the constructor from its forward
    columns: its table, Schreier vector, coset representatives, free basis,
    normality and normalizer, and per subgroup of the pool of its index,
    conjugacy and unbased isomorphism."""
    pool = [SubgroupGraph(sg.presentation, sg.coset_table().permutations) for sg in pool]
    answers = []
    for h in pool:
        reps, normalizer = h.normalizer()
        answers.append((h._table, h.coset_reps, h._parent, h.free_basis(), h.is_normal(), reps,
                        normalizer._table, normalizer.coset_reps,
                        [(h.conjugate(k), h.isomorphic_unbased_to(k))
                         for k in pool if k.index() == h.index()]))
    return answers


class TestOneColumnPerInvolution:
    """``_bfs`` scans the layout's letters, one column per involution; the
    walks must answer as the all-columns BFS did."""

    def test_bfs_matches_all_columns(self, random_presentation):
        involutions = 0
        for pool in walk_pools(random_presentation):
            for h in pool:
                letters = _layout(h.presentation).letters
                involutions += len(letters) < len(h._table)
                for v in range(h.index()):
                    assert _bfs(h._table, v, None, letters) == all_columns_bfs(h._table, v)
                    for k in pool:
                        if k.index() == h.index():
                            assert (_bfs(h._table, v, k._table, letters)
                                    == all_columns_bfs(h._table, v, k._table))
        assert involutions >= 150

    def test_calculus_matches_all_columns(self, random_presentation, monkeypatch):
        pools = walk_pools(random_presentation)
        got = [calculus(pool) for pool in pools]
        monkeypatch.setattr(subgroup, "_bfs",
                            lambda table, base, target=None, letters=(): all_columns_bfs(
                                table, base, target))
        assert got == [calculus(pool) for pool in pools]
        assert sum(a[4] for answers in got for a in answers) >= 100  # normal
        assert sum(g is not None for answers in got for a in answers for g, _ in a[-1]) >= 300

    def test_constructor_matches_all_columns_on_tables_failing_relators(self, monkeypatch):
        """Random permutation tables, many failing ``s s`` or disconnected,
        from every base: the same table, or the same error and witness."""
        def outcome(pres, forward, base):
            try:
                sg = SubgroupGraph(pres, forward, base)
            except FulfillmentFailed as e:
                return "relator", e.vertex, e.relator, e.terminus
            except ValueError as e:
                return "value", str(e)
            return sg._table, sg._parent

        rng = random.Random(24)
        cases = []
        for _ in range(1500):
            pres, table = random_guard_case(rng)
            forward = [table[i + 1] for i in range(len(pres.alphabet))]
            cases += [(pres, forward, base) for base in range(len(forward[0]))]
        got = [outcome(*case) for case in cases]
        monkeypatch.setattr(subgroup, "_bfs",
                            lambda table, base, target=None, letters=(): all_columns_bfs(
                                table, base, target))
        assert got == [outcome(*case) for case in cases]
        kinds = [g[0] if g[0] in ("relator", "value") else "ok" for g in got]
        skipped = sum(len(_layout(pres).letters) < 2 * len(pres.alphabet) for pres, _, _ in cases)
        assert min(kinds.count(k) for k in ("relator", "value", "ok")) >= 200 and skipped >= 1000

    def test_unbased_isomorphism_across_presentations(self):
        """Over the same alphabet, only MODULAR has ``a a``: its classes read
        over Z * Z3 through the constructor, renumbered from every base, and
        the Z * Z3 classes, compared both ways."""
        found = 0
        for n in range(1, 6):
            modular = enumerate_graphs(EnumerationTask(MODULAR, n))
            over_z_z3 = [SubgroupGraph(Z_Z3, sg.coset_table().permutations, base)
                         for sg in modular for base in range(n)]
            pool = modular + over_z_z3 + enumerate_graphs(EnumerationTask(Z_Z3, n))
            for h in pool:
                for k in pool:
                    expected = any(all_columns_bfs(k._table, v, h._table) is not None
                                   for v in range(n))
                    assert h.isomorphic_unbased_to(k) == expected
                    found += expected and h.presentation != k.presentation
        assert found >= 100


def test_a_table_builds_its_free_basis_reduced():
    """``SubgroupGraph.free_basis`` does not reduce its words: a table is
    folded, so they are the words the X-graph path reduces, over subgroups
    of S5, PSL(2, Z) (whose involution has one column), A~2 and F2."""
    f2 = free_presentation(["a", "b"])
    pools = [[coset_enumerate(S5, [S5.word(w) for w in gens]) for gens in S5_SUBGROUPS]]
    pools += [[sg for n in range(1, top + 1) for sg in enumerate_graphs(EnumerationTask(pres, n))]
              for pres, top in ((MODULAR, 8), (A2, 6), (f2, 4))]
    pools.append([build_type1(f2, 1, 31).graph, build_type2(MODULAR, 0, 2, 1, 3, 4).graph])
    checked = 0
    for sg in (sg for pool in pools for sg in pool):
        basis = sg.free_basis()
        assert basis == free_basis(sg.graph)
        assert all(free_reduce(w) == w for w in basis)
        assert len(basis) == sg.index() * (len(sg.presentation.alphabet) - 1) + 1
        checked += 1
    assert checked == 250
