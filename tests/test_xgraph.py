import random

import pytest
from hypothesis import given, settings, strategies as st

from stallings import (
    Alphabet,
    AlphabetMismatch,
    BasedXGraph,
    Morphism,
    Word,
    XGraph,
    canonicalize,
    core,
    find_morphism,
    fold,
    free_basis,
    free_presentation,
    free_reduce,
    free_subgroup_graph,
    is_folded,
    letter_index,
    parse_graph,
    serialize_graph,
    subgroup_from_graph,
    trace,
    wedge_of_words,
)
from stallings.xgraph import _PartialTable, _bfs, _check_same_alphabet, _propagate, _tree_words

AB = Alphabet(["a", "b"])
XY = Alphabet(["x", "y"])


def held(g):
    """What an X-graph holds, and a based one its base too: X-graphs
    compare by identity, so a test that asks for the same graph compares
    these."""
    if isinstance(g, BasedXGraph):
        return held(g.graph), g.base
    return g.alphabet, g.vertex_count, g.edges


# Free-graph helpers that the package does not need, kept here on the
# package's BFS and propagation as the reference for the table calculus
# (tests/test_tables.py) and checked below against word-building ones.
def spanning_tree(g: BasedXGraph) -> set[tuple[int, int, int]]:
    """Deterministic breadth-first spanning tree from the base."""
    order, parent = _bfs(g)
    return {(v, lt - 1, t) if lt > 0 else (t, -lt - 1, v)
            for t in order[1:] for v, lt in [parent[t]]}


def coset_rep_words(g: BasedXGraph) -> list[Word]:
    """Tree-path label from the base to each vertex; the base gets the
    empty word."""
    return _tree_words(*_bfs(g))


def _isomorphism(g1: XGraph, v1: int, g2: XGraph, v2: int):
    """The morphism propagated from v1 -> v2 if it is injective, so an
    isomorphism of graphs with equal vertex and edge counts, else None."""
    m = _propagate(g1, v1, g2, v2)
    return m if m is not None and len(set(m.vertex_map)) == g1.vertex_count else None


def isomorphic_based(g1: BasedXGraph, g2: BasedXGraph):
    """The unique base-preserving isomorphism of folded connected graphs,
    or None."""
    _check_same_alphabet(g1.alphabet, g2.alphabet)
    if g1.vertex_count != g2.vertex_count or len(g1.graph.edges) != len(g2.graph.edges):
        return None
    return _isomorphism(g1.graph, g1.base, g2.graph, g2.base)


def isomorphic_unbased(g1: XGraph, g2: XGraph):
    """First isomorphism found by trying each g2 vertex as the image of
    g1's vertex 0, in ascending id order."""
    _check_same_alphabet(g1.alphabet, g2.alphabet)
    if g1.vertex_count != g2.vertex_count or len(g1.edges) != len(g2.edges):
        return None
    maps = (_isomorphism(g1, 0, g2, v2) for v2 in range(g2.vertex_count))
    return next((m for m in maps if m is not None), None)


# The X-regularity and connectivity checks, read off the edge list alone,
# independent of the package's arc lists and coset tables.
def regular(g: XGraph) -> bool:
    """Per vertex and letter: exactly one out-edge and one in-edge."""
    grid = [(v, li) for v in range(g.vertex_count) for li in range(len(g.alphabet))]
    return (sorted((u, li) for u, li, _ in g.edges) == grid
            and sorted((v, li) for _, li, v in g.edges) == grid)


def connected(g: XGraph) -> bool:
    """At most one component, the edges read in either direction."""
    root = list(range(g.vertex_count))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for (u, _, v) in g.edges:
        root[find(u)] = find(v)
    return len({find(v) for v in range(g.vertex_count)}) <= 1


def xy_graph(n, edges, base=0):
    return BasedXGraph(XGraph(XY, n, edges), base)


# the two regular {x,y}-graphs used throughout: a 3-vertex one fulfilling
# x^2, y^2, (xy)^3 and a 4-vertex one fulfilling x^4, y^3, (xy)^2
GAMMA = xy_graph(3, [(0, 0, 1), (1, 0, 0), (2, 0, 2),
                     (0, 1, 0), (1, 1, 2), (2, 1, 1)])
GAMMA_PRIME = xy_graph(4, [(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 0),
                           (0, 1, 3), (1, 1, 0), (2, 1, 2), (3, 1, 1)])


def test_xgraph_validation():
    with pytest.raises(ValueError):
        XGraph(AB, 1, [(0, 0, 1)])
    with pytest.raises(ValueError):
        XGraph(AB, 1, [(0, 2, 0)])
    with pytest.raises(ValueError):
        BasedXGraph(XGraph(AB, 2, []), 2)
    with pytest.raises(ValueError, match="negative"):
        XGraph(AB, -1, [])
    assert XGraph(AB, 0, []).vertex_count == 0


def test_edges_are_deduplicated_and_sorted():
    g = XGraph(AB, 2, [(1, 0, 0), (0, 0, 1), (0, 0, 1)])
    assert g.edges == ((0, 0, 1), (1, 0, 0))


def test_predicates_on_reference_graphs():
    for g in (GAMMA, GAMMA_PRIME):
        assert is_folded(g.graph)
        assert regular(g.graph)
        assert connected(g.graph)


def test_folded_but_not_regular():
    g = XGraph(AB, 2, [(0, 0, 1)])
    assert is_folded(g)
    assert not is_folded(XGraph(AB, 2, [(0, 0, 1), (0, 0, 0)]))


def test_trace_follows_inverse_edges():
    assert trace(GAMMA.graph, 0, XY.parse_word("x y")) == 2
    assert trace(GAMMA.graph, 0, XY.parse_word("x^-1")) == 1
    assert trace(GAMMA.graph, 0, XY.parse_word("x y x y x y")) == 0
    # a non-regular graph can run out of edges
    g = XGraph(AB, 2, [(0, 0, 1)])
    assert trace(g, 1, Word([1])) is None
    for start in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            trace(g, start, Word())


def test_trace_rejects_letters_outside_the_alphabet():
    """As ``SubgroupGraph.trace`` does, not as if an edge were missing."""
    g = free_subgroup_graph(AB, [AB.parse_word("a")]).graph
    assert trace(g, 0, Word([1, -1, 1])) == 0
    assert trace(g, 0, Word([2])) is None
    for w in (Word([5]), Word([-3]), Word([1, 3]), Word([2, 3])):
        with pytest.raises(AlphabetMismatch, match="^word uses letters outside the alphabet$"):
            trace(g, 0, w)


def test_fold_identifies_equal_labels():
    # two a-edges out of the base fold to one
    g = XGraph(AB, 3, [(0, 0, 1), (0, 0, 2)])
    folded, m = fold(g)
    assert is_folded(folded)
    assert folded.vertex_count == 2
    assert m(1) == m(2)


def test_fold_cascades():
    # a a^-1 b wedge: folding propagates through the chain
    wedge = wedge_of_words(AB, [AB.parse_word("a a^-1 b")])
    folded, _ = fold(wedge.graph)
    assert is_folded(folded)


def test_fold_preserves_loop_membership():
    gens = [AB.parse_word(t) for t in ("a b a^-1", "a a", "b b a")]
    g = free_subgroup_graph(AB, gens)
    for w in gens:
        assert trace(g.graph, g.base, free_reduce(w)) == g.base


def test_core_prunes_hanging_trees():
    # a loop at the base plus a dangling path
    g = BasedXGraph(XGraph(AB, 3, [(0, 0, 0), (0, 1, 1), (1, 1, 2)]), 0)
    c = core(g)
    assert c.vertex_count == 1
    assert c.graph.edges == ((0, 0, 0),)


def test_core_keeps_regular_graphs_whole():
    c = core(GAMMA_PRIME)
    assert c.vertex_count == GAMMA_PRIME.vertex_count


def test_spanning_tree_and_reps():
    tree = spanning_tree(GAMMA)
    assert len(tree) == GAMMA.vertex_count - 1
    reps = coset_rep_words(GAMMA)
    assert reps[0] == Word()
    for v, rep in enumerate(reps):
        assert trace(GAMMA.graph, GAMMA.base, rep) == v


def test_canonicalize_is_idempotent():
    g = xy_graph(3, [(2, 0, 1), (1, 0, 2), (0, 0, 0),
                     (2, 1, 2), (1, 1, 0), (0, 1, 1)], base=2)
    c1, m = canonicalize(g)
    assert c1.base == 0
    assert m(g.base) == 0
    c2, m2 = canonicalize(c1)
    assert c2 is c1 and m2.vertex_map == (0, 1, 2)


def test_free_basis_rank():
    # rank = |E| - |V| + 1 for connected graphs
    basis = free_basis(GAMMA_PRIME)
    assert len(basis) == 8 - 4 + 1
    for w in basis:
        assert trace(GAMMA_PRIME.graph, 0, w) == 0


def test_an_unfolded_graph_has_its_loop_words_reduced():
    # 1 hangs off the base by a^-1 and 2 off 1 by a, so 2's tree word is a^-1 a
    g = BasedXGraph(XGraph(Alphabet(["a", "b"]), 3, [(1, 0, 0), (1, 0, 2), (2, 1, 2)]), 0)
    assert coset_rep_words(g)[2] == Word([-1, 1])
    assert free_basis(g) == [Word([2])]
    # a wedge of reduced words is unfolded only at the base, which has no tree edge
    ab = Alphabet(["a", "b"])
    wedge = wedge_of_words(ab, [ab.parse_word(w) for w in ("a b a^-1", "a b^-1", "b a")])
    assert all(free_reduce(w) == w for w in free_basis(wedge))


def test_isomorphic_based():
    shuffled = xy_graph(3, [(1, 0, 2), (2, 0, 1), (0, 0, 0),
                            (1, 1, 1), (2, 1, 0), (0, 1, 2)], base=1)
    m = isomorphic_based(GAMMA, shuffled)
    assert m is not None
    assert m(GAMMA.base) == shuffled.base
    assert isomorphic_based(GAMMA, GAMMA_PRIME) is None


def test_isomorphic_unbased_vs_based():
    # GAMMA from base 1 is based-different but unbased-equal
    rebased = BasedXGraph(GAMMA.graph, 2)
    assert isomorphic_based(GAMMA, rebased) is None
    assert isomorphic_unbased(GAMMA.graph, rebased.graph) is not None


def test_negative_answers_of_the_isomorphism_checks():
    # GAMMA's x arcs at its base match an x 2-cycle, which has no y arc
    swap = xy_graph(2, [(0, 0, 1), (1, 0, 0)])
    assert find_morphism(GAMMA, swap.graph) is None
    # two x loops: the base reaches only itself
    loops = xy_graph(2, [(0, 0, 0), (1, 0, 1)])
    assert find_morphism(loops, GAMMA.graph) is None
    # the x 2-cycle goes onto one loop of ``loops``: same counts, not injective
    assert isomorphic_based(swap, loops) is None
    assert isomorphic_unbased(swap.graph, loops.graph) is None
    unfolded = xy_graph(2, [(0, 0, 0), (0, 0, 1)])
    with pytest.raises(ValueError, match="graphs must be folded"):
        isomorphic_based(swap, unfolded)
    assert isomorphic_unbased(GAMMA.graph, GAMMA_PRIME.graph) is None


def test_find_morphism_into_larger_graph():
    # the x^2 circle maps into any graph where x^2 closes somewhere
    src = free_subgroup_graph(XY, [XY.parse_word("x x")])
    m = find_morphism(src, GAMMA.graph)
    assert m is not None
    # the x^3 circle cannot map into a graph whose x-cycles have length 4
    src2 = free_subgroup_graph(XY, [XY.parse_word("x x x")])
    assert find_morphism(src2, GAMMA_PRIME.graph) is None


def test_bouquet_and_wedge():
    b = wedge_of_words(AB, [Word([1]), Word([2])])
    assert b.vertex_count == 1
    assert len(b.graph.edges) == 2
    w = wedge_of_words(AB, [AB.parse_word("a b a^-1")])
    assert w.vertex_count == 3
    assert trace(w.graph, 0, AB.parse_word("a b a^-1")) == 0
    # a generator is checked as given, so foreign letters that cancel are rejected
    for gens in ([Word([3, -3])], [Word([1]), Word([1, 3, -3, 2])]):
        with pytest.raises(AlphabetMismatch,
                           match="^generator uses letters outside the alphabet$"):
            wedge_of_words(AB, gens)


def test_free_subgroup_graph_is_canonical_core():
    g = free_subgroup_graph(AB, [AB.parse_word("a a"), AB.parse_word("b")])
    assert g.base == 0
    assert is_folded(g.graph)
    assert g.vertex_count == 2


words_strategy = st.lists(
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=6).map(Word),
    min_size=1,
    max_size=4,
)


@settings(max_examples=50, deadline=None)
@given(words_strategy)
def test_free_subgroup_graph_properties(gens):
    g = free_subgroup_graph(AB, gens)
    assert is_folded(g.graph)
    assert connected(g.graph)
    for w in gens:
        assert trace(g.graph, g.base, free_reduce(w)) == g.base
    # the basis generates the same loops: every basis word closes at base
    for w in free_basis(g):
        assert trace(g.graph, g.base, w) == g.base


def test_a_folded_wedge_is_its_own_core():
    """A fold of reduced loops at the base leaves every other vertex with
    arcs in two columns, so ``core`` prunes nothing and
    ``free_subgroup_graph`` skips it.  The words include unreduced ones and
    a word next to its inverse."""
    rng = random.Random(2023)
    for _ in range(1200):
        alphabet = Alphabet(["a", "b", "c"][:rng.randint(1, 3)])
        letters = [s * (i + 1) for i in range(len(alphabet)) for s in (1, -1)]
        gens = [Word([rng.choice(letters) for _ in range(rng.randint(0, 12))])
                for _ in range(rng.randint(0, 5))]
        if gens and rng.random() < 0.2:
            gens.append(gens[0].inverse())
        wedge = wedge_of_words(alphabet, gens)
        folded, m = fold(wedge.graph)
        based = BasedXGraph(folded, m(wedge.base))
        assert core(based) is based
        assert held(free_subgroup_graph(alphabet, gens)) == held(canonicalize(core(based))[0])


def rescan_fold(g):
    """Reference fold: rescan every edge, merging ends that share an origin
    (or terminus) and label, until a whole pass merges nothing."""
    parent = list(range(g.vertex_count))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    changed = True
    while changed:
        changed = False
        by_out, by_in = {}, {}
        for (u, li, v) in g.edges:
            for key, end, seen in (((find(u), li), v, by_out), ((find(v), li), u, by_in)):
                a, b = find(seen.setdefault(key, end)), find(end)
                if a != b:
                    parent[max(a, b)] = min(a, b)
                    changed = True
    roots = sorted({find(v) for v in range(g.vertex_count)})
    vmap = tuple(roots.index(find(v)) for v in range(g.vertex_count))
    return XGraph(g.alphabet, len(roots), {(vmap[u], li, vmap[v]) for (u, li, v) in g.edges}), vmap


def pruned_core(g):
    """Reference core: recount every degree in the base component and drop
    the non-base vertices of degree at most one, until none is left."""
    alive, frontier = {g.base}, [g.base]  # the base component
    while frontier:
        v = frontier.pop()
        for (a, _, b) in g.graph.edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in alive:
                    alive.add(y)
                    frontier.append(y)
    while True:
        edges = [e for e in g.graph.edges if e[0] in alive and e[2] in alive]
        deg = {v: sum((u == v) + (w == v) for (u, _, w) in edges) for v in alive}
        drop = {v for v in alive if v != g.base and deg[v] <= 1}
        if not drop:
            break
        alive -= drop
    order = sorted(alive)
    edges = [(order.index(u), li, order.index(v)) for (u, li, v) in g.graph.edges
             if u in alive and v in alive]
    return BasedXGraph(XGraph(g.alphabet, len(order), edges), order.index(g.base))


def random_multigraph(rng):
    alphabet = [Alphabet(["a"]), AB, Alphabet(["a", "b", "c"])][rng.randrange(3)]
    n = rng.randint(1, 20)
    edges = [(rng.randrange(n), rng.randrange(len(alphabet)), rng.randrange(n))
             for _ in range(rng.randint(0, 3 * n))]
    return XGraph(alphabet, n, edges)


def test_fold_matches_rescan_reference():
    rng = random.Random(2002)
    for _ in range(1000):
        g = random_multigraph(rng)
        folded, m = fold(g)
        ref, ref_map = rescan_fold(g)
        assert (held(folded), m.vertex_map) == (held(ref), ref_map)
        assert is_folded(folded)


def test_fold_cascades_backwards_through_in_edges():
    # the y x^2000 loop folds onto the x^2000 circle from its far end
    x2000 = Word([1] * 2000)
    wedge = wedge_of_words(XY, [x2000, Word([2]) * x2000])
    folded, m = fold(wedge.graph)
    assert folded.vertex_count == 2000
    assert len(folded.edges) == 2001
    assert (m(wedge.base), 1, m(wedge.base)) in folded.edges
    assert is_folded(folded)


def test_core_matches_pruning_reference():
    rng = random.Random(2016)
    for _ in range(500):
        g = random_multigraph(rng)
        for h in (g, fold(g)[0]):
            based = BasedXGraph(h, rng.randrange(h.vertex_count))
            assert held(core(based)) == held(pruned_core(based))


def test_a_core_comes_back_as_it_is():
    """``core`` returns a graph it prunes nothing from as it is, so its arc
    list is kept, and any other graph as the reference prunes it."""
    rng = random.Random(2019)
    kept = pruned = 0
    for _ in range(600):
        g = random_multigraph(rng)
        for h in (g, fold(g)[0]):
            based = BasedXGraph(h, rng.randrange(h.vertex_count))
            c = core(based)
            assert held(c) == held(pruned_core(based))
            if c.vertex_count == h.vertex_count:
                assert c is based
                kept += 1
            else:
                assert c is not based
                pruned += 1
            assert core(c) is c
    assert kept >= 100 and pruned >= 100, (kept, pruned)


def test_core_prunes_a_long_hanging_path():
    path = [(i, 0, i + 1) for i in range(2000)]
    c = core(BasedXGraph(XGraph(XY, 2001, [(0, 1, 0)] + path), 0))
    assert held(c) == ((XY, 1, ((0, 1, 0),)), 0)
    # a base of degree one stays, and so does the path to the loop
    lollipop = BasedXGraph(XGraph(XY, 2001, [(2000, 1, 2000)] + path), 0)
    assert core(lollipop) is lollipop


def word_bfs(g):
    """Reference BFS that builds the tree-path word of each vertex as it
    discovers it: (order, tree edges, words)."""
    edges = g.graph.edges
    order, tree, reps = [g.base], set(), {g.base: Word()}
    for v in order:
        for li in range(len(g.alphabet)):
            for t in [t for (u, x, t) in edges if (u, x) == (v, li)]:
                if t not in reps:
                    order.append(t)
                    tree.add((v, li, t))
                    reps[t] = Word(reps[v].letters + (li + 1,))
            for o in [o for (o, x, t) in edges if (x, t) == (li, v)]:
                if o not in reps:
                    order.append(o)
                    tree.add((o, li, v))
                    reps[o] = Word(reps[v].letters + (-(li + 1),))
    return order, tree, reps


def test_bfs_outputs_match_word_building_reference():
    rng = random.Random(1603)
    checked = 0
    for _ in range(1000):
        g = random_multigraph(rng)
        if not connected(g):
            continue
        based = BasedXGraph(g, rng.randrange(g.vertex_count))
        order, tree, reps = word_bfs(based)
        assert spanning_tree(based) == tree
        assert coset_rep_words(based) == [reps[v] for v in range(g.vertex_count)]
        assert canonicalize(based)[1].vertex_map == tuple(map(order.index, range(g.vertex_count)))
        assert free_basis(based) == [free_reduce(reps[u] * Word([li + 1]) * reps[v].inverse())
                                     for (u, li, v) in g.edges if (u, li, v) not in tree]
        checked += 1
    assert checked > 100


# wedge_of_words and the target searches as they were before the
# vertex-path wedge and the shared search: the wedge steps letter by letter
# with prev/nxt state, and each search keeps its own loop over targets.
def reference_wedge(alphabet, generators):
    edges = []
    n = 1
    for w in generators:
        if w.max_index() >= len(alphabet):
            raise AlphabetMismatch("generator uses letters outside the alphabet")
        w = free_reduce(w)
        if w.is_identity():
            continue
        prev = 0
        for i, lt in enumerate(w):
            nxt = 0 if i == len(w) - 1 else n
            if nxt != 0:
                n += 1
            li = letter_index(lt)
            if lt > 0:
                edges.append((prev, li, nxt))
            else:
                edges.append((nxt, li, prev))
            prev = nxt
    return BasedXGraph(XGraph(alphabet, n, edges), 0)


def reference_propagate(g1, v1, g2, v2, bijective):
    fmap = {v1: v2}
    queue = [v1]
    while queue:
        u = queue.pop()
        for col, t in g1._arc_list()[u]:
            theirs = g2._ends(fmap[u], col)
            if len(theirs) > 1 or len(g1._ends(u, col)) > 1:
                raise ValueError("graphs must be folded")
            if not theirs:
                return None
            if t in fmap:
                if fmap[t] != theirs[0]:
                    return None
            else:
                fmap[t] = theirs[0]
                queue.append(t)
    if len(fmap) != g1.vertex_count:
        return None
    if bijective and len(set(fmap.values())) != g1.vertex_count:
        return None
    return tuple(fmap[v] for v in range(g1.vertex_count))


def reference_check_alphabets(g1, g2):
    if g1.alphabet != g2.alphabet:
        raise AlphabetMismatch("graphs live over different alphabets")


def reference_isomorphic_based(g1, g2):
    reference_check_alphabets(g1.graph, g2.graph)
    if g1.vertex_count != g2.vertex_count or len(g1.graph.edges) != len(g2.graph.edges):
        return None
    vmap = reference_propagate(g1.graph, g1.base, g2.graph, g2.base, bijective=True)
    return Morphism(vmap) if vmap is not None else None


def reference_isomorphic_unbased(g1, g2):
    reference_check_alphabets(g1, g2)
    if g1.vertex_count != g2.vertex_count or len(g1.edges) != len(g2.edges):
        return None
    for v2 in range(g2.vertex_count):
        vmap = reference_propagate(g1, 0, g2, v2, bijective=True)
        if vmap is not None:
            return Morphism(vmap)
    return None


def reference_find_morphism(src, dst):
    reference_check_alphabets(src.graph, dst)
    for v2 in range(dst.vertex_count):
        vmap = reference_propagate(src.graph, src.base, dst, v2, bijective=False)
        if vmap is not None:
            return Morphism(vmap)
    return None


def outcome(f, *args):
    """The result, or the type and message of the ValueError raised."""
    try:
        return f(*args)
    except ValueError as e:  # AlphabetMismatch is a ValueError
        return type(e), str(e)


ALPHABETS = [Alphabet(["a"]), AB, Alphabet(["a", "b", "c"])]


def random_words(rng, k, foreign=0.1):
    """Up to five words over k letters, and at a ``foreign`` share of the
    draws one letter more and its inverse: some empty, some of one letter,
    some cancelling."""
    letters = [s * i for i in range(1, k + 1) for s in (1, -1)]
    if rng.random() < foreign:
        letters += [k + 1, -(k + 1)]
    lengths = [0, 1, 1, 2, 3, 5, 8, 13, 40]
    return [Word(rng.choice(letters) for _ in range(rng.choice(lengths)))
            for _ in range(rng.randint(0, 5))]


def test_wedge_and_bouquet_match_the_per_letter_reference():
    rng = random.Random(1983)
    for _ in range(2000):
        ab = rng.choice(ALPHABETS)
        gens = random_words(rng, rng.randint(1, len(ab)))
        assert (outcome(lambda: held(wedge_of_words(ab, gens)))
                == outcome(lambda: held(reference_wedge(ab, gens)))), gens


def permuted(g, rng):
    """A copy of ``g`` with its vertices shuffled."""
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return XGraph(g.alphabet, g.vertex_count, [(perm[u], li, perm[v]) for (u, li, v) in g.edges])


def random_regular(rng, alphabet, n):
    """A regular graph of n vertices: a random permutation per letter."""
    edges = []
    for li in range(len(alphabet)):
        image = list(range(n))
        rng.shuffle(image)
        edges += [(v, li, t) for v, t in enumerate(image)]
    return XGraph(alphabet, n, edges)


def random_pair(rng):
    """Two graphs over one alphabet (or, at a tenth of the draws, over two):
    a graph and a shuffled copy, two regular graphs, a folded core and a
    regular graph, or two multigraphs that may be unfolded."""
    ab = rng.choice(ALPHABETS)
    kind = rng.randrange(4)
    if kind == 0:
        g1 = random_multigraph(rng)
        g1 = fold(g1)[0] if rng.random() < 0.5 else g1
        g2 = permuted(g1, rng)
    elif kind == 1:
        n = rng.randint(1, 8)
        g1, g2 = random_regular(rng, ab, n), random_regular(rng, ab, rng.choice([n, n + 1]))
    elif kind == 2:
        g1 = free_subgroup_graph(ab, random_words(rng, len(ab), foreign=0)).graph
        g2 = random_regular(rng, ab, rng.randint(1, 8))
    else:
        g1, g2 = random_multigraph(rng), random_multigraph(rng)
    if rng.random() < 0.1:
        other = rng.choice([a for a in ALPHABETS if a != g2.alphabet])
        g2 = XGraph(other, g2.vertex_count, [e for e in g2.edges if e[1] < len(other)])
    return g1, g2


def test_isomorphisms_and_morphisms_match_the_per_search_reference():
    rng = random.Random(2002)
    found = {"based": 0, "unbased": 0, "morphism": 0, "raised": 0}
    for _ in range(3000):
        g1, g2 = random_pair(rng)
        if g1.vertex_count == 0 or g2.vertex_count == 0:
            continue
        b1 = BasedXGraph(g1, rng.randrange(g1.vertex_count))
        b2 = BasedXGraph(g2, rng.randrange(g2.vertex_count))
        for name, f, ref, args in (
                ("based", isomorphic_based, reference_isomorphic_based, (b1, b2)),
                ("unbased", isomorphic_unbased, reference_isomorphic_unbased, (g1, g2)),
                ("morphism", find_morphism, reference_find_morphism, (b1, g2))):
            result = outcome(f, *args)
            assert result == outcome(ref, *args), (name, g1.edges, g2.edges)
            found[name] += isinstance(result, Morphism)
            found["raised"] += isinstance(result, tuple)
    assert min(found.values()) > 50, found


# XGraph and fold as they were before construction deduped into a dict: a
# set dedupes, which scrambles the order, and the sort starts from scratch.
def set_xgraph_edges(alphabet, n, edges):
    """The edges the set-based constructor kept, or the message it raised."""
    edges = tuple(sorted(set(edges)))
    for (u, li, v) in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {li}, {v}) out of range"
        if not 0 <= li < len(alphabet):
            return f"edge label index {li} out of range"
    return edges


def set_fold(g):
    t = _PartialTable([c ^ 1 for c in range(2 * len(g.alphabet))], g.vertex_count)
    for (u, li, v) in g.edges:
        t._install(t.rep(u), 2 * li, t.rep(v))
    t._process()
    roots = [v for v in range(g.vertex_count) if t.rep(v) == v]
    renum = {r: i for i, r in enumerate(roots)}
    vmap = tuple(renum[t.rep(v)] for v in range(g.vertex_count))
    edges = {(vmap[u], li, vmap[v]) for (u, li, v) in g.edges}
    return XGraph(g.alphabet, len(roots), edges), Morphism(vmap)


def xgraph_edges(alphabet, n, edges):
    try:
        return XGraph(alphabet, n, edges).edges
    except ValueError as e:
        return str(e)


def test_edges_match_the_set_based_constructor():
    """Sorted, reversed, shuffled and nearly sorted edge lists, some heavily
    duplicated and some with an edge or a label out of range, given as lists
    and as generators."""
    rng = random.Random(2020)
    shapes = {"sorted": 0, "reversed": 0, "shuffled": 0, "nearly sorted": 0, "raised": 0}
    for i in range(2400):
        ab = rng.choice(ALPHABETS)
        n = rng.randint(1, 12)
        edges = [(rng.randrange(n), rng.randrange(len(ab)), rng.randrange(n))
                 for _ in range(rng.randint(0, 4 * n))]
        if i % 3 == 0 and edges:  # heavy duplication
            edges = [rng.choice(edges[:3]) for _ in range(10 * len(edges))]
        if rng.random() < 0.1:
            bad = rng.choice([(n, 0, 0), (0, 0, -1), (0, len(ab), 0), (0, -1, 0)])
            edges.insert(rng.randint(0, len(edges)), bad)
        shape = rng.choice(["sorted", "reversed", "shuffled", "nearly sorted"])
        edges.sort(reverse=shape == "reversed")
        if shape == "shuffled":
            rng.shuffle(edges)
        elif shape == "nearly sorted" and len(edges) > 1:
            for _ in range(2):
                j = rng.randrange(len(edges) - 1)
                edges[j], edges[j + 1] = edges[j + 1], edges[j]
        expected = set_xgraph_edges(ab, n, edges)
        assert xgraph_edges(ab, n, edges) == expected
        assert xgraph_edges(ab, n, iter(edges)) == expected
        assert xgraph_edges(ab, n, (e for e in edges)) == expected
        shapes[shape] += 1
        shapes["raised"] += isinstance(expected, str)
    assert min(shapes.values()) > 100, shapes


def test_fold_core_and_canonicalize_match_the_set_based_fold():
    """Random wedges, a share of them many copies of one word or of its
    inverse: the folded graph, the quotient morphism and what core and
    canonicalize make of them are the set-based fold's."""
    rng = random.Random(2021)
    for i in range(300):
        ab = rng.choice(ALPHABETS)
        gens = random_words(rng, len(ab), foreign=0)
        if i % 3 == 0 and gens:
            w = rng.choice(gens)
            gens = [w if rng.random() < 0.8 else w.inverse() for _ in range(rng.randint(2, 30))]
        wedge = wedge_of_words(ab, gens)
        ref, ref_m = set_fold(wedge.graph)
        ref_core = core(BasedXGraph(ref, ref_m(wedge.base)))
        ref_canonical = canonicalize(ref_core)
        folded, m = fold(wedge.graph)
        assert (held(folded), m) == (held(ref), ref_m)
        cored = core(BasedXGraph(folded, m(wedge.base)))
        assert held(cored) == held(ref_core)
        canonical, renumbering = canonicalize(cored)
        assert (held(canonical), renumbering) == (held(ref_canonical[0]), ref_canonical[1])
        assert held(free_subgroup_graph(ab, gens)) == held(ref_canonical[0])


def test_fold_of_fifty_copies_of_one_long_word():
    """50 loops of one cyclically reduced 1000-letter word fold onto one."""
    rng = random.Random(7)
    letters = [1]
    while len(letters) < 1000:
        lt = rng.choice([1, -1, 2, -2])
        if lt != -letters[-1] and (len(letters) < 999 or lt != -1):
            letters.append(lt)
    wedge = wedge_of_words(AB, [Word(letters)] * 50)
    assert len(wedge.graph.edges) == 50_000
    folded, m = fold(wedge.graph)
    ref, ref_m = set_fold(wedge.graph)
    assert (held(folded), m) == (held(ref), ref_m)
    assert folded.vertex_count == len(folded.edges) == 1000


def test_coset_tables_and_canonical_files_list_their_edges_sorted():
    """The producers whose edges XGraph sorts in linear time: a coset
    table's edges and a canonical graph file's edge lines come sorted."""
    rng = random.Random(2022)
    f2 = free_presentation(["a", "b"])
    for _ in range(50):
        g = free_subgroup_graph(AB, random_words(rng, 2, foreign=0))
        regular = random_regular(rng, AB, rng.randint(1, 9))
        text = serialize_graph(g)
        lines = [line.split()[1:] for line in text.splitlines() if line.startswith("edge:")]
        listed = [(int(u), AB._index[x], int(v)) for u, x, v in lines]
        assert listed == sorted(set(listed)) == list(parse_graph(text, AB).graph.edges)
        if connected(regular):
            sg = subgroup_from_graph(BasedXGraph(regular, 0), f2)
            assert list(sg.edges()) == sorted(set(sg.edges()))
