import random
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from stallings import (
    Alphabet,
    BasedXGraph,
    EnumerationTask,
    FulfillmentFailed,
    GluingSpec,
    ParseError,
    Presentation,
    SubgroupGraph,
    Word,
    XGraph,
    build_glued,
    build_parallel_circles,
    build_type1,
    build_type2,
    coset_enumerate,
    enumerate_graphs,
    export_dot,
    free_reduce,
    free_subgroup_graph,
    hall_search,
    intersect,
    is_prime,
    parse_graph,
    parse_presentation,
    serialize_graph,
    serialize_presentation,
    subgroup_from_graph,
    wedge_of_words,
)
from stallings import fileio
from stallings.cli import main
from stallings.fileio import _subgroup_text
from test_cli_contract import _mutant
from test_xgraph import AB, held

S3_TEXT = """\
# symmetric group on three letters
gens: s1 s2
rel: s1 s1
rel: s2 s2
rel: s1 s2 s1 s2 s1 s2
"""

EF_TEXT = "gens: e f\nrel: e e\nrel: f f\n"
# the index-2 subgroup <f, e f e>: e swaps the two cosets
EF_SWAP_GRAPH = "vertices: 2\nbase: 0\nedge: 0 e 1\nedge: 0 f 0\nedge: 1 e 0\nedge: 1 f 1\n"


class TestPresentationFiles:
    def test_parse(self, s3):
        assert parse_presentation(S3_TEXT) == s3

    def test_round_trip(self, s3, q8, delta333):
        for p in (s3, q8, delta333):
            assert parse_presentation(serialize_presentation(p)) == p

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as e:
            parse_presentation("gens: a\nrel: c\n")
        assert e.value.line == 2
        with pytest.raises(ParseError):
            parse_presentation("rel: a\n")
        with pytest.raises(ParseError):
            parse_presentation("junk\n")
        with pytest.raises(ParseError):
            parse_presentation("")

    @pytest.mark.parametrize("text, line, message", [
        ("gens: a\ngens: b\n", 2, "duplicate gens line"),
        ("gens:\n", 1, "empty generator list"),
        ("gens: a a\n", 1, "generator names must be pairwise distinct"),
        ("gens: a\nrel: a a^-1\n", None, "relator reduces to the empty word"),
    ])
    def test_error_messages(self, text, line, message):
        with pytest.raises(ParseError) as e:
            parse_presentation(text)
        assert e.value.line == line
        assert str(e.value) == (message if line is None else f"line {line}: {message}")


# Valid names, valid names with a character before or after, and arbitrary text.
VALID_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True)
NAMES = st.one_of(
    VALID_NAMES,
    st.builds("".join, st.tuples(st.sampled_from(["", " ", "\n", "1"]), VALID_NAMES,
                                 st.sampled_from(["", "\n", "\r\n", " ", "\t", "-", "^", "#"]))),
    st.text(max_size=3),
)


@given(st.lists(NAMES, min_size=1, max_size=4, unique=True), st.randoms(use_true_random=False))
@example(["a\n", "b"], random.Random(1))
@example(["b", "a\n"], random.Random(1))
def test_a_presentation_over_every_valid_alphabet_round_trips(names, rng):
    try:
        alphabet = Alphabet(names)
    except ValueError:
        return
    n = len(names)
    words = [Word(rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(rng.randint(1, 6)))
             for _ in range(rng.randint(0, 3))]
    p = Presentation(alphabet, [w for w in words if free_reduce(w)])
    assert parse_presentation(serialize_presentation(p)) == p


class TestGraphFiles:
    def test_round_trip_on_enumerated_graphs(self, s3):
        sg = coset_enumerate(s3, [s3.word("s1")])
        text = serialize_graph(sg.graph)
        assert held(parse_graph(text, s3.alphabet)) == held(sg.graph)
        assert serialize_graph(parse_graph(text, s3.alphabet)) == text

    def test_serialization_canonicalizes(self, s3):
        sg = coset_enumerate(s3, [s3.word("s1")])
        text = serialize_graph(sg.graph)
        # renumber the vertices: the serialized form is unchanged
        from stallings import BasedXGraph, XGraph
        perm = {0: 2, 1: 0, 2: 1}
        g = sg.graph.graph
        shuffled = BasedXGraph(
            XGraph(g.alphabet, 3,
                   [(perm[u], li, perm[v]) for (u, li, v) in g.edges]),
            perm[0],
        )
        assert serialize_graph(shuffled) == text

    @pytest.mark.parametrize("text", [
        "vertices: 2\nbase: 0\nedge: 0 a 0\n",
        "vertices: 3\nbase: 1\nedge: 1 a 1\nedge: 2 b 0\n",
    ])
    def test_a_folded_graph_the_base_does_not_span_is_written_as_it_stands(self, text):
        ab = Alphabet(["a", "b"])
        g = parse_graph(text, ab)
        assert serialize_graph(g) == text
        assert held(parse_graph(serialize_graph(g), ab)) == held(g)

    def test_errors(self, s3):
        with pytest.raises(ParseError):
            parse_graph("base: 0\n", s3.alphabet)
        with pytest.raises(ParseError):
            parse_graph("vertices: 1\n", s3.alphabet)
        with pytest.raises(ParseError):
            parse_graph("vertices: 1\nbase: 0\nedge: 0 zz 0\n", s3.alphabet)
        with pytest.raises(ParseError):
            parse_graph("vertices: 1\nbase: 0\nedge: 0 s1\n", s3.alphabet)

    @pytest.mark.parametrize("text, line, message", [
        ("vertices: 1\nbase: 0\nedge: 0 s1\n", 3, "edge needs origin, letter, terminus"),
        ("vertices: 1\nbase: 0\nedge: 0 s1 0 0\n", 3, "edge needs origin, letter, terminus"),
        ("vertices: 2\nbase: 0\nedge: x s1 1\n", 3, "bad vertex id: 'x'"),
        ("vertices: 2\nbase: 0\nedge: 0 s1 y\n", 3, "bad vertex id: 'y'"),
        ("vertices: 2\nbase: 0\nedge: x zz y\n", 3, "bad vertex id: 'x'"),
        ("vertices: 2\nbase: 0\nedge: 0 zz y\n", 3, "bad vertex id: 'y'"),
        ("vertices: 2\nbase: 0\nedge: 0 zz 1\n", 3, "unknown generator: 'zz'"),
        ("vertices: 2\nbase: 0\nedge: 0 s1^-1 1\n", 3, "unknown generator: 's1^-1'"),
        ("vertices: 2\nbase: 0\njunk\n", 3, "unrecognized line: 'junk'"),
        ("vertices: 2\nbase: 0\nedges: 0 s1 1\n", 3, "unrecognized line: 'edges: 0 s1 1'"),
        ("base: 0\nedge: 0 s1 0\n", None, "missing vertices line"),
        ("vertices: 1\nedge: 0 s1 0\n", None, "missing base line"),
        ("vertices: 1\nbase: 0\nvertices: 1\n", 3, "duplicate vertices line"),
        ("vertices: 1\nbase: 0\nbase: 0\n", 3, "duplicate base line"),
        ("vertices: x\nbase: 0\n", 1, "bad vertex count: 'x'"),
        ("vertices: 1\nbase: -\n", 2, "bad base vertex: '-'"),
        ("# comment\n\nvertices: 2  # count\n\n   \nbase: 0\nedge: 0 s1 1.5\n", 7,
         "bad vertex id: '1.5'"),
        ("edge: 0 s1 x\nvertices: 1\nbase: 0\n", 1, "bad vertex id: 'x'"),
        ("vertices: 0\nbase: 0\n", None, "a based graph needs at least one vertex"),
        ("vertices: 1\nbase: 1\nedge: 0 s1 0\nedge: 0 s2 0\n", None,
         "base vertex out of range"),
    ])
    def test_error_messages_carry_line_numbers(self, s3, text, line, message):
        with pytest.raises(ParseError) as e:
            parse_graph(text, s3.alphabet)
        assert e.value.line == line
        assert str(e.value) == (message if line is None else f"line {line}: {message}")

    def test_edge_lines_may_come_first(self, s3):
        text = "# edges first\nedge: 0 s1 0\n\nedge: 0 s2 0\nvertices: 1\nbase: 0\n"
        g = parse_graph(text, s3.alphabet)
        assert (g.vertex_count, g.base, g.graph.edges) == (1, 0, ((0, 0, 0), (0, 1, 0)))


def _loaded(load, text, pres):
    """The coset table ``load`` reads from ``text``, or the type and the
    message of what it raises (a ``ParseError`` is a ``ValueError``)."""
    try:
        return load(text, pres).coset_table()
    except (ValueError, FulfillmentFailed) as e:
        return type(e), str(e)


def _reference(text, pres):
    return subgroup_from_graph(parse_graph(text, pres.alphabet), pres)


F2_INDEX2 = "vertices: 2\nbase: 0\nedge: 0 a 0\nedge: 0 b 1\nedge: 1 a 1\nedge: 1 b 0\n"
NOT_REGULAR = (ValueError, "graph is not X-regular")
TOKENS = (ParseError, "line 3: edge needs origin, letter, terminus")


def _edited(old, new):
    return F2_INDEX2.replace(old, new)


@pytest.mark.parametrize("text, outcome", [
    ("vertices: 1000000000000\nbase: 0\n", NOT_REGULAR),
    (F2_INDEX2 + "edge: 0 b 1\n", 2),  # a repeated identical edge line
    (_edited("edge: 1 a 1", "edge: 0 a 1"), NOT_REGULAR),
    (F2_INDEX2 + "edge: 1 a 0\n", NOT_REGULAR),
    # a conflict repeated over a duplicate: its last edges make a permutation
    (F2_INDEX2 + "edge: 0 a 1\nedge: 1 a 0\nedge: 1 a 0\n", NOT_REGULAR),
    ("vertices: 2\nbase: 0\nedge: 1 b 0\nedge: 1 a 1\nedge: 0 b 1\nedge: 0 a 0\n", 2),
    ("vertices: 2\nbase: 0\nedge: 0 b 5\n", (ParseError, "edge (0, 1, 5) out of range")),
    ("# only a comment\n  # and one after blanks\n\n" + F2_INDEX2, 2),
    (_edited("edge: 0 a 0", "edge: 0 a 0  # a loop"), 2),
    (_edited("edge: 0 a 0", "edge: 0 a 0#glued"), 2),
    (_edited("edge: 0 a 0", "edge: 0 a 0 #"), 2),
    (_edited("edge:", "  edge:"), 2),
    (_edited("edge: 0 a 0", "edge:0 a 0"), 2),
    (_edited("edge: 0 a 0", "edge: 0 a #0"), TOKENS),
    (_edited("edge: 0 a 0", "edge: 0 a 0 0"), TOKENS),
    (_edited("edge: 0 a 0", "edge: 0 c 0"), (ParseError, "line 3: unknown generator: 'c'")),
    (_edited("edge: 0 a 0", "edge: 0 a x"), (ParseError, "line 3: bad vertex id: 'x'")),
    (_edited("edge: 1 a 1", "edge: 1 a 2"), (ParseError, "edge (1, 0, 2) out of range")),
    (_edited("edge: 1 a 1", "edge: 1 a -1"), (ParseError, "edge (1, 0, -1) out of range")),
    (_edited("base: 0", "base: 2"), (ParseError, "base vertex out of range")),
    (_edited("vertices: 2", "vertices: -2"), (ParseError, "vertex count -2 is negative")),
    ("vertices: 0\nbase: 0\n", (ParseError, "a based graph needs at least one vertex")),
    ("vertices: 2\nbase: 0\nedge: 0 a 0\nedge: 0 b 0\nedge: 1 a 1\nedge: 1 b 1\n",
     (ValueError, "graph is not connected")),
])
def test_the_loader_answers_as_the_reference_path(f2, text, outcome):
    """Hand cases: the loader reads the table or raises exactly as
    ``subgroup_from_graph(parse_graph(...))`` does."""
    got = _loaded(_subgroup_text, text, f2)
    assert got == _loaded(_reference, text, f2)
    assert got == outcome if isinstance(outcome, tuple) else len(got.permutations[0]) == outcome


def test_the_loader_answers_mutated_files_as_the_reference_path(f2):
    """Over 2,400 seeded mutants of written files, some with comments, the
    loader and the reference path give the same table or raise the same
    error, of each kind a file can fail with."""
    s3 = Presentation.parse(["s1", "s2"], ["s1 s1", "s2 s2", "s1 s2 s1 s2 s1 s2"])
    psl = Presentation.parse(["a", "b"], ["a a", "b b b"])
    graphs = [(s3, coset_enumerate(s3, [s3.word(w) for w in gens])) for gens in ([], ["s1"])]
    circle = build_type1(f2, 0, 13).graph
    graphs += [(f2, circle), (psl, build_type2(psl, 0, 2, 1, 3, 2).graph),
               (Presentation.parse(["a", "b"], ["a a a"]), circle)]  # a^3 fails on it
    bases = []
    for pres, sg in graphs:
        text = serialize_graph(sg.graph)
        commented = text.replace("\nedge:", "\n# a comment\nedge:", 1)
        bases += [(pres, text), (pres, commented.replace("\n", " # end\n", 2))]
    rng = random.Random(32)
    kinds = Counter()
    for _ in range(2400):
        pres, text = rng.choice(bases)
        mutant = _mutant(text, rng)
        got = _loaded(_subgroup_text, mutant, pres)
        assert got == _loaded(_reference, mutant, pres), mutant
        kinds[got[0].__name__ if isinstance(got, tuple) else "table"] += 1
    assert set(kinds) == {"table", "ParseError", "ValueError", "FulfillmentFailed"}, kinds


def _read(reader, text, alphabet):
    """What ``reader`` reads from ``text``, or the type and the message of what it raises."""
    try:
        return reader(text, alphabet)
    except ValueError as e:
        return type(e), str(e)


AB_NAMES = Alphabet(["a", "ab"])  # one name a prefix of the other

# Texts at the edges of the layout ``graph_text`` writes, by the alphabet read over.
BULK_EDGES = [(AB, text) for text in (
    F2_INDEX2,
    F2_INDEX2[:-1],  # no final newline
    F2_INDEX2.replace("\n", "\r\n"),
    _edited("edge: 1 a 1", "edge: 1 a \u0661"),  # an Arabic-Indic digit one, which int reads
    _edited("edge: 1 a 1", "edge: +1 a 1"),
    _edited("edge: 1 a 1", "edge: 01 a 001"),
    _edited("vertices: 2", "vertices: 02"),
    _edited("edge: 1 a 1", "edge: 1\ta 1"),
    _edited("edge: 1 a 1", "edge:  1 a 1"),
    _edited("edge: 1 a 1", "edge: 1 a 1 "),
    "vertices: 1000000000000\nbase: 0\n",
    "vertices: 1\nbase: 0\n",
    "vertices: 0\nbase: 0\n",
    "base: 0\nvertices: 1\n",
    _edited("edge: 0 a 0", "edge: 0 c 0"),
    _edited("edge: 0 a 0", "edge: 0 a " + "0" * 5000),
    _edited("edge: 0 a 0", "edge: 0 a " + "1" * 5000),  # past int's 4300 digits
    _edited("edge: 0 a 0", "edge: 0 a 0\n"),  # a blank line
    _edited("edge: 0 a 0", "edge: 0 a 0 # a loop"),
    "",
)] + [(AB_NAMES, text) for text in (
    F2_INDEX2.replace(" b ", " ab "),
    F2_INDEX2,  # b is unknown
    F2_INDEX2.replace(" b ", " abc "),  # a known name is a prefix of it
    F2_INDEX2.replace(" a ", " A "),
)] + [(Alphabet(["ab", "b"]), F2_INDEX2)]  # a is a prefix of a known name


def test_the_bulk_reader_reads_as_the_line_loop(monkeypatch, f2):
    """Over hand cases at the edges of the bulk layout and 5,000 seeded
    mutants of written files, some with comments, blank lines or leading
    blanks, ``_graph_lines`` reads what the line loop reads or raises its
    error, and both its paths run."""
    loop = fileio._graph_line_loop
    looped = []

    def counted(text, alphabet):
        looped.append(text)
        return loop(text, alphabet)

    monkeypatch.setattr(fileio, "_graph_line_loop", counted)

    def agrees(text, alphabet):
        before = len(looped)
        got = _read(fileio._graph_lines, text, alphabet)
        assert got == _read(loop, text, alphabet), text
        return "bulk" if len(looped) == before else "line loop"

    hand = Counter(agrees(text, alphabet) for alphabet, text in BULK_EDGES)
    assert hand == {"bulk": 7, "line loop": len(BULK_EDGES) - 7}, hand
    s3 = Presentation.parse(["s1", "s2"], ["s1 s1", "s2 s2", "s1 s2 s1 s2 s1 s2"])
    z7 = Presentation.parse(["a"], ["a a a a a a a"])
    abc = Alphabet(["a", "b", "c"])
    graphs = [coset_enumerate(s3, [s3.word(w) for w in gens]).graph for gens in ([], ["s1"])]
    graphs += [build_type1(f2, 0, 13).graph.graph, coset_enumerate(z7, []).graph,
               free_subgroup_graph(abc, [abc.parse_word(w) for w in ("a b c^-1 a", "c c b")])]
    bases = []
    for g in graphs:
        text = serialize_graph(g)
        commented = text.replace("\nedge:", "\n# a comment\nedge:", 1)
        bases += [(g.alphabet, text)] * 3 + [
                  (g.alphabet, commented.replace("\n", " # end\n", 2)),
                  (g.alphabet, text.replace("\nedge:", "\n\nedge:", 1)),
                  (g.alphabet, text.replace("\nedge:", "\n  edge:"))]
    rng = random.Random(33)
    paths = Counter()
    for _ in range(5000):
        alphabet, text = rng.choice(bases)
        paths[agrees(_mutant(text, rng), alphabet)] += 1
    assert min(paths.values()) > 100, paths


def test_export_dot_bouquet():
    dot = export_dot(wedge_of_words(Alphabet(["a", "b"]), [Word([1]), Word([2])]))
    assert dot.count("->") == 2
    assert "doublecircle" in dot


@pytest.fixture
def s3_file(tmp_path):
    path = tmp_path / "s3.pres"
    path.write_text(S3_TEXT)
    return str(path)


@pytest.fixture
def refl_file(tmp_path, s3_file, capsys):
    assert main(["-p", s3_file, "build", "-g", "s1"]) == 0
    out = capsys.readouterr().out
    path = tmp_path / "refl.graph"
    path.write_text(out)
    return str(path)


class TestCli:
    def test_build_and_index(self, s3_file, refl_file, capsys):
        assert main(["-p", s3_file, "index", refl_file]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_verify(self, s3_file, refl_file):
        assert main(["-p", s3_file, "verify", refl_file]) == 0

    def test_membership_exit_codes(self, s3_file, refl_file, capsys):
        assert main(["-p", s3_file, "membership", refl_file, "s1"]) == 0
        assert main(["-p", s3_file, "membership", refl_file, "s2"]) == 1
        out = capsys.readouterr().out
        assert "member" in out and "not a member" in out

    def test_cosets_and_basis(self, s3_file, refl_file, capsys):
        assert main(["-p", s3_file, "cosets", refl_file]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert main(["-p", s3_file, "basis", refl_file]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_normal(self, s3_file, refl_file):
        assert main(["-p", s3_file, "normal", refl_file]) == 1

    def test_normalizer(self, s3_file, refl_file, capsys):
        assert main(["-p", s3_file, "normalizer", refl_file]) == 0
        assert "normalizer index: 3" in capsys.readouterr().out

    def test_conjugate(self, s3_file, refl_file, tmp_path, capsys):
        assert main(["-p", s3_file, "build", "-g", "s2"]) == 0
        other = tmp_path / "other.graph"
        other.write_text(capsys.readouterr().out)
        assert main(["-p", s3_file, "conjugate", refl_file, str(other)]) == 0

    def test_intersect_and_coset_meet(self, s3_file, refl_file, tmp_path, capsys):
        assert main(["-p", s3_file, "build", "-g", "s2"]) == 0
        other = tmp_path / "other.graph"
        other.write_text(capsys.readouterr().out)
        assert main(["-p", s3_file, "intersect", refl_file, str(other)]) == 0
        assert "vertices: 6" in capsys.readouterr().out
        assert main(["-p", s3_file, "coset-meet", refl_file, str(other),
                     "0", "0"]) == 0

    def test_malnormal(self, s3_file, refl_file):
        assert main(["-p", s3_file, "malnormal", refl_file, "--order", "6"]) == 0

    def test_hall(self, s3_file, capsys):
        assert main(["-p", s3_file, "hall", "--order", "6", "--d", "2"]) == 0
        assert "vertices: 3" in capsys.readouterr().out

    def test_enumerate(self, s3_file, capsys):
        assert main(["-p", s3_file, "enumerate", "--n", "3"]) == 0
        assert "3 based classes" in capsys.readouterr().out

    def test_gamma_and_certify(self, tmp_path, capsys):
        pres = tmp_path / "f2.pres"
        pres.write_text("gens: a b\n")
        assert main(["-p", str(pres), "gamma", "type1",
                     "--letter", "a", "--p", "5"]) == 0
        out = capsys.readouterr().out
        assert "prime: yes" in out
        graph = tmp_path / "t1.graph"
        graph.write_text(out[out.index("vertices: 5\nbase"):])
        assert main(["-p", str(pres), "certify", str(graph),
                     "--word", "a", "--prime", "5"]) == 0
        assert main(["-p", str(pres), "certify", str(graph),
                     "--word", "b", "--prime", "5"]) == 1

    def test_dot_output(self, s3_file, tmp_path, capsys):
        dot = tmp_path / "out.dot"
        assert main(["-p", s3_file, "build", "-g", "s1",
                     "--dot", str(dot)]) == 0
        capsys.readouterr()
        assert "digraph" in dot.read_text()

    def test_e_is_a_generator_not_the_identity(self, tmp_path, capsys):
        pres, graph = tmp_path / "ef.pres", tmp_path / "swap.graph"
        pres.write_text(EF_TEXT)
        graph.write_text(EF_SWAP_GRAPH)
        codes = [main(["-p", str(pres), "membership", str(graph), w])
                 for w in ("e", "e e e", "e e", "1")]
        assert codes == [1, 1, 0, 0]
        assert capsys.readouterr().out.splitlines() == [
            "not a member", "not a member", "member", "member"]

    def test_the_environment_does_not_bound_coset_enumeration(
            self, s3, s3_file, monkeypatch, capsys):
        # a variable named after the option bounds nothing: the bound comes
        # from max_cosets= and --max-cosets alone
        monkeypatch.setenv("STALLINGS_" + "max-cosets".replace("-", "_").upper(), "1")
        assert coset_enumerate(s3).index() == 6
        assert main(["-p", s3_file, "build"]) == 0
        assert capsys.readouterr().out.startswith("vertices: 6\n")

    def test_computed_negative_answers(self, s3_file, refl_file, tmp_path, capsys):
        """Each negative answer exits 1 and prints its one line."""
        bad = tmp_path / "bad.graph"  # s1 swaps two cosets, so (s1 s2)^3 moves one
        bad.write_text("vertices: 2\nbase: 0\nedge: 0 s1 1\nedge: 1 s1 0\n"
                       "edge: 0 s2 0\nedge: 1 s2 1\n")
        assert main(["-p", s3_file, "verify", str(bad)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("invalid: relator does not close")
        assert main(["-p", s3_file, "build", "-g", "s1 s2"]) == 0
        rotations = tmp_path / "rot.graph"
        rotations.write_text(capsys.readouterr().out)
        assert main(["-p", s3_file, "conjugate", refl_file, str(rotations)]) == 1
        assert capsys.readouterr().out == "not conjugate\n"
        assert main(["-p", s3_file, "coset-meet", refl_file, refl_file, "0", "1"]) == 1
        assert capsys.readouterr().out == "empty intersection\n"

    def test_hall_finds_none(self, tmp_path, capsys):
        # A5 has no subgroup of order 15, which would have index 4
        a5 = tmp_path / "a5.pres"
        a5.write_text("gens: a b\nrel: a a\nrel: b b b\nrel: a b a b a b a b a b\n")
        assert main(["-p", str(a5), "hall", "--order", "60", "--d", "15"]) == 1
        assert capsys.readouterr().out == "no Hall subgroup of that order\n"

    def test_certify_with_the_wrong_prime(self, tmp_path, capsys):
        pres = tmp_path / "z.pres"
        pres.write_text("gens: x\n")
        assert main(["-p", str(pres), "gamma", "type1", "--letter", "x", "--p", "5"]) == 0
        graph = tmp_path / "t1.graph"
        graph.write_text(capsys.readouterr().out.split("\n", 3)[3])
        assert main(["-p", str(pres), "certify", str(graph), "--word", "x", "--prime", "7"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "vertex count 5 != 7\n"

    def test_gamma_artin(self, tmp_path, capsys):
        b3 = tmp_path / "b3.pres"
        b3.write_text("gens: x y\nrel: x y x y^-1 x^-1 y^-1\n")
        assert main(["-p", str(b3), "gamma", "artin", "--p", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("vertices: 5\nword: x\nprime: yes\nvertices: 5\nbase: 0\n")
        assert out.count("edge:") == 10

    @pytest.fixture
    def factors(self, tmp_path):
        """Files of two factors each: Z3 and Z2 in free groups, Z4 over Z2 twice."""
        files = {"zx.pres": "gens: x\n", "zd.pres": "gens: d\n",
                 "z3.graph": "vertices: 3\nbase: 0\nedge: 0 x 1\nedge: 1 x 2\nedge: 2 x 0\n",
                 "z2.graph": "vertices: 2\nbase: 0\nedge: 0 d 1\nedge: 1 d 0\n",
                 "pa.pres": "gens: a\nrel: a a a a\n", "pb.pres": "gens: b\nrel: b b b b\n",
                 "ha.graph": "vertices: 2\nbase: 0\nedge: 0 a 1\nedge: 1 a 0\n",
                 "hb.graph": "vertices: 2\nbase: 0\nedge: 0 b 1\nedge: 1 b 0\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        return {name.replace(".", "_"): str(tmp_path / name) for name in files}

    def test_gamma_glued(self, factors, capsys):
        f = factors
        assert main(["-p", f["zx_pres"], "gamma", "glued",
                     "--left-pres", f["zx_pres"], "--left-graph", f["z3_graph"], "--left-word", "x",
                     "--right-pres", f["zd_pres"], "--right-graph", f["z2_graph"],
                     "--right-word", "d", "--pairs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("vertices: 7\nword: x d\nprime: yes\nvertices: 7\n")

    def test_gamma_amalgam(self, factors, capsys):
        f = factors
        argv = ["-p", f["pa_pres"], "gamma", "amalgam",
                "--left-pres", f["pa_pres"], "--left-graph", f["ha_graph"], "--left-word", "a",
                "--right-pres", f["pb_pres"], "--right-graph", f["hb_graph"],
                "--right-word", "b", "--pairs", "2"]
        assert main(argv + ["--identify", "a a=b b"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("vertices: 5\nword: a b\nprime: yes\nvertices: 5\n")
        for ident in ("a a", "aa"):
            assert main(argv + ["--identify", ident]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: bad identification (want d=psi): {ident!r}\n"

    def test_gamma_glued_ignores_identify(self, factors, capsys):
        # every family ignores the options it does not take
        f = factors
        argv = ["-p", f["zx_pres"], "gamma", "glued",
                "--left-pres", f["zx_pres"], "--left-graph", f["z3_graph"], "--left-word", "x",
                "--right-pres", f["zd_pres"], "--right-graph", f["z2_graph"],
                "--right-word", "d", "--pairs", "2"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        for ident in ("x=d", "aa"):
            assert main(argv + ["--identify", ident]) == 0
            assert capsys.readouterr() == plain

    def test_gamma_amalgam_checks_identifications_first(self, factors, tmp_path, capsys):
        # x is outside the left factor subgroup and the right factor is improper
        whole = tmp_path / "whole.graph"
        whole.write_text("vertices: 1\nbase: 0\nedge: 0 d 0\n")
        f = factors
        assert main(["-p", f["zx_pres"], "gamma", "amalgam",
                     "--left-pres", f["zx_pres"], "--left-graph", f["z3_graph"],
                     "--left-word", "x", "--right-pres", f["zd_pres"],
                     "--right-graph", str(whole), "--right-word", "d", "--pairs", "2",
                     "--identify", "x=d"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: identification element is not in the left factor subgroup\n")

    def test_usage_errors(self, tmp_path, s3_file):
        assert main(["-p", str(tmp_path / "nope.pres"), "enumerate",
                     "--n", "1"]) == 2
        assert main(["-p", s3_file, "no-such-command"]) == 2

    def test_budget_exit_code(self, s3_file):
        assert main(["-p", s3_file, "build", "--max-cosets", "1"]) == 3

    def test_calls_share_no_parsed_state(self, s3_file, capsys):
        # one parser serves every call in a process; no option carries over
        assert main(["-p", s3_file, "build", "-g", "s1"]) == 0
        assert capsys.readouterr().out.startswith("vertices: 3\n")
        assert main(["-p", s3_file, "build"]) == 0
        assert capsys.readouterr().out.startswith("vertices: 6\n")
        assert main(["-p", s3_file, "build", "--max-cosets", "1"]) == 3
        assert main(["-p", s3_file, "build"]) == 0
        assert capsys.readouterr().out.startswith("vertices: 6\n")

    def test_enumerate_output_mode(self, s3_file, capsys):
        assert main(["-p", s3_file, "enumerate", "--n", "3",
                     "--mode", "unbased"]) == 0
        assert "1 unbased classes" in capsys.readouterr().out


F2_TEXT = "gens: a b\n"
B3_TEXT = "gens: x y\nrel: x y x y^-1 x^-1 y^-1\n"
FACTOR_FILES = {"zx.pres": "gens: x\n", "zd.pres": "gens: d\n",
                "z3.graph": "vertices: 3\nbase: 0\nedge: 0 x 1\nedge: 1 x 2\nedge: 2 x 0\n",
                "z2.graph": "vertices: 2\nbase: 0\nedge: 0 d 1\nedge: 1 d 0\n",
                "pa.pres": "gens: a\nrel: a a a a\n", "pb.pres": "gens: b\nrel: b b b b\n",
                "ha.graph": "vertices: 2\nbase: 0\nedge: 0 a 1\nedge: 1 a 0\n",
                "hb.graph": "vertices: 2\nbase: 0\nedge: 0 b 1\nedge: 1 b 0\n"}
# the trivial subgroup of S3, numbered from a base that is not vertex 0
S3_SHUFFLED_GRAPH = "vertices: 6\nbase: 4\n" + "".join(
    f"edge: {u} {x} {v}\nedge: {v} {x} {u}\n" for x, u, v in
    [("s1", 4, 2), ("s1", 5, 1), ("s1", 0, 3), ("s2", 4, 5), ("s2", 2, 0), ("s2", 1, 3)])


def _certificate(cert):
    """What ``gamma`` prints before the graph, and the graph."""
    alphabet = cert.graph.presentation.alphabet
    header = (f"vertices: {cert.vertex_count}\nword: {alphabet.format_word(cert.word)}\n"
              f"prime: {'yes' if is_prime(cert.vertex_count) else 'no'}\n")
    return header, [cert.graph]


def _normalizer(sg):
    reps, nsg = sg.normalizer()
    fmt = sg.presentation.alphabet.format_word
    return ("coset representatives over the subgroup:\n"
            + "".join(f"  {fmt(rep)}\n" for rep in reps)
            + f"normalizer index: {nsg.index()}\n"), [nsg]


def _classes(pres, n, mode):
    found = enumerate_graphs(EnumerationTask(pres, n, mode=mode))
    return f"{len(found)} {mode} classes with {n} vertices\n", found


def _glued(f):
    return GluingSpec(f["z3_graph"], f["zx_pres"].word("x"),
                      f["z2_graph"], f["zd_pres"].word("d"), 2)


def _amalgam(f):
    spec = GluingSpec(f["ha_graph"], f["pa_pres"].word("a"),
                      f["hb_graph"], f["pb_pres"].word("b"), 2)
    return build_glued(spec, [(f["pa_pres"].word("a a"), f["pb_pres"].word("b b"))])


GLUED = ["--left-pres", "zx_pres", "--left-graph", "z3_graph", "--left-word", "x",
         "--right-pres", "zd_pres", "--right-graph", "z2_graph", "--right-word", "d",
         "--pairs", "2"]
AMALGAM = ["--left-pres", "pa_pres", "--left-graph", "ha_graph", "--left-word", "a",
           "--right-pres", "pb_pres", "--right-graph", "hb_graph", "--right-word", "b",
           "--pairs", "2", "--identify", "a a=b b"]

# Per emitting subcommand: its arguments, where a file key stands for the
# file's path, and, from the files loaded by the library, what it prints
# before its graphs and the subgroup graphs it prints.
EMITTING = {
    "build": (["s3", "build", "-g", "s1"], lambda f: ("", [f["refl"]])),
    "build-trivial": (["s3", "build"], lambda f: ("", [coset_enumerate(f["s3"])])),
    "normalizer": (["s3", "normalizer", "refl"], lambda f: _normalizer(f["refl"])),
    "normalizer-shuffled": (["s3", "normalizer", "shuffled"],
                            lambda f: _normalizer(f["shuffled"])),
    "intersect": (["s3", "intersect", "refl", "refl2"],
                  lambda f: ("", [intersect(f["refl"], f["refl2"])])),
    "hall": (["s3", "hall", "--order", "6", "--d", "2"],
             lambda f: ("", [hall_search(f["s3"], 6, 2)])),
    "enumerate-based": (["f2", "enumerate", "--n", "3"],
                        lambda f: _classes(f["f2"], 3, "based")),
    "enumerate-unbased": (["f2", "enumerate", "--n", "3", "--mode", "unbased"],
                          lambda f: _classes(f["f2"], 3, "unbased")),
    "gamma-type1": (["f2", "gamma", "type1", "--letter", "b", "--p", "7"],
                    lambda f: _certificate(build_type1(f["f2"], 1, 7))),
    "gamma-artin": (["b3", "gamma", "artin", "--p", "5"],
                    lambda f: _certificate(build_parallel_circles(f["b3"], 5, 0))),
    "gamma-type2": (["f2", "gamma", "type2", "--a", "a", "--k", "2", "--b", "b", "--l", "3",
                     "--pairs", "2"],
                    lambda f: _certificate(build_type2(f["f2"], 0, 2, 1, 3, 2))),
    "gamma-glued": (["zx_pres", "gamma", "glued", *GLUED],
                    lambda f: _certificate(build_glued(_glued(f)))),
    "gamma-amalgam": (["pa_pres", "gamma", "amalgam", *AMALGAM],
                      lambda f: _certificate(_amalgam(f))),
}
# the presentation of each graph file
GRAPH_PRES = {"refl": "s3", "refl2": "s3", "shuffled": "s3", "z3_graph": "zx_pres",
              "z2_graph": "zd_pres", "ha_graph": "pa_pres", "hb_graph": "pb_pres"}


@pytest.fixture
def emitting_files(tmp_path):
    """The files the EMITTING commands read: their paths and what the
    library loads from them, both keyed as the commands name them."""
    texts = {"s3": S3_TEXT, "f2": F2_TEXT, "b3": B3_TEXT, "shuffled": S3_SHUFFLED_GRAPH,
             "refl": "vertices: 3\nbase: 0\nedge: 0 s1 0\nedge: 0 s2 1\nedge: 1 s1 2\n"
                     "edge: 1 s2 0\nedge: 2 s1 1\nedge: 2 s2 2\n",
             "refl2": "vertices: 3\nbase: 0\nedge: 0 s1 1\nedge: 0 s2 0\nedge: 1 s1 0\n"
                      "edge: 1 s2 2\nedge: 2 s1 2\nedge: 2 s2 1\n",
             **{name.replace(".", "_"): text for name, text in FACTOR_FILES.items()}}
    paths, loaded = {}, {}
    for key, text in texts.items():
        (tmp_path / key).write_text(text)
        paths[key] = str(tmp_path / key)
        if key not in GRAPH_PRES:
            loaded[key] = parse_presentation(text)
    for key, pres in GRAPH_PRES.items():
        loaded[key] = subgroup_from_graph(parse_graph(texts[key], loaded[pres].alphabet),
                                          loaded[pres])
    return paths, loaded


def _argv(name, paths, tmp_path):
    """The argv of an EMITTING command, with a DOT file where it takes one."""
    args, _ = EMITTING[name]
    argv = ["-p", *(paths.get(a, a) for a in args)]
    return argv if args[1] == "enumerate" else argv + ["--dot", str(tmp_path / "out.dot")]


@pytest.mark.parametrize("name", EMITTING)
def test_cli_writes_what_the_library_writes(name, emitting_files, tmp_path, capsys):
    """stdout is ``serialize_graph(sg.graph)`` and the DOT file ``export_dot(sg.graph)``
    for each subgroup graph ``sg`` the library computes."""
    paths, loaded = emitting_files
    header, graphs = EMITTING[name][1](loaded)
    assert main(_argv(name, paths, tmp_path)) == 0
    out, err = capsys.readouterr()
    if name.startswith("enumerate"):
        texts = [f"# class {i}\n{serialize_graph(sg.graph)}" for i, sg in enumerate(graphs)]
        assert out == header + "".join(texts)
    else:
        [sg] = graphs
        assert out == header + serialize_graph(sg.graph)
        assert (tmp_path / "out.dot").read_text() == export_dot(sg.graph)
    assert err == ""


def test_no_xgraph_is_built_on_the_way_out(emitting_files, tmp_path, monkeypatch, capsys):
    """Every emitting command writes its graphs from the coset table."""
    paths, _ = emitting_files

    def no_graph(sg):
        raise AssertionError("SubgroupGraph.graph was built")

    monkeypatch.setattr(SubgroupGraph, "graph", property(no_graph))
    for name in EMITTING:
        assert main(_argv(name, paths, tmp_path)) == 0, name
        assert capsys.readouterr().err == "", name


def _folded(edges):
    """At most one edge per origin and letter, and per terminus and letter."""
    return all(len({(e[i], e[1]) for e in edges}) == len(edges) for i in (0, 2))


def _bfs_numbering(n, base, edges):
    """Vertices in BFS order from ``base``, each vertex scanning its arcs
    letter by letter, out-edges before in-edges, or None if one is missed."""
    arcs = [[] for _ in range(n)]
    for u, li, v in edges:
        arcs[u].append((2 * li, v))
        arcs[v].append((2 * li + 1, u))
    order = [base]
    for v in order:
        for _, t in sorted(arcs[v]):
            if t not in order:
                order.append(t)
    return order if len(order) == n else None


def test_serialize_graph_canonicalizes_iff_folded_and_spanned():
    """Seeded small graphs, folded or not, spanned from the base or not, in
    canonical numbering or not: serialize renumbers exactly the folded ones
    whose base reaches every vertex, and writes any other as it stands."""
    rng = random.Random(16)
    kinds = Counter()
    for _ in range(600):
        n, k = rng.randint(1, 6), rng.randint(1, 3)
        edges = set()
        for li in range(k):  # a partial permutation per letter ...
            ends = rng.sample(range(n), n)
            edges |= {(u, li, ends[u]) for u in range(n) if rng.random() < 0.8}
        for _ in range(rng.choice([0, 0, 1, 2])):  # ... and sometimes a fold to make
            edges.add((rng.randrange(n), rng.randrange(k), rng.randrange(n)))
        base = rng.randrange(n)
        names = ["a", "b", "c"][:k]
        g = BasedXGraph(XGraph(Alphabet(names), n, edges), base)
        folded, order = _folded(edges), _bfs_numbering(n, base, edges)
        if folded and order is not None:
            new = {v: i for i, v in enumerate(order)}
            base, edges = 0, {(new[u], li, new[v]) for u, li, v in edges}
        kinds[folded, order is not None, order == [*range(n)]] += 1
        expected = [f"vertices: {n}", f"base: {base}"]
        expected += [f"edge: {u} {names[li]} {v}" for u, li, v in sorted(edges)]
        assert serialize_graph(g) == "\n".join(expected) + "\n"
    # every combination of folded, spanned and (where spanned) canonical occurs
    assert len(kinds) == 6 and min(kinds.values()) >= 10, kinds
