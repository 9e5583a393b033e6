"""Malformed CLI input is a usage error: exit 2, nothing on stdout, and one
``error:`` line on stderr, never a traceback.  Running out of memory exits 3
the same way."""

import argparse
import inspect
import random

import pytest

from stallings import (
    Presentation,
    build_type1,
    coset_enumerate,
    free_presentation,
    serialize_graph,
    serialize_presentation,
)
from stallings import cli
from stallings.cli import main

FILES = {
    "pres": "gens: a b\n",
    "graph": "vertices: 1\nbase: 0\nedge: 0 a 0\nedge: 0 b 0\n",
    "bad_vertices": "vertices: x\nbase: 0\n",
    "bad_base": "vertices: 1\nbase: x\nedge: 0 a 0\nedge: 0 b 0\n",
    # the index-2 subgroup of F(a, b) containing a
    "index2": "vertices: 2\nbase: 0\nedge: 0 a 0\nedge: 0 b 1\nedge: 1 a 1\nedge: 1 b 0\n",
    "huge_exponent_pres": "gens: a b\nrel: a^9223372036854775808\n",
    "duplicate_vertices": "vertices: 5\nvertices: 1\nbase: 0\nedge: 0 a 0\nedge: 0 b 0\n",
    "duplicate_base": "vertices: 1\nbase: 3\nbase: 0\nedge: 0 a 0\nedge: 0 b 0\n",
    # 10^12 vertices and no edges: rejected before any per-vertex work
    "huge_vertex_count": "vertices: 1000000000000\nbase: 0\n",
    "z_pres": "gens: a\n",
    "bad_pres": "gens: a\nrel: c\n",
}

CASES = {
    # name: (arguments after -p, part of the error)
    "type1-without-p": (["gamma", "type1", "--letter", "a"], "--p"),
    "artin-without-p": (["gamma", "artin"], "--p"),
    # an empty name is a name, not the default first generator
    "artin-empty-letter": (["gamma", "artin", "--letter", "", "--p", "3"],
                           "unknown generator: ''"),
    "type2-without-lengths": (["gamma", "type2", "--a", "a", "--b", "b",
                               "--pairs", "1"], "--k"),
    "type2-zero-pairs": (["gamma", "type2", "--a", "a", "--k", "2", "--b", "b",
                          "--l", "3", "--pairs", "0"], "pair count must be positive"),
    "type2-negative-pairs": (["gamma", "type2", "--a", "a", "--k", "2", "--b", "b",
                              "--l", "3", "--pairs", "-1"], "pair count must be positive"),
    "glued-without-factors": (["gamma", "glued", "--pairs", "2"], "--left-pres"),
    "amalgam-without-factors": (["gamma", "amalgam"], "--left-pres"),
    "bad-vertex-count": (["index", "{bad_vertices}"], "line 1: bad vertex count"),
    "bad-base": (["cosets", "{bad_base}"], "line 2: bad base vertex"),
    "verify-bad-vertex-count": (["verify", "{bad_vertices}"], "line 1: bad vertex count"),
    "max-cosets-zero": (["build", "-g", "a", "--max-cosets", "0"], "--max-cosets"),
    "max-cosets-negative": (["build", "--max-cosets", "-2"], "--max-cosets"),
    "max-cosets-not-a-number": (["build", "--max-cosets", "x"], "--max-cosets"),
    "hall-zero-order": (["hall", "--order", "0", "--d", "0"], "must be positive"),
    "hall-zero-d": (["hall", "--order", "6", "--d", "0"], "must be positive"),
    "malnormal-zero-order": (["malnormal", "{graph}", "--order", "0"], "group order"),
    "malnormal-negative-order": (["malnormal", "{index2}", "--order", "-4"], "group order"),
    "coset-meet-vertex-too-large": (["coset-meet", "{index2}", "{index2}", "0", "5"],
                              "no vertex pair (0, 5)"),
    "coset-meet-negative-vertex": (["coset-meet", "{index2}", "{index2}", "0", "-1"],
                             "no vertex pair (0, -1)"),
    "coset-meet-negative-wraps": (["coset-meet", "{index2}", "{index2}", "1", "-1"],
                            "no vertex pair (1, -1)"),
    "membership-huge-exponent": (["membership", "{graph}", "a^9223372036854775808"],
                                 "exponent too large"),
    "build-huge-negative-exponent": (["build", "-g", "b^-99999999999999999999"],
                                     "exponent too large"),
    # 2^62 fits in a Py_ssize_t; the letter list of that length cannot be allocated
    "membership-exponent-2-62": (["membership", "{graph}", "a^4611686018427387904"],
                                 "exponent too large"),
    "build-exponent-2-62": (["build", "-g", "b^4611686018427387904"], "exponent too large"),
    # past int()'s 4300-digit limit for decimal strings
    "build-exponent-of-5000-digits": (["build", "-g", "a^" + "9" * 5000], "exponent too large"),
    "relator-huge-exponent": (["gamma", "glued", "--left-pres", "{huge_exponent_pres}",
                               "--left-graph", "{graph}", "--left-word", "a",
                               "--right-pres", "{pres}", "--right-graph", "{graph}",
                               "--right-word", "a", "--pairs", "1"],
                              "line 2: exponent too large"),
    "duplicate-vertices": (["index", "{duplicate_vertices}"], "line 2: duplicate vertices line"),
    "duplicate-base": (["cosets", "{duplicate_base}"], "line 3: duplicate base line"),
    "huge-vertex-count": (["index", "{huge_vertex_count}"], "not X-regular"),
    # a non-positive vertex count is malformed, not a computed "no" (exit 1)
    "certify-prime-zero": (["certify", "{index2}", "--word", "b", "--prime", "0"],
                           "argument --prime: must be a positive integer, got '0'"),
    "certify-prime-negative": (["certify", "{index2}", "--word", "b", "--prime", "-3"],
                               "argument --prime: must be a positive integer, got '-3'"),
    "dot-to-unwritable-path": (["build", "-g", "a", "-g", "b", "--dot", "{graph}/x.dot"],
                               "Not a directory"),
    # the header lines come after the DOT file, so none reach stdout
    "normalizer-dot-to-unwritable-path": (["normalizer", "{index2}", "--dot", "{graph}/x.dot"],
                                          "Not a directory"),
    "gamma-dot-to-unwritable-path": (["gamma", "type1", "--letter", "a", "--p", "3",
                                      "--dot", "{graph}/x.dot"], "Not a directory"),
}


# Errors are reported in the order the arguments load: the presentation,
# then each graph file in turn, then words.
FIRST_ERROR = {
    "conjugate": (["-p", "{pres}", "conjugate", "{bad_vertices}", "no-such.graph"],
                  "line 1: bad vertex count"),
    "intersect": (["-p", "{pres}", "intersect", "{bad_vertices}", "no-such.graph"],
                  "line 1: bad vertex count"),
    "coset-meet": (["-p", "{pres}", "coset-meet", "{bad_base}", "no-such.graph", "0", "0"],
                   "line 2: bad base vertex"),
    "membership": (["-p", "{pres}", "membership", "{bad_vertices}", "zz"],
                   "line 1: bad vertex count"),
    "certify": (["-p", "{pres}", "certify", "{bad_vertices}", "--word", "zz"],
                "line 1: bad vertex count"),
    "presentation": (["-p", "{bad_pres}", "index", "{bad_vertices}"],
                     "line 2: unknown generator: 'c'"),
}

# Valid inputs, far inside the node budget, whose searches go deeper than the
# default recursion limit, and the first line each prints.
DEEP_SEARCHES = {
    "enumerate-cyclic-index-1000": (["-p", "{z_pres}", "enumerate", "--n", "1000"],
                                    "1 based classes with 1000 vertices"),
    "hall-free-order-500": (["-p", "{pres}", "hall", "--order", "500", "--d", "1"],
                            "vertices: 500"),
}

# Per subcommand whose handler is passed subgroups, how many graph files it loads.
LOADED_GRAPHS = {"index": 1, "cosets": 1, "membership": 1, "basis": 1, "conjugate": 2,
                 "normal": 1, "normalizer": 1, "intersect": 2, "coset-meet": 2,
                 "malnormal": 1, "certify": 1}


def _argv(tmp_path, argv):
    """``argv`` with each ``{name}`` replaced by the path of a file holding
    ``FILES[name]``."""
    paths = {}
    for name, text in FILES.items():
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    return [arg.format(**paths) for arg in argv]


def _run(tmp_path, capsys, argv):
    """The exit code of ``main`` on ``_argv(tmp_path, argv)`` and its one
    ``error:`` line; stdout must stay empty."""
    code = main(_argv(tmp_path, argv))
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return code, lines[0]


@pytest.mark.parametrize("argv, message", CASES.values(), ids=CASES.keys())
def test_malformed_input_is_a_usage_error(tmp_path, capsys, argv, message):
    code, line = _run(tmp_path, capsys, ["-p", "{pres}", *argv])
    assert code == 2
    assert message in line


@pytest.mark.parametrize("argv, message", FIRST_ERROR.values(), ids=FIRST_ERROR.keys())
def test_the_first_argument_to_fail_is_reported(tmp_path, capsys, argv, message):
    code, line = _run(tmp_path, capsys, argv)
    assert code == 2
    assert message in line


@pytest.mark.parametrize("argv, first", DEEP_SEARCHES.values(), ids=DEEP_SEARCHES.keys())
def test_a_search_past_the_recursion_limit_answers(tmp_path, capsys, argv, first):
    assert main(_argv(tmp_path, argv)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[0] == first


def test_each_handler_takes_a_subgroup_per_graph_file():
    # main calls fn(args, pres, *subgroups); a mismatch would be a TypeError traceback
    [subcommands] = [action.choices for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert set(LOADED_GRAPHS) < set(subcommands)
    for name, parser in subcommands.items():
        graphs = parser.get_default("graphs")
        positionals = [action.dest for action in parser._actions if not action.option_strings]
        assert graphs == [dest for dest in positionals if dest.startswith("graphfile")], name
        assert len(graphs) == LOADED_GRAPHS.get(name, 0), name
        params = list(inspect.signature(parser.get_default("fn")).parameters)
        assert params[:2] == ["args", "pres"] and len(params) == 2 + len(graphs), name


def test_running_out_of_memory_is_a_budget_error(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "coset_enumerate", exhausted)
    assert _run(tmp_path, capsys, ["-p", "{pres}", "build", "-g", "a"]) == (3, "error: MemoryError")


def _mutant(text: str, rng: random.Random) -> str:
    """``text`` after one to three seeded edits: a line dropped or repeated,
    a line cut to a prefix of at least one character, two tokens of a line
    swapped, or the lines shuffled.  A swap or cut of a line with no token
    leaves it as it is, drawing no more than the edit.  Every file it gets
    has more than three lines."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        edit = rng.choice(("drop", "repeat", "shuffle", "swap", "cut"))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(j, lines[i])
        elif edit == "shuffle":
            rng.shuffle(lines)
        elif not lines[i].split():
            continue
        elif edit == "swap":
            tokens = lines[i].split()
            a, b = rng.randrange(len(tokens)), rng.randrange(len(tokens))
            tokens[a], tokens[b] = tokens[b], tokens[a]
            lines[i] = " ".join(tokens)
        else:
            lines[i] = lines[i][:rng.randrange(1, len(lines[i]) + 1)]
    return "\n".join(lines) + "\n"


def test_mutated_graph_files_keep_the_exit_contract(tmp_path, capsys):
    """Every subcommand that loads a graph file answers a damaged one on the
    contract: exit 2 or 3 with one ``error:`` line and nothing on stdout,
    ``verify`` exit 1 with one ``invalid:`` line, else exit 0 or 1, where an
    exit 1 that prints no answer has one ``error:`` line."""
    s3 = Presentation.parse(["s1", "s2"], ["s1 s1", "s2 s2", "s1 s2 s1 s2 s1 s2"])
    f2 = free_presentation(["a", "b"])
    subgroups = [(s3, coset_enumerate(s3, [s3.word(w) for w in gens]), "s1", 6)
                 for gens in ([], ["s1"], ["s1 s2"])]
    subgroups.append((f2, build_type1(f2, 0, 61).graph, "a b", 61))
    bases = []
    for i, (pres, sg, word, order) in enumerate(subgroups):
        (tmp_path / f"{i}.pres").write_text(serialize_presentation(pres))
        text = serialize_graph(sg.graph)
        (tmp_path / f"{i}.graph").write_text(text)
        bases.append((str(tmp_path / f"{i}.pres"), str(tmp_path / f"{i}.graph"), text, word,
                      order))
    mutant = tmp_path / "mutant.graph"
    rng = random.Random(27)
    codes = set()
    for _ in range(300):
        pres, valid, text, word, order = rng.choice(bases)
        mutant.write_text(_mutant(text, rng))
        for argv in (["verify", mutant], ["index", mutant], ["basis", mutant],
                     ["membership", mutant, word], ["intersect", mutant, valid],
                     ["coset-meet", mutant, valid, "1", "0"],
                     ["malnormal", mutant, "--order", order]):
            code = main(["-p", pres, *map(str, argv)])
            out, err = capsys.readouterr()
            lines = err.splitlines()
            if code in (2, 3):
                assert out == "" and len(lines) == 1 and lines[0].startswith("error: "), argv
            elif argv[0] == "verify" and code == 1:
                assert out == "" and len(lines) == 1 and lines[0].startswith("invalid: ")
            else:
                assert code in (0, 1), argv
                if out:
                    assert err == "", argv
                else:
                    assert code == 1 and len(lines) == 1 and lines[0].startswith("error: ")
            codes.add(code)
    assert {0, 1, 2} <= codes
