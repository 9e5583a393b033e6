"""``--help`` of the parser and of every subcommand exits 0, and its usage
text at 80 columns is pinned, so a rewrite of ``build_parser`` that
changes an argument's name, order or kind shows here."""

import pytest

from stallings.cli import build_parser, main

USAGE = {
    "": (
        "usage: stallings [-h] -p PRESENTATION\n"
        "                 {build,verify,index,cosets,membership,basis,conjugate,normal,normalizer,intersect,coset-meet,malnormal,hall,enumerate,gamma,certify}\n"
        "                 ..."
    ),
    "build": (
        "usage: stallings build [-h] [-g GENERATORS] [--max-cosets MAX_COSETS]\n"
        "                       [--dot DOT]"
    ),
    "verify": "usage: stallings verify [-h] graphfile",
    "index": "usage: stallings index [-h] graphfile",
    "cosets": "usage: stallings cosets [-h] graphfile",
    "membership": "usage: stallings membership [-h] graphfile word",
    "basis": "usage: stallings basis [-h] graphfile",
    "conjugate": "usage: stallings conjugate [-h] graphfile1 graphfile2",
    "normal": "usage: stallings normal [-h] graphfile",
    "normalizer": "usage: stallings normalizer [-h] [--dot DOT] graphfile",
    "intersect": "usage: stallings intersect [-h] [--dot DOT] graphfile1 graphfile2",
    "coset-meet": "usage: stallings coset-meet [-h] graphfile1 graphfile2 vertex1 vertex2",
    "malnormal": "usage: stallings malnormal [-h] --order ORDER graphfile",
    "hall": "usage: stallings hall [-h] --order ORDER --d D [--dot DOT]",
    "enumerate": "usage: stallings enumerate [-h] --n N [--mode {based,unbased}]",
    "gamma": (
        "usage: stallings gamma [-h] [--letter LETTER] [--p P] [--a A] [--k K] [--b B]\n"
        "                       [--l L] [--pairs PAIRS] [--left-pres LEFT_PRES]\n"
        "                       [--left-graph LEFT_GRAPH] [--left-word LEFT_WORD]\n"
        "                       [--right-pres RIGHT_PRES] [--right-graph RIGHT_GRAPH]\n"
        "                       [--right-word RIGHT_WORD] [--identify IDENTIFY]\n"
        "                       [--dot DOT]\n"
        "                       {type1,artin,type2,glued,amalgam}"
    ),
    "certify": "usage: stallings certify [-h] --word WORD [--prime PRIME] graphfile",
}


@pytest.mark.parametrize("command", USAGE, ids=[c or "stallings" for c in USAGE])
def test_help_exits_zero_with_pinned_usage(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(([command] if command else []) + ["--help"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.split("\n\n")[0] == USAGE[command]


@pytest.mark.parametrize("command", ["", "build", "gamma"])
def test_usage_is_pinned_after_another_call_built_the_parser(monkeypatch, capsys, command):
    # main keeps one parser per process; the width is read when help prints
    build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "40")
    assert main(["build", "--help"]) == 0
    assert main(["-p", "no-such.pres", "index", "no-such.graph"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("COLUMNS", "80")
    assert main(([command] if command else []) + ["--help"]) == 0
    assert capsys.readouterr().out.split("\n\n")[0] == USAGE[command]
