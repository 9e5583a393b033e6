"""Malformed CLI input is a usage error: exit 2, nothing on stdout, and one
``error:`` line on stderr, never a traceback."""

import pytest

from stallings.cli import main

FILES = {
    "pres": "gens: a b\n",
    "graph": "vertices: 1\nbase: 0\nedge: 0 a 0\nedge: 0 b 0\n",
    "bad_vertices": "vertices: x\nbase: 0\n",
    "bad_base": "vertices: 1\nbase: x\nedge: 0 a 0\nedge: 0 b 0\n",
    # the index-2 subgroup of F(a, b) containing a
    "index2": "vertices: 2\nbase: 0\nedge: 0 a 0\nedge: 0 b 1\nedge: 1 a 1\nedge: 1 b 0\n",
}

CASES = {
    # name: (STALLINGS_MAX_COSETS or None, arguments after -p, part of the error)
    "env-not-an-integer": ("abc", ["index", "{graph}"], "STALLINGS_MAX_COSETS"),
    "env-zero": ("0", ["build"], "STALLINGS_MAX_COSETS"),
    "env-negative": ("-3", ["enumerate", "--n", "2"], "STALLINGS_MAX_COSETS"),
    "type1-without-p": (None, ["gamma", "type1", "--letter", "a"], "--p"),
    "artin-without-p": (None, ["gamma", "artin"], "--p"),
    "type2-without-lengths": (None, ["gamma", "type2", "--a", "a", "--b", "b",
                                     "--pairs", "1"], "--k"),
    "glued-without-factors": (None, ["gamma", "glued", "--pairs", "2"], "--left-pres"),
    "amalgam-without-factors": (None, ["gamma", "amalgam"], "--left-pres"),
    "bad-vertex-count": (None, ["index", "{bad_vertices}"], "line 1: bad vertex count"),
    "bad-base": (None, ["cosets", "{bad_base}"], "line 2: bad base vertex"),
    "verify-bad-vertex-count": (None, ["verify", "{bad_vertices}"], "line 1: bad vertex count"),
    "max-cosets-zero": (None, ["build", "-g", "a", "--max-cosets", "0"], "--max-cosets"),
    "max-cosets-negative": (None, ["build", "--max-cosets", "-2"], "--max-cosets"),
    "hall-zero-order": (None, ["hall", "--order", "0", "--d", "0"], "must be positive"),
    "hall-zero-d": (None, ["hall", "--order", "6", "--d", "0"], "must be positive"),
    "malnormal-zero-order": (None, ["malnormal", "{graph}", "--order", "0"], "group order"),
    "malnormal-negative-order": (None, ["malnormal", "{index2}", "--order", "-4"], "group order"),
    "coset-meet-vertex-too-large": (None, ["coset-meet", "{index2}", "{index2}", "0", "5"],
                                    "no vertex pair (0, 5)"),
    "coset-meet-negative-vertex": (None, ["coset-meet", "{index2}", "{index2}", "0", "-1"],
                                   "no vertex pair (0, -1)"),
    "coset-meet-negative-wraps": (None, ["coset-meet", "{index2}", "{index2}", "1", "-1"],
                                  "no vertex pair (1, -1)"),
}


@pytest.mark.parametrize("env, argv, message", CASES.values(), ids=CASES.keys())
def test_malformed_input_is_a_usage_error(tmp_path, monkeypatch, capsys, env, argv, message):
    paths = {}
    for name, text in FILES.items():
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    if env is None:
        monkeypatch.delenv("STALLINGS_MAX_COSETS", raising=False)
    else:
        monkeypatch.setenv("STALLINGS_MAX_COSETS", env)
    code = main(["-p", paths["pres"]] + [arg.format(**paths) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert message in lines[0]
