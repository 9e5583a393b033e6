"""The verdict ``tools/bench_record.py`` gives a metric from ten pairs, the
source line counts and digest it records, and the two exports it runs."""

import hashlib
import json
import importlib.util
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def _verdict(before, after, better="lower", bound=0.25):
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - a) > 0 for b, a in zip(before, after))
    return bench_record.verdict(before, after, wins, sign, bound)


@pytest.mark.parametrize("after, better, expected", [
    ([0.80] * 10, "lower", "gain"),
    ([0.80] * 8 + [1.05, 1.05], "lower", "within bound"),  # 8 of 10 pairs won
    ([0.999] * 10, "lower", "within bound"),  # 10 wins inside the parent's spread
    ([1.30] * 10, "lower", "worse"),
    ([1.20] * 10, "lower", "within bound"),
    ([1.30] * 10, "higher", "gain"),
    ([0.70] * 10, "higher", "worse"),
])
def test_verdicts(after, better, expected):
    assert _verdict(PARENT, after, better) == expected


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]
    assert _verdict(noisy, [1.1] * 10) == "unresolved"
    assert _verdict(noisy, [0.5] * 10) == "gain"
    assert _verdict(noisy, [0.55] * 5 + [1.4] * 5) == "unresolved"


def test_every_run_better_is_not_unresolved():
    wide = [1.0] * 4 + [1.1] * 2 + [1.2] * 4
    assert _verdict(wide, [0.99] * 10, bound=0.1) == "within bound"
    assert _verdict(wide, [1.05] * 10, bound=0.1) == "unresolved"


def test_source_lines_count_the_package_modules_only(tmp_path):
    package = tmp_path / "src" / "stallings"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("\n\n\nz = 3")  # no newline at the end, as wc -l counts
    (package / "notes.txt").write_text("not\ncode\n")
    (tmp_path / "src" / "other.py").write_text("w = 4\n")
    assert bench_record.source_lines(tmp_path) == 5


MODULE = '''"""A module docstring
over two lines."""

# a comment
x = (1,
     2)  # a two-line statement


class C:
    """A class docstring."""

    def f(self):
        """A function
        docstring."""
        return "not a docstring"
'''


def test_code_lines_leave_out_blank_lines_comments_and_docstrings(tmp_path):
    assert bench_record.code_lines(MODULE) == 5
    # after a statement the first string is no docstring: it counts once, on its first line
    assert bench_record.code_lines("y = 1\n" + MODULE) == 7
    package = tmp_path / "src" / "stallings"
    package.mkdir(parents=True)
    (package / "a.py").write_text(MODULE)
    (package / "b.py").write_text("z = 3")
    (tmp_path / "src" / "other.py").write_text("w = 4\n")
    assert bench_record.source_code_lines(tmp_path) == 6
    assert bench_record.module_code_lines(tmp_path) == {"a.py": 5, "b.py": 1}
    assert bench_record.source_lines(tmp_path) == 15  # as wc -l counts, b.py has none


def test_changed_modules_list_only_the_counts_that_differ(tmp_path):
    trees = {}
    for side, files in (("before", {"a.py": "1\n2\n", "b.py": "1\n", "gone.py": "1\n"}),
                        ("after", {"a.py": "1\n", "b.py": "2\n", "new.py": "1\n2\n3\n"})):
        package = tmp_path / side / "src" / "stallings"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
        trees[side] = bench_record.module_lines(tmp_path / side)
    assert trees["before"] == {"a.py": 2, "b.py": 1, "gone.py": 1}
    assert bench_record.changed_modules(trees["before"], trees["after"]) == {
        "a.py": {"before": 2, "after": 1},
        "gone.py": {"before": 1, "after": 0},
        "new.py": {"before": 0, "after": 3},
    }


def test_line_counts_record_code_lines_by_module(tmp_path):
    """A docstring turned into a statement keeps the line count and adds a code line."""
    after = MODULE.replace('"""A class docstring."""', 'doc = "A class docstring."')
    for side, text in (("before", MODULE), ("after", after)):
        package = tmp_path / side / "src" / "stallings"
        package.mkdir(parents=True)
        (package / "a.py").write_text(text)
        (package / "b.py").write_text("z = 3\n")
    counts = bench_record.line_counts(tmp_path / "before", tmp_path / "after")
    assert counts == {
        "src_lines": {"before": 16, "after": 16},
        "src_code_lines": {"before": 6, "after": 7},
        "src_lines_by_module": {},
        "src_code_lines_by_module": {"a.py": {"before": 5, "after": 6}},
    }


def test_source_sha256_covers_the_package_modules_in_name_order(tmp_path):
    package = tmp_path / "src" / "stallings"
    package.mkdir(parents=True)
    (package / "b.py").write_text("y = 2\n")
    (package / "a.py").write_text("x = 1\n")
    (package / "notes.txt").write_text("not\ncode\n")
    (tmp_path / "src" / "other.py").write_text("w = 4\n")
    digest = bench_record.source_sha256(tmp_path)
    assert digest == hashlib.sha256(b"a.py\n6\nx = 1\nb.py\n6\ny = 2\n").hexdigest()
    (package / "notes.txt").write_text("changed\n")
    (tmp_path / "src" / "other.py").write_text("changed\n")
    assert bench_record.source_sha256(tmp_path) == digest
    # the same bytes split differently between the files
    (package / "a.py").write_text("x = 1\ny")
    (package / "b.py").write_text(" = 2\n")
    assert bench_record.source_sha256(tmp_path) != digest
    (package / "a.py").write_text("x = 1\n")
    (package / "b.py").write_text("y = 3\n")
    assert bench_record.source_sha256(tmp_path) != digest


def _pairs(after_wall, after_failed, attempted=100):
    """Ten pairs of one-metric runs in which the parent fails nothing."""
    return [{"before": {"attempted": attempted, "failed": 0,
                        "metrics": {"wall_s": {"value": b, "unit": "s"}}},
             "after": {"attempted": attempted, "failed": after_failed,
                       "metrics": {"wall_s": {"value": after_wall, "unit": "s"}}}}
            for b in PARENT]


SPECS = {"wall_s": {"better": "lower", "bound": 0.25}}


def test_no_gain_where_the_change_fails_a_larger_share():
    assert bench_record.summarize(_pairs(0.80, 0), SPECS)["wall_s"]["verdict"] == "gain"
    failing = _pairs(0.80, 1)
    assert bench_record.failed_share(failing, "after") == pytest.approx(0.01)
    assert bench_record.failed_share(failing, "before") == 0
    assert bench_record.summarize(failing, SPECS)["wall_s"]["verdict"] == "within bound"
    assert bench_record.summarize(_pairs(1.30, 1), SPECS)["wall_s"]["verdict"] == "worse"


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
                           *args], cwd=repo, check=True, capture_output=True, text=True).stdout


def test_both_sides_are_exported_alike(tmp_path, monkeypatch):
    """The working tree is exported as the parent is, from a tree object
    staged through a scratch index: an edited file and an untracked module
    are in it, ignored files are not, and ``git status`` stays as it was."""
    repo = tmp_path / "repo"
    package = repo / "src" / "stallings"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n")
    (repo / ".gitignore").write_text("out/\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (package / "a.py").write_text("x = 2\n")
    (package / "b.py").write_text("y = 3\n")
    (repo / "out").mkdir()
    (repo / "out" / "run.json").write_text("{}\n")
    status = _git(repo, "status", "--porcelain")
    monkeypatch.setattr(bench_record, "ROOT", repo)
    work = tmp_path / "work"
    work.mkdir()
    bench_record.export("HEAD", work / "parent")
    bench_record.export(bench_record.working_tree(work), work / "change")
    assert sorted(p.name for p in work.iterdir()) == ["change", "index", "parent"]
    assert (work / "parent" / "src" / "stallings" / "a.py").read_text() == "x = 1\n"
    assert not (work / "parent" / "src" / "stallings" / "b.py").exists()
    assert bench_record.source_sha256(work / "change") == bench_record.source_sha256(repo)
    assert (work / "change" / "src" / "stallings" / "b.py").read_text() == "y = 3\n"
    assert (work / "change" / ".gitignore").exists()
    assert not (work / "change" / "out").exists()
    assert _git(repo, "status", "--porcelain") == status
    assert bench_record.line_counts(work / "parent", work / "change")["src_lines"] == {
        "before": 1, "after": 2}


BUSY = {"parent": 0.5, "change": 0.25}


def test_each_workload_records_one_traced_run_per_side(tmp_path, monkeypatch):
    """On stubbed exports and runs: after a workload's alternated pairs, one
    ``--trace 1`` run per side, on the seed after the largest, of the traced
    length, whose metric values are stored under ``layers`` with no verdict."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 20, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))
    calls = []

    def run(checkout, workload, seed, seconds, trace=0):
        calls.append((checkout.name, workload, seed, seconds, trace))
        metrics = ({"fileio.parse_graph.busy_s": {"value": BUSY[checkout.name], "unit": "s"}}
                   if trace else {"wall_s": {"value": 1.0, "unit": "s"}})
        return {"context": {"cpu": "c", "nproc": 2, "python": "3"}, "correct": True,
                "attempted": 4, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    def export(rev, dest):
        (dest / "src" / "stallings").mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text("{}\n")

    monkeypatch.setattr(bench_record, "export", export)
    monkeypatch.setattr(bench_record, "working_tree", lambda tmp: "tree")
    monkeypatch.setattr(bench_record, "compile_tree", lambda checkout: None)
    monkeypatch.setattr(bench_record, "run", run)
    assert bench_record.main(["--parent", "p", "--tag", "t", "--seeds", "5", "3"]) == 0
    assert calls == [("parent", "w", 5, 20, 0), ("change", "w", 5, 20, 0),
                     ("change", "w", 3, 20, 0), ("parent", "w", 3, 20, 0),
                     ("parent", "w", 6, bench_record.TRACE_SECONDS, 1),
                     ("change", "w", 6, bench_record.TRACE_SECONDS, 1)]
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["workloads"]["w"]["layers"] == {
        "seed": 6, "seconds": bench_record.TRACE_SECONDS,
        "before": {"fileio.parse_graph.busy_s": 0.5}, "after": {"fileio.parse_graph.busy_s": 0.25}}
    assert list(record["workloads"]["w"]["metrics"]) == ["wall_s"]
