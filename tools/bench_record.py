"""Record a BENCH_<tag>.json: the benchmark on a parent commit and on the working tree.

Runs ``perfbench/run.py --trace 0`` for each seed and each workload that
``BENCHMARK.json`` lists, for the run length it sets, twice: once in an
export of the parent commit and once in an export of the working tree, both
made with ``git archive`` into one temporary directory, alternating which
side runs first from one pair to the next.  The working tree is exported as a
tree object staged through a scratch index, so it holds edited and untracked
files, leaves out ignored ones, and leaves the repository's own index and
``git status`` as they were.  Writes the machine (CPU model, ``nproc``,
Python version), the seeds, every run's end-to-end metrics and, per workload
and metric, each side's median and quartiles, how many pairs the change won
and a verdict from the metric's bound, each run's ``attempted`` and
``failed`` operation counts, the line count of ``src/stallings/*.py`` on
each side and their code lines (no blank, comment-only or docstring lines),
each in total and for each module whose count differs, and a SHA-256 of
those files on each side, which names an uncommitted working tree too.  No
metric of a workload gets ``gain`` where the change failed a larger share of
its operations than the parent.  After a workload's pairs, one
``--trace 1`` run per side, on the seed after the largest one given and for
``TRACE_SECONDS``, gives its per-layer metrics (per traced pass) under
``layers``, with no verdict, since one run has no spread:

    python3 tools/bench_record.py --parent d67a651 --tag 6 --seeds 701 702 703

Both sides run the same benchmark code: the parent's ``perfbench/`` must
match the working tree's, or the script stops.  Both are byte-compiled
(``compileall`` on ``src`` and ``perfbench``) before the first pair, so
that neither side's ``setup_s`` includes compiling the package when the
interpreter writes no bytecode of its own.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_SECONDS = 8


def export(rev: str, dest: Path) -> None:
    """Write the files of commit or tree ``rev`` into the new directory ``dest``."""
    archive = dest.with_name(dest.name + ".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev],
                   cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def working_tree(tmp: Path) -> str:
    """The working tree's files, ignored ones left out, as a git tree object,
    staged through a scratch index in ``tmp`` so that the repository's own
    index stays as it is."""
    env = {**os.environ, "GIT_INDEX_FILE": str(tmp / "index")}
    subprocess.run(["git", "add", "-A"], cwd=ROOT, env=env, check=True)
    return subprocess.run(["git", "write-tree"], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def same_benchmark(parent: Path, change: Path) -> bool:
    """True iff both checkouts hold the same perfbench/ sources and BENCHMARK.json."""
    def files(root: Path) -> dict:
        paths = [root / "BENCHMARK.json", *sorted((root / "perfbench").rglob("*.py"))]
        return {p.relative_to(root): p.read_bytes() for p in paths}
    return files(parent) == files(change)


def module_lines(checkout: Path) -> dict[str, int]:
    """Per file of ``src/stallings/*.py`` in ``checkout``, its lines as ``wc -l`` counts them."""
    return {p.name: p.read_bytes().count(b"\n")
            for p in sorted((checkout / "src" / "stallings").glob("*.py"))}


def source_lines(checkout: Path) -> int:
    """The lines of ``src/stallings/*.py`` in ``checkout``, as ``wc -l`` counts them."""
    return sum(module_lines(checkout).values())


def code_lines(source: str) -> int:
    """The lines of ``source`` on which a token other than a comment starts,
    leaving out docstrings: the first string statement of a module, class or
    function.  Blank and comment-only lines start no such token."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    return len({tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type not in layout
                and not (tok.type == tokenize.STRING and tok.start[0] in docstrings)})


def module_code_lines(checkout: Path) -> dict[str, int]:
    """Per file of ``src/stallings/*.py`` in ``checkout``, its code lines by ``code_lines``."""
    return {p.name: code_lines(p.read_text())
            for p in sorted((checkout / "src" / "stallings").glob("*.py"))}


def source_code_lines(checkout: Path) -> int:
    """The code lines of ``src/stallings/*.py`` in ``checkout``, by ``code_lines``."""
    return sum(module_code_lines(checkout).values())


def line_counts(parent: Path, change: Path) -> dict:
    """The record's line counts: each side's lines and code lines of
    ``src/stallings/*.py`` in total, and each module's where they differ."""
    return {
        "src_lines": {"before": source_lines(parent), "after": source_lines(change)},
        "src_code_lines": {"before": source_code_lines(parent),
                           "after": source_code_lines(change)},
        "src_lines_by_module": changed_modules(module_lines(parent), module_lines(change)),
        "src_code_lines_by_module": changed_modules(module_code_lines(parent),
                                                    module_code_lines(change)),
    }


def source_sha256(checkout: Path) -> str:
    """A SHA-256 over the files of ``src/stallings/*.py`` in ``checkout``, in
    name order, each hashed as its name, its size in bytes and its bytes."""
    h = hashlib.sha256()
    for p in sorted((checkout / "src" / "stallings").glob("*.py")):
        data = p.read_bytes()
        h.update(f"{p.name}\n{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def changed_modules(before: dict[str, int], after: dict[str, int]) -> dict:
    """The before and after line counts of each module whose count differs;
    a module that one side lacks has 0 lines there."""
    return {name: {"before": before.get(name, 0), "after": after.get(name, 0)}
            for name in sorted(before.keys() | after.keys())
            if before.get(name, 0) != after.get(name, 0)}


def compile_tree(checkout: Path) -> None:
    """Write the bytecode of the package and the benchmark in ``checkout``."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=checkout, check=True)


def run(checkout: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One benchmark run; its result line plus the context line before it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True, check=True).stdout
    context, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    return {"context": context["context"], **result}


def layers(sides: list[tuple[str, Path]], workload: str, seed: int) -> dict:
    """One traced run of ``workload`` per side, in the given order: each
    side's per-layer metric values, keyed by side name."""
    out = {"seed": seed, "seconds": TRACE_SECONDS}
    for side, checkout in sides:
        metrics = run(checkout, workload, seed, TRACE_SECONDS, trace=1)["metrics"]
        out[side] = {name: m["value"] for name, m in metrics.items()}
    return out


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def verdict(before: list[float], after: list[float], wins: int, sign: int, bound: float,
            allow_gain: bool = True) -> str:
    """``gain`` if ``allow_gain``, the change wins at least 9 of 10 pairs and
    the medians differ by more than the parent's quartile spread; ``worse``
    if the change's median is worse than the parent's by more than the
    relative ``bound``; ``unresolved`` if the parent's spread is wider than
    the bound and not every run of the change reads better than every parent
    run; else ``within bound``.  ``sign`` is 1 where lower is better, else -1."""
    b, a = quartiles(before), quartiles(after)
    gain = sign * (b["median"] - a["median"])
    if allow_gain and 10 * wins >= 9 * len(before) and gain > b["q3"] - b["q1"]:
        return "gain"
    if -gain > bound * abs(b["median"]):
        return "worse"
    if (b["q3"] - b["q1"] > bound * abs(b["median"])
            and max(sign * y for y in after) >= min(sign * x for x in before)):
        return "unresolved"
    return "within bound"


def failed_share(pairs: list[dict], side: str) -> float:
    """The share of one side's operations that failed, over all its runs."""
    attempted = sum(p[side]["attempted"] for p in pairs)
    return sum(p[side]["failed"] for p in pairs) / attempted if attempted else 0.0


def summarize(pairs: list[dict], specs: dict) -> dict:
    """Per metric: each side's quartiles, the pairs the change won (ties
    count for neither side) and the verdict, from the metric's entry in
    ``BENCHMARK.json``.  No verdict is ``gain`` where the change failed a
    larger share of its operations than the parent."""
    allow_gain = failed_share(pairs, "after") <= failed_share(pairs, "before")
    out = {}
    for name in pairs[0]["before"]["metrics"]:
        before = [p["before"]["metrics"][name]["value"] for p in pairs]
        after = [p["after"]["metrics"][name]["value"] for p in pairs]
        better, bound = specs[name]["better"], specs[name]["bound"]
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (b - a) > 0 for b, a in zip(before, after))
        out[name] = {
            "unit": pairs[0]["before"]["metrics"][name]["unit"],
            "better": better,
            "before": quartiles(before),
            "after": quartiles(after),
            "change_wins": wins,
            "pairs": len(pairs),
            "bound": bound,
            "verdict": verdict(before, after, wins, sign, bound, allow_gain),
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="the commit to compare against")
    p.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    p.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in contract["end_to_end"]}
    seconds = contract["run_seconds"]
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = Path(tmp) / "parent", Path(tmp) / "change"
        export(args.parent, parent)
        export(working_tree(Path(tmp)), change)
        if not same_benchmark(parent, change):
            p.error(f"perfbench/ or BENCHMARK.json differs between {args.parent} and the working tree")
        counts = line_counts(parent, change)
        src_sha256 = {"before": source_sha256(parent), "after": source_sha256(change)}
        for checkout in (parent, change):
            compile_tree(checkout)
        workloads, machine = {}, None
        for workload in (w["name"] for w in contract["workloads"]):
            pairs = []
            for i, seed in enumerate(args.seeds):
                sides = [("before", parent), ("after", change)]
                if i % 2:
                    sides.reverse()
                pair = {"seed": seed, "first": sides[0][0]}
                for side, checkout in sides:
                    pair[side] = run(checkout, workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: "
                          f"wall_s {pair[side]['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
                pairs.append(pair)
            traced = layers([("before", parent), ("after", change)], workload,
                            max(args.seeds) + 1)
            context = pairs[0]["before"]["context"]
            machine = machine or {k: context[k] for k in ("cpu", "nproc", "python")}
            shares = {side: failed_share(pairs, side) for side in ("before", "after")}
            if shares["after"] > shares["before"]:
                print(f"{workload}: no gain given, the change failed {shares['after']:.3%} "
                      f"of its operations against the parent's {shares['before']:.3%}",
                      file=sys.stderr)
            workloads[workload] = {
                "metrics": summarize(pairs, specs),
                "failed_share": shares,
                "runs": [{"seed": pair["seed"], "first": pair["first"],
                          **{side: {k: v["value"] for k, v in pair[side]["metrics"].items()}
                             for side in ("before", "after")},
                          **{key: [pair[side][key] for side in ("before", "after")]
                             for key in ("correct", "attempted", "failed")}}
                         for pair in pairs],
                "layers": traced,
            }
    record = {
        "parent": args.parent,
        "machine": machine,
        "command": f"perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "layers_command": (f"perfbench/run.py --workload W --seed {max(args.seeds) + 1} "
                           f"--seconds {TRACE_SECONDS} --trace 1"),
        "seeds": args.seeds,
        **counts,
        "src_sha256": src_sha256,
        "order": "alternated: the parent runs first on the 1st, 3rd, ... seed",
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, result in workloads.items():
        for name, m in result["metrics"].items():
            print(f"{workload} {name}: {m['before']['median']:.4g} -> {m['after']['median']:.4g} "
                  f"{m['unit']}, {m['change_wins']}/{m['pairs']} won: {m['verdict']}",
                  file=sys.stderr)
    src_lines, src_code_lines = counts["src_lines"], counts["src_code_lines"]
    print(f"src/stallings/*.py lines: {src_lines['before']} -> {src_lines['after']}, "
          f"code lines: {src_code_lines['before']} -> {src_code_lines['after']}",
          file=sys.stderr)
    for key, suffix in (("src_lines_by_module", ""), ("src_code_lines_by_module", " code lines")):
        for name, lines in counts[key].items():
            print(f"  {name}{suffix}: {lines['before']} -> {lines['after']}", file=sys.stderr)
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
