"""Smoke tests of the benchmark itself, at a tiny size.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import oracles  # noqa: E402
from workloads import BUILDERS, low_index, products  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, *args, flags=()):
    cmd = [sys.executable, *flags, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_and_prints_declared_metrics(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    context = json.loads(lines[-2])["context"]
    assert {"python", "cpu", "nproc"} <= set(context)


def test_traced_layer_times_add_up_to_job_time():
    proc = run_bench(ROOT, "--workload", "certify-io", "--seed", "1", "--seconds", "1",
                     "--trace", "1", "--size", "tiny")
    m = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    layers = sum(m[f"{layer}.self_s"] for layer in harness.LAYERS)
    assert layers + m["bench.self_s"] == pytest.approx(m["bench.job_s"])
    assert m["families.build.calls"] > 0 and m["cli.main.calls"] > 0


def test_seed_sets_the_inputs(tmp_path):
    def order(seed):
        return [j.kind for j in BUILDERS["low-index"](seed, False, tmp_path)]

    assert order(5) == order(5) != order(6)


def failures_of(jobs):
    failures = []
    result = harness.run_pass(jobs, harness.Tracer(), harness.SpeedProbe(), False, 0,
                              failures)
    return result.failed, failures


def test_corrupted_subgroup_count_is_a_failure(tmp_path, monkeypatch):
    jobs = low_index.build(1, True, tmp_path)
    assert failures_of(jobs)[0] == 0
    wrong = list(oracles.A005133)
    wrong[3] += 1  # PSL(2, Z) at index 4
    monkeypatch.setattr(oracles, "A005133", tuple(wrong))
    failed, messages = failures_of(low_index.build(1, True, tmp_path))
    assert failed >= 1 and "class count" in messages[0]


def test_corrupted_group_order_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(products, "S5_ORDER", 60)
    failed, _ = failures_of(products.build(1, True, tmp_path))
    assert failed >= 1


def test_hall_formula_matches_known_counts():
    assert oracles.hall_counts(2, 6)[1:] == [1, 3, 13, 71, 461, 3447]
    assert oracles.hall_counts(3, 4)[4] == 2143


def test_refuses_python_O():
    proc = run_bench(ROOT, "--workload", "low-index", "--seed", "1", "--seconds", "1",
                     "--size", "tiny", flags=("-O",))
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_bench(tmp_path, "--workload", "coset-enum", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0 and proc.stdout == ""
