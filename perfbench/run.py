"""Benchmark of the stallings package: four closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload coset-enum --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the Python version, CPU model and core count, and
the timings before scaling to the reference host speed (see harness.py).
Traced runs also write their spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("coset-enum", "low-index", "products", "certify-io")
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few small jobs per workload, for smoke tests")
    return p.parse_args(argv)


def refuse(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_package() -> float:
    """Import the package from this checkout's source tree, never from
    elsewhere on the path, dropping any earlier import of it and of the
    benchmark modules built on it; returns the package's import time."""
    if not (SRC / "stallings" / "__init__.py").is_file():
        raise ImportError(f"no package source at {SRC}")
    for name in list(sys.modules):
        if name.split(".")[0] in ("stallings", "groups", "workloads"):
            del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import stallings
    elapsed = time.perf_counter() - t0
    if Path(stallings.__file__).resolve().parent != SRC / "stallings":
        raise ImportError(f"imported stallings from {stallings.__file__}")
    return elapsed


def set_up(args, work_dir):
    """Import and build the job list; returns (jobs, seconds taken)."""
    import_s = import_package()
    from workloads import BUILDERS

    t0 = time.perf_counter()
    jobs = BUILDERS[args.workload](args.seed, args.size == "tiny", work_dir)
    return jobs, import_s + time.perf_counter() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize or not __debug__:
        return refuse("refusing to run under python -O: the package's own "
                      "assertions guard its results")
    # The CLI reads its default coset budget from this variable; the
    # benchmark passes budgets as arguments and measures the defaults.
    os.environ.pop("STALLINGS_MAX_COSETS", None)
    import harness

    tracer = harness.Tracer()
    probe = harness.SpeedProbe()
    out_dir = HERE / "out"
    work_dir = out_dir / f"work-{os.getpid()}"
    try:
        setup_times = []
        probe.sample()
        for _ in range(1 if args.trace else SETUP_REPEATS):
            jobs = None  # drop the previous repetition's fixtures first
            start = time.perf_counter()
            try:
                jobs, seconds = set_up(args, work_dir)
            except ImportError as e:
                return refuse(str(e))
            end = time.perf_counter()
            probe.sample()
            setup_times.append(seconds * probe.scale(start, end))
        setup_s = statistics.median(setup_times)

        failures: list = []
        passes = harness.run_passes(jobs, args.seconds, bool(args.trace),
                                    tracer, probe, failures)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(len(p.latencies_s) for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics = harness.per_layer(passes, tracer)
        _write_spans(out_dir, args, tracer)
    else:
        metrics = harness.end_to_end(passes, setup_s, attempted, failed)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    ctx = harness.context(args.workload, args.seed, bool(args.trace), passes,
                          len(jobs), probe)
    print(json.dumps({"context": ctx}))
    print(json.dumps(harness.result_line(attempted, failed, metrics)))
    return 0


def _write_spans(out_dir: Path, args, tracer) -> None:
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-{args.seed}.json"
    fields = ["name", "start_ns", "end_ns", "parent", "job", "ok"]
    path.write_text(json.dumps({"fields": fields, "spans": tracer.spans}))


if __name__ == "__main__":
    sys.exit(main())
