"""Closed-loop runner, span tracer and metric assembly.

One client runs a workload's job list in passes: each job starts when the
previous one has returned, and its result is checked after its clock
stops.  Passes repeat until the next one would overrun the run's time, and
at least two run.  With tracing on, passes alternate between untraced and
traced, so the same run also measures what tracing costs.

Timings are scaled to a fixed host speed.  On a shared host the speed of
one core swings by up to a factor of two within seconds, with the load of
other tenants.  A fixed reference kernel, timed between jobs, follows those
swings; each job's latency is multiplied by REFERENCE_S over the kernel's
median time around that job, so figures read as seconds on a host that
runs the kernel in REFERENCE_S.  The unscaled figures are printed with the
context.
"""

from __future__ import annotations

import bisect
import gc
import os
import platform
import resource
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

LAYERS = ("words", "xgraph", "subgroup", "enumerator", "products",
          "families", "fileio", "cli")
MIN_PASSES = 2
MAX_REPORTED_FAILURES = 5
# The reference kernel's time on this benchmark's host at full speed
# (Intel Xeon, 2 cores, Python 3.11); it only sets the scale of the figures.
REFERENCE_S = 1.3e-3
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW_S = 0.3


@dataclass
class Job:
    """One request: ``run`` does the work through the tracer, ``check``
    returns None for a right answer or a description of what is wrong."""

    kind: str
    run: Callable[["Tracer"], Any]
    check: Callable[[Any], Optional[str]]


class Tracer:
    """Spans around the benchmark's calls into the package's layers.

    A span is (name, start_ns, end_ns, parent, job, ok): ``parent`` indexes
    the enclosing span and ``ok`` is False when the call raised.  Disabled,
    ``call`` is a plain call and ``count`` does nothing.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self._parent: Optional[int] = None
        self._job: Optional[int] = None

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        ok = False
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            self.spans.append((name, start, time.perf_counter_ns(),
                               self._parent, self._job, ok))

    def count(self, key: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[key] += value


def reference_kernel() -> int:
    """Fixed work like the package's: building and walking a table of
    lists, and counting in a dictionary.  It never changes."""
    n = 500
    table = [[(i * 7 + c * 13) % n for c in range(6)] for i in range(n)]
    s = 0
    for _ in range(20):
        v = 0
        for i in range(n):
            v = table[v][i % 6]
            s += v
    counts: dict[int, int] = {}
    for i in range(5000):
        counts[i % 301] = counts.get(i % 301, 0) + i
    return s


class SpeedProbe:
    """Times the reference kernel, with the collector off, to follow the
    host's speed."""

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []  # when each sample ended
        self._last = float("-inf")

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - t0)
            self.times.append(self._last)
        finally:
            if enabled:
                gc.enable()

    def due(self) -> bool:
        return time.perf_counter() - self._last >= PROBE_INTERVAL_S

    def scale(self, start: float, end: float) -> float:
        """The factor for work done from ``start`` to ``end``: REFERENCE_S
        over the median kernel time in a window around that span, as wide on
        each side as the span itself and at least PROBE_WINDOW_S, counting
        at least the samples just before and after it.  No sample falls
        inside a job, so a long job takes the host's speed around it."""
        width = max(PROBE_WINDOW_S, end - start)
        lo = bisect.bisect_left(self.times, start - width)
        hi = bisect.bisect_right(self.times, end + width)
        lo = min(lo, max(bisect.bisect_right(self.times, start) - 1, 0))
        hi = max(hi, bisect.bisect_left(self.times, end) + 1)
        return REFERENCE_S / statistics.median(self.samples[lo:hi])


@dataclass
class PassResult:
    latencies_s: list  # scaled
    raw_latencies_s: list
    scales: list
    first_job_id: int
    failed: int
    check_s: float
    traced: bool

    @property
    def wall_s(self) -> float:
        return sum(self.latencies_s)

    @property
    def raw_wall_s(self) -> float:
        return sum(self.raw_latencies_s)


def run_pass(jobs, tracer: Tracer, probe: SpeedProbe, traced: bool,
             first_job_id: int, failures: list) -> PassResult:
    raw = []
    spans = []
    failed = 0
    check_s = 0.0
    probe.sample()
    tracer.enabled = traced
    for n, job in enumerate(jobs):
        job_span = None
        if traced:
            job_span = len(tracer.spans)
            tracer.spans.append(None)
            tracer._parent = job_span
            tracer._job = first_job_id + n
        error = None
        t0 = time.perf_counter_ns()
        try:
            result = job.run(tracer)
        except Exception:
            result = None
            error = "raised " + traceback.format_exc(limit=4)
        t1 = time.perf_counter_ns()
        if traced:
            tracer.spans[job_span] = ("bench.job", t0, t1, None,
                                      first_job_id + n, error is None)
            tracer._parent = tracer._job = None
        tracer.enabled = False
        raw.append((t1 - t0) / 1e9)
        spans.append((t0 / 1e9, t1 / 1e9))
        c0 = time.perf_counter()
        if error is None:
            try:
                error = job.check(result)
            except Exception:
                error = "check raised " + traceback.format_exc(limit=4)
        del result
        check_s += time.perf_counter() - c0
        if error is not None:
            failed += 1
            if len(failures) < MAX_REPORTED_FAILURES:
                failures.append(f"{job.kind}: {error}")
        if probe.due() or n == len(jobs) - 1:
            probe.sample()
        tracer.enabled = traced
    tracer.enabled = False
    scales = [probe.scale(start, end) for start, end in spans]
    latencies = [x * f for x, f in zip(raw, scales)]
    return PassResult(latencies, raw, scales, first_job_id, failed, check_s, traced)


def run_passes(jobs, seconds: float, trace: bool, tracer: Tracer,
               probe: SpeedProbe, failures: list) -> list[PassResult]:
    """Whole passes until the next one would end after ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        gc.collect()
        traced = trace and len(results) % 2 == 1
        t0 = time.perf_counter()
        results.append(run_pass(jobs, tracer, probe, traced,
                                len(results) * len(jobs), failures))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_PASSES and elapsed + last > seconds:
            return results


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def latency_summary(passes, raw: bool = False) -> dict:
    untraced = [p for p in passes if not p.traced]
    walls = [p.raw_wall_s if raw else p.wall_s for p in untraced]
    latencies = [x for p in untraced
                 for x in (p.raw_latencies_s if raw else p.latencies_s)]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "job_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
    }


def end_to_end(passes, setup_s: float, attempted: int, failed: int) -> dict:
    return {
        **latency_summary(passes),
        "ok_frac": (1 - failed / attempted, "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


# Per-layer metrics: span name -> extra counters recorded by the jobs.
SPAN_COUNTERS = {
    "words.parse_word": ("letters",),
    "words.free_reduce": ("letters",),
    "xgraph.wedge_of_words": (),
    "xgraph.fold": ("edges",),
    "xgraph.core": (),
    "xgraph.canonicalize": ("vertices",),
    "subgroup.coset_enumerate": ("cosets", "budget_hits"),
    "subgroup.subgroup_from_graph": ("vertices",),
    "subgroup.contains": ("letters",),
    "subgroup.is_normal": (),
    "subgroup.conjugate": (),
    "subgroup.normalizer": (),
    "enumerator.enumerate_graphs": ("classes",),
    "products.ProductGraph": ("pairs",),
    "products.intersect": ("pairs",),
    "products.coset_meet": (),
    "products.is_malnormal": ("pairs",),
    "families.build": ("vertices",),
    "families.verify_coprime_certificate": ("pairs",),
    "fileio.serialize_graph": ("bytes",),
    "fileio.parse_graph": ("bytes",),
    "cli.main": ("unexpected_exit",),
}
# Spans whose call count would only repeat another span's.
NO_CALLS = ("xgraph.core", "xgraph.canonicalize", "xgraph.wedge_of_words")
COUNTER_UNITS = {"bytes": "B"}
# ratio name -> (span, counter, scale, unit): busy time per unit of work,
# over the calls that returned.
RATIOS = {
    "subgroup.coset_enumerate.us_per_coset": ("subgroup.coset_enumerate", "cosets", 1e6, "us"),
    "enumerator.enumerate_graphs.us_per_class": ("enumerator.enumerate_graphs", "classes", 1e6, "us"),
    "products.intersect.ns_per_pair": ("products.intersect", "pairs", 1e9, "ns"),
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in printing order."""
    out = []
    for span, counters in SPAN_COUNTERS.items():
        if span not in NO_CALLS:
            out.append((f"{span}.calls", "count"))
        out.append((f"{span}.busy_s", "s"))
        out += [(f"{span}.{c}", COUNTER_UNITS.get(c, "count")) for c in counters]
    out += [(name, spec[3]) for name, spec in RATIOS.items()]
    out.append(("products.intersect.base_component_frac", "frac"))
    for layer in LAYERS:
        out += [(f"{layer}.busy_s", "s"), (f"{layer}.self_s", "s")]
    out += [("bench.job_s", "s"), ("bench.self_s", "s"),
            ("bench.check_s", "s"), ("trace.overhead_frac", "frac")]
    return out


def per_layer(passes, tracer: Tracer) -> dict:
    """Per-layer figures from the traced passes, per traced pass.

    A span's self time is its duration less its children's; ``bench.self_s``
    is the self time of the job spans, the job time no layer span covers.
    """
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    npass = len(traced)
    job_scale = {p.first_job_id + n: f for p in traced for n, f in enumerate(p.scales)}
    spans = tracer.spans
    child_s = defaultdict(float)
    for s in spans:
        if s[3] is not None:
            child_s[s[3]] += (s[2] - s[1]) / 1e9 * job_scale[s[4]]
    calls = defaultdict(int)
    busy = defaultdict(float)
    busy_ok = defaultdict(float)
    layer_busy = defaultdict(float)
    layer_self = defaultdict(float)
    job_s = bench_self = 0.0
    for i, (name, start, end, parent, job, ok) in enumerate(spans):
        dur = (end - start) / 1e9 * job_scale[job]
        if name == "bench.job":
            job_s += dur
            bench_self += dur - child_s[i]
            continue
        calls[name] += 1
        busy[name] += dur
        if ok:
            busy_ok[name] += dur
        layer = name.split(".", 1)[0]
        layer_busy[layer] += dur
        layer_self[layer] += dur - child_s[i]

    values = {}
    for span, counters in SPAN_COUNTERS.items():
        if span not in NO_CALLS:
            values[f"{span}.calls"] = calls[span] / npass
        values[f"{span}.busy_s"] = busy[span] / npass
        for c in counters:
            values[f"{span}.{c}"] = tracer.counts[f"{span}.{c}"] / npass
    for name, (span, counter, scale, _) in RATIOS.items():
        work = tracer.counts[f"{span}.{counter}"]
        values[name] = busy_ok[span] * scale / work if work else 0.0
    pairs = tracer.counts["products.intersect.pairs"]
    values["products.intersect.base_component_frac"] = (
        tracer.counts["products.intersect.meet_vertices"] / pairs if pairs else 0.0)
    for layer in LAYERS:
        values[f"{layer}.busy_s"] = layer_busy[layer] / npass
        values[f"{layer}.self_s"] = layer_self[layer] / npass
    values["bench.job_s"] = job_s / npass
    values["bench.self_s"] = bench_self / npass
    values["bench.check_s"] = statistics.mean(
        p.check_s * statistics.median(p.scales) for p in passes)
    values["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced) - 1)
    units = dict(per_layer_names())
    return {name: (values[name], units[name]) for name, _ in per_layer_names()}


def context(workload: str, seed: int, trace: bool, passes, jobs_per_pass: int,
            probe: SpeedProbe) -> dict:
    raw = {k: v for k, (v, _) in latency_summary(passes, raw=True).items()}
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "client": "closed loop, 1 client",
        "passes": len(passes),
        "jobs_per_pass": jobs_per_pass,
        "latency_samples": sum(len(p.latencies_s) for p in passes if not p.traced),
        "reference_ms": {"nominal": REFERENCE_S * 1e3,
                         "median": statistics.median(probe.samples) * 1e3},
        "unscaled": raw,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def result_line(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
