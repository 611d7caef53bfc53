#!/usr/bin/env python3
"""spotindex benchmark: one closed-loop client driving the package in-process.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload study --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all            # every workload, traced too

A run generates its inputs from --seed, measures whole rotations of the
workload's operations for at least --seconds, checks every operation's
outputs, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones named in BENCHMARK.json; with --trace 1 the run also
repeats the measurement with tracing wrappers installed and the metrics are
the per-layer ones. The full result, with the environment it was measured
in, is written to .bench_out/ in the checkout. README.md next to this file
describes every metric and workload.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
WORKLOAD_NAMES = ("study", "week", "bsp", "traces")
# set-up is repeated at least this often and for at least this long
SETUP_REPEATS = 7
SETUP_MIN_S = 0.5
SIMULATOR_WORKLOADS = ("study", "week", "bsp")

# name: (unit, better). BENCHMARK.json names the end-to-end subset
# that applies to every workload; the rest are printed where they apply.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_p90": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "sim_task_s_per_host_s": ("s/s", "higher"),
    "records_per_s": ("1/s", "higher"),
    "failed_share": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "cost_vs_index_mean": ("ratio", "lower"),
    "availability_mean": ("ratio", "higher"),
}
PER_LAYER = {
    "simulator.engine_self_s": ("s", "lower"),
    "simulator.engine_us_per_sim_s": ("us", "lower"),
    "prices.price_at_calls": ("count", "lower"),
    "prices.price_at_s": ("s", "lower"),
    "simulator.window_stats_calls": ("count", "lower"),
    "simulator.window_stats_s": ("s", "lower"),
    "index.window_mean_s": ("s", "lower"),
    "prices.segments_calls": ("count", "lower"),
    "policies.decide_calls": ("count", "lower"),
    "policies.decide_us": ("us", "lower"),
    "simulator.compute_totals_s": ("s", "lower"),
    "simulator.replay_ms": ("ms", "lower"),
    "tracking.ledger_ms": ("ms", "lower"),
    "index.integrate_s": ("s", "lower"),
    "simulator.hold_events": ("count", "lower"),
    "index.curve_builds": ("count", "lower"),
    "index.curve_build_ms": ("ms", "lower"),
    "simulator.migrations": ("count", "lower"),
    "simulator.aborted_migrations": ("count", "lower"),
    "simulator.revocations": ("count", "lower"),
    "simulator.useful_work_ratio": ("ratio", "higher"),
    "policies.migrate_ratio": ("ratio", "lower"),
    "prices.ingest_records_per_s": ("1/s", "higher"),
    "prices.load_records_per_s": ("1/s", "higher"),
    "prices.write_records_per_s": ("1/s", "higher"),
    "index.series_us_per_sample": ("us", "lower"),
    "catalog.load_ms": ("ms", "lower"),
    "cli.ingest_s": ("s", "lower"),
    "cli.index_s": ("s", "lower"),
    "synth.suite_ms": ("ms", "lower"),
    "synth.points_per_s": ("1/s", "higher"),
    "cli.report_json_ms": ("ms", "lower"),
    "simulator.cost_vs_index_mean": ("ratio", "lower"),
    "simulator.availability_mean": ("ratio", "higher"),
    "trace.overhead_ms": ("ms", "lower"),
}


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# environment


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


# measurement


# Host-speed normalization. A shared host drifts in speed by up to ~1.5x,
# within seconds and over minutes, for every process on it alike, which would
# swamp a 10% regression. So the benchmark times a fixed kernel that uses no
# spotindex code KERNEL_ADJACENT times right before each op and set-up, and
# from a timer signal every KERNEL_PERIOD_S, inside ops too. Each op's (and
# each set-up's) wall time, less the kernel's own time, is scaled by
# KERNEL_NOMINAL_S / (median kernel time from `pad` before the op to `pad`
# after it, where `pad` is the op's own duration, at least KERNEL_MIN_PAD_S so
# that it reaches the samples right before the op, at most KERNEL_PAD_S): the
# op's time as if taken on a host where the kernel takes exactly 1 ms. Wall
# times are kept in the result file next to the normalized ones.
KERNEL_ROWS = 100
KERNEL_NOMINAL_S = 0.001
KERNEL_ADJACENT = 3
KERNEL_PERIOD_S = 0.05
KERNEL_PAD_S = 0.15
KERNEL_MIN_PAD_S = 0.01
_KERNEL_STAMPS = numpy.arange(0, 36000, 60, dtype=numpy.int64)


class _KernelRow:
    __slots__ = ("t", "price")

    def __init__(self, t, price):
        self.t = t
        self.price = price


def kernel_seconds() -> float:
    """Time of one pass of the reference kernel, with the collector off so
    that the program's heap cannot slow it.

    The kernel is a small mix of what the workloads spend their time on
    (object and dict churn, scalar numpy searches, JSON encoding and
    parsing, number parsing, a sort) written without spotindex code. A tight
    arithmetic loop tracked the host worse: it sped up by 1.5x in bursts in
    which trace parsing did not speed up at all.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        rows = []
        for i in range(KERNEL_ROWS):
            row = _KernelRow(i * 60, (i % 17) * 0.25)
            idx = int(numpy.searchsorted(_KERNEL_STAMPS, row.t, side="right")) - 1
            rows.append({"timestamp": row.t, "price": row.price, "index": idx, "vm_id": "m4.large"})
        parsed = json.loads(json.dumps(rows))
        total = 0.0
        for record in parsed:
            total += float(str(record["price"])) * int(str(record["timestamp"]))
        parsed.sort(key=lambda record: -record["price"])
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class HostClock:
    """Kernel timings, taken between ops and from a SIGALRM handler, which
    Python runs in the main thread between bytecodes, so samples fall inside
    long ops as well as between short ones."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self.busy_s = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, kernel_seconds()))
        self.busy_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_PERIOD_S, KERNEL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def sample(self):
        """Take KERNEL_ADJACENT kernel samples now, outside any op."""
        for _ in range(KERNEL_ADJACENT):
            start = time.perf_counter()
            self.samples.append((start, kernel_seconds()))

    def settle(self):
        """Give the last op its samples after it."""
        self.sample()
        time.sleep(KERNEL_PAD_S + KERNEL_PERIOD_S)

    def normalize(self, start: float, end: float, wall_s: float) -> float:
        # a tick can land inside sample(), so order the samples first
        self.samples.sort()
        pad = min(max(end - start, KERNEL_MIN_PAD_S), KERNEL_PAD_S)
        lo = bisect.bisect_left(self.samples, (start - pad,))
        hi = bisect.bisect_right(self.samples, (end + pad, math.inf))
        # on a very slow host even the samples right before may start earlier
        window = self.samples[lo:hi] or self.samples[max(0, lo - KERNEL_ADJACENT) : lo]
        kernel = statistics.median(k for _, k in window)
        return wall_s * KERNEL_NOMINAL_S / kernel


class Measurement:
    """Op times and checked results of one closed-loop pass."""

    def __init__(self):
        self.labels: list[str] = []
        self.spans: list[tuple[float, float]] = []
        self.wall_s: list[float] = []
        self.norm_s: list[float] = []
        self.results = []
        self.first_rotation = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.mismatches: list[str] = []


def run_ops(workload, ops, seconds, clock: HostClock, tracer=None) -> Measurement:
    """Run whole rotations of `ops` until `seconds` have passed.

    One client, closed loop: each op starts when the previous one and its
    checks are done. An op raising a SpotIndexError counts as failed and the
    run goes on; so does an op whose outputs fail their checks.
    """
    from spotindex.errors import SpotIndexError

    measurement = Measurement()
    prepare = getattr(workload, "prepare", None)
    start = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        if prepare is not None:
            prepare()
        clock.sample()
        if tracer is not None:
            tracer.op = i
            tracer.active = True
        produced = None
        busy = clock.busy_s
        t0 = time.perf_counter()
        try:
            produced = op.run()
        except SpotIndexError as exc:
            measurement.errors.append(f"{op.label}: {exc}")
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.active = False
        measurement.attempted += 1
        measurement.labels.append(op.label)
        measurement.spans.append((t0, t1))
        measurement.wall_s.append(t1 - t0 - (clock.busy_s - busy))
        if produced is None:
            measurement.failed += 1
        else:
            try:
                result = op.check(produced)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                result = None
                measurement.mismatches.append(f"{op.label}: check raised {exc!r}")
            if result is None or result.mismatches:
                measurement.failed += 1
                if result is not None:
                    measurement.mismatches.extend(f"{op.label}: {m}" for m in result.mismatches)
            else:
                measurement.results.append(result)
                if i < len(ops):
                    measurement.first_rotation.append(result)
        i += 1
        if i % len(ops) == 0 and time.perf_counter() - start >= seconds:
            break
    clock.settle()
    measurement.norm_s = [
        clock.normalize(t0, t1, wall) for (t0, t1), wall in zip(measurement.spans, measurement.wall_s)
    ]
    return measurement


def _per_op(total, ops):
    return total / ops if ops else 0.0


def outcomes(results) -> dict:
    """Deterministic simulated outcome of the first rotation, if simulated."""
    simulated = [r for r in results if r.cost_vs_index is not None]
    if not simulated:
        return {}
    return {
        "cost_vs_index_mean": math.fsum(r.cost_vs_index for r in simulated) / len(simulated),
        "availability_mean": math.fsum(r.availability for r in simulated) / len(simulated),
        "migrations": sum(r.migrations for r in simulated),
        "aborted_migrations": sum(r.aborted_migrations for r in simulated),
        "revocations": sum(r.revocations for r in simulated),
        "hold_events": sum(r.hold_events for r in simulated),
    }


def end_to_end(name, setup_s, m: Measurement, op_s, rss_mb) -> dict:
    """End-to-end metrics from one pass, with op times `op_s` (wall or
    normalized, one per attempted op) and set-up times `setup_s`.

    Throughputs are a rotation's work over the sum of each op type's median
    time, so that a burst of host slowness moves them no more than the p50.
    """
    ms = sorted(t * 1000.0 for t in op_s)
    p90 = None
    if len(ms) >= 20:
        cut = statistics.quantiles(ms, n=10)[-1]
        if sum(1 for v in ms if v > cut) >= 10:
            p90 = cut
    by_label = {}
    for label, t in zip(m.labels, op_s):
        by_label.setdefault(label, []).append(t)
    rotation_s = sum(statistics.median(times) for times in by_label.values())
    out = outcomes(m.first_rotation)
    simulated = name in SIMULATOR_WORKLOADS
    return {
        "setup_s": statistics.median(setup_s),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": p90,
        "ops_per_s": len(by_label) / rotation_s,
        "sim_task_s_per_host_s": sum(r.task_seconds for r in m.first_rotation) / rotation_s
        if simulated
        else None,
        "records_per_s": sum(r.raw_records for r in m.first_rotation) / rotation_s
        if not simulated
        else None,
        "failed_share": m.failed / m.attempted,
        "peak_rss_mb": rss_mb,
        "cost_vs_index_mean": out.get("cost_vs_index_mean"),
        "availability_mean": out.get("availability_mean"),
    }


def layer_metrics(tracer, m: Measurement, setup_points) -> dict:
    """Per-op layer metrics of the traced pass, in wall time."""
    from tracing import ROOT as ROOT_SPAN, self_times

    names = tracer.names
    ops = m.attempted
    dur, self_dur, calls = {}, {}, {}
    setup_dur, setup_calls = {}, {}
    selfs = self_times(tracer)
    for i, (name, start, end, _parent, op) in enumerate(tracer.spans()):
        if op < 0:
            setup_dur[name] = setup_dur.get(name, 0.0) + end - start
            setup_calls[name] = setup_calls.get(name, 0) + 1
            continue
        dur[name] = dur.get(name, 0.0) + end - start
        self_dur[name] = self_dur.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
    leaf_calls, leaf_s, billing_integrate_s = {}, {}, 0.0
    for (parent, nid), (n, seconds) in tracer.leaves.items():
        if parent != ROOT_SPAN and tracer.span_op[parent] < 0:
            continue  # a leaf call of the traced set-up
        leaf = names[nid]
        leaf_calls[leaf] = leaf_calls.get(leaf, 0) + n
        leaf_s[leaf] = leaf_s.get(leaf, 0.0) + seconds
        parent_name = names[tracer.span_name[parent]] if parent != ROOT_SPAN else ""
        if leaf == "index.integrate" and parent_name in (
            "simulator.compute_totals",
            "tracking.ledger_from_report",
        ):
            billing_integrate_s += seconds

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def mean_ms(name):
        return 1000.0 * dur.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    sim_seconds = sum(r.sim_seconds for r in m.results)
    kept = sum(r.work_kept for r in m.results)
    lost = sum(r.work_lost for r in m.results)
    decide_calls = calls.get("policies.decide", 0)
    migrate_calls = tracer.counts.get("policies.decide.migrate", 0)
    points = sum(r.points for r in m.results)
    raw_records = sum(r.raw_records for r in m.results)
    samples = sum(r.samples for r in m.results)
    out = outcomes(m.first_rotation)
    first_ops = len(m.first_rotation)
    return {
        "simulator.engine_self_s": _per_op(self_dur.get("simulator.run_simulation", 0.0), ops),
        "simulator.engine_us_per_sim_s": 1e6 * self_dur.get("simulator.run_simulation", 0.0) / sim_seconds
        if sim_seconds
        else 0.0,
        "prices.price_at_calls": _per_op(leaf_calls.get("prices.price_at", 0), ops),
        "prices.price_at_s": _per_op(leaf_s.get("prices.price_at", 0.0), ops),
        "simulator.window_stats_calls": _per_op(calls.get("simulator.window_stats", 0), ops),
        "simulator.window_stats_s": _per_op(dur.get("simulator.window_stats", 0.0), ops),
        "index.window_mean_s": _per_op(dur.get("index.window_mean", 0.0), ops),
        "prices.segments_calls": _per_op(leaf_calls.get("prices.segments", 0), ops),
        "policies.decide_calls": _per_op(decide_calls, ops),
        "policies.decide_us": 1e6 * dur.get("policies.decide", 0.0) / decide_calls if decide_calls else 0.0,
        "simulator.compute_totals_s": _per_op(dur.get("simulator.compute_totals", 0.0), ops),
        "simulator.replay_ms": _per_op(1000.0 * dur.get("simulator.replay", 0.0), ops),
        "tracking.ledger_ms": _per_op(1000.0 * dur.get("tracking.ledger_from_report", 0.0), ops),
        "index.integrate_s": _per_op(billing_integrate_s, ops),
        "simulator.hold_events": _per_op(out.get("hold_events", 0), first_ops),
        "index.curve_builds": _per_op(calls.get("index.curve_build", 0), ops),
        "index.curve_build_ms": mean_ms("index.curve_build"),
        "simulator.migrations": _per_op(out.get("migrations", 0), first_ops),
        "simulator.aborted_migrations": _per_op(out.get("aborted_migrations", 0), first_ops),
        "simulator.revocations": _per_op(out.get("revocations", 0), first_ops),
        "simulator.useful_work_ratio": kept / (kept + lost) if kept + lost else 0.0,
        "policies.migrate_ratio": migrate_calls / decide_calls if decide_calls else 0.0,
        "prices.ingest_records_per_s": rate(raw_records, dur.get("prices.ingest", 0.0)),
        "prices.load_records_per_s": rate(points, dur.get("prices.load", 0.0)),
        "prices.write_records_per_s": rate(points, dur.get("prices.write", 0.0)),
        "index.series_us_per_sample": 1e6 * dur.get("index.series", 0.0) / samples if samples else 0.0,
        "catalog.load_ms": mean_ms("catalog.load"),
        "cli.ingest_s": _per_op(dur.get("cli.ingest", 0.0), ops),
        "cli.index_s": _per_op(dur.get("cli.index", 0.0), ops),
        "synth.suite_ms": 1000.0 * setup_dur.get("synth.generate_market_suite", 0.0)
        / setup_calls["synth.generate_market_suite"]
        if setup_calls.get("synth.generate_market_suite")
        else 0.0,
        "synth.points_per_s": rate(setup_points, setup_dur.get("synth.generate_market_suite", 0.0)),
        "cli.report_json_ms": _per_op(1000.0 * dur.get("cli.report_json", 0.0), ops),
        "simulator.cost_vs_index_mean": out.get("cost_vs_index_mean", 0.0),
        "simulator.availability_mean": out.get("availability_mean", 0.0),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name, seed, seconds, trace, work_root=WORK_DIR, small=False, spans_path=None):
    """One benchmark run; returns the full result as a dict."""
    from tracing import Tracer, surviving_wrappers
    from workloads import make_workload

    work_dir = Path(work_root) / f"{name}-{seed}-{os.getpid()}"
    workload = make_workload(name, seed, work_dir, small=small)
    try:
        with HostClock() as clock:
            setup_wall, setup_spans = [], []
            while len(setup_wall) < SETUP_REPEATS or sum(setup_wall) < SETUP_MIN_S:
                # start each set-up from the same heap state: no garbage left over
                gc.collect()
                clock.sample()
                busy = clock.busy_s
                t0 = time.perf_counter()
                setup_points = workload.setup()
                t1 = time.perf_counter()
                setup_spans.append((t0, t1))
                setup_wall.append(t1 - t0 - (clock.busy_s - busy))
            # warm-up: one op of the same workload at its smoke-test size, which
            # runs the same code paths in a fraction of the time
            warm = make_workload(name, seed, work_dir / "warm-up", small=True)
            warm.setup()
            run_ops(warm, warm.ops(lambda policy: policy, lambda name: nullcontext())[:1], 0, clock)
            ops = workload.ops(lambda policy: policy, lambda name: nullcontext())
            gc.collect()
            plain = run_ops(workload, ops, seconds, clock)
            setup_norm = [clock.normalize(t0, t1, w) for (t0, t1), w in zip(setup_spans, setup_wall)]
        rss = peak_rss_mb()
        e2e = end_to_end(name, setup_norm, plain, plain.norm_s, rss)
        wall = end_to_end(name, setup_wall, plain, plain.wall_s, rss)
        result = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "ops_per_rotation": len(ops),
            "attempted": plain.attempted,
            "failed": plain.failed,
            "errors": plain.errors[:10],
            "mismatches": plain.mismatches[:10],
            "end_to_end": e2e,
            "end_to_end_wall": wall,
            "ops": [
                {"label": label, "wall_ms": 1000.0 * w, "normalized_ms": 1000.0 * n}
                for label, w, n in zip(plain.labels, plain.wall_s, plain.norm_s)
            ],
            "environment": environment(),
        }
        correct = not plain.mismatches
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                tracer.op = -1
                tracer.active = True
                traced_setup_points = workload.setup()
                tracer.active = False
                traced_ops = workload.ops(tracer.wrap_policy, tracer.span)
                with HostClock() as clock:
                    traced = run_ops(workload, traced_ops, seconds, clock, tracer)
            finally:
                tracer.remove()
            survivors = surviving_wrappers()
            # overhead compares reference-speed medians, so host drift between
            # the two passes does not count as overhead
            traced_p50 = 1000.0 * statistics.median(traced.norm_s)
            layers = layer_metrics(tracer, traced, traced_setup_points)
            layers["trace.overhead_ms"] = traced_p50 - e2e["op_ms_p50"]
            same = outcomes(traced.first_rotation) == outcomes(plain.first_rotation)
            result.update(
                attempted=plain.attempted + traced.attempted,
                failed=plain.failed + traced.failed,
                traced_ops=traced.attempted,
                per_layer=layers,
                surviving_wrappers=survivors,
                traced_outcome_matches=same,
            )
            result["errors"] += traced.errors[:10]
            result["mismatches"] += traced.mismatches[:10]
            correct = correct and not traced.mismatches and not survivors and same
            if spans_path is not None:
                tracer.write(spans_path)
        result["correct"] = correct
        return result
    finally:
        if work_dir.exists():
            shutil.rmtree(work_dir)


def contract_line(result, names) -> dict:
    source = result["per_layer"] if result["trace"] else result["end_to_end"]
    table = PER_LAYER if result["trace"] else END_TO_END
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": source[n], "unit": table[n][0]} for n in names},
    }


def _format(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_table(results):
    """Every end-to-end and per-layer metric, one row each, per workload."""
    names = [r["workload"] for r in results]
    print("metric".ljust(34) + "unit".ljust(8) + "".join(n.rjust(14) for n in names))
    for section, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        print(f"-- {section}")
        for metric, (unit, _better) in table.items():
            cells = "".join(_format(r.get(section, {}).get(metric)).rjust(14) for r in results)
            print(metric.ljust(34) + unit.ljust(8) + cells)
    print("-- ops: " + ", ".join(f"{r['workload']}={r['attempted']}" for r in results))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spotindex" / "__init__.py").is_file():
        print(f"error: no spotindex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spotindex

    if Path(spotindex.__file__).resolve().parent != (SRC / "spotindex").resolve():
        print(f"error: imported spotindex from {spotindex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # keep stderr to warnings; cli.main's own logging setup is then a no-op
    import logging

    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    spec = benchmark_spec()
    OUT_DIR.mkdir(exist_ok=True)
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    trace = 1 if args.workload == "all" else args.trace
    results = []
    for name in workloads:
        stem = f"{name}-seed{args.seed}-trace{trace}"
        result = run_workload(
            name,
            args.seed,
            args.seconds,
            trace,
            spans_path=OUT_DIR / f"spans-{stem}.jsonl.gz" if trace else None,
        )
        with open(OUT_DIR / f"result-{stem}.json", "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
        results.append(result)
    print("# environment " + json.dumps(results[0]["environment"], sort_keys=True))
    for result in results:
        for problem in result["errors"] + result["mismatches"] + result.get("surviving_wrappers", []):
            print(f"# {result['workload']}: {problem}")
    if args.workload == "all":
        print_table(results)
        line = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
    else:
        key = "per_layer" if trace else "end_to_end"
        line = contract_line(results[0], [m["name"] for m in spec[key]])
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
