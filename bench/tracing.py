"""Spans and counts for the benchmark's traced run.

`Tracer.install` wraps spotindex's public functions, and the few methods the
per-layer metrics need, by replacing them on their modules and classes;
`Tracer.remove` puts the originals back. The wrappers live only in this file:
the package itself carries no tracing code.

Spans (name, start, end, parent, op) are kept in flat arrays and written out
when the run ends. The per-second leaf calls (`PriceTrace.price_at`,
`PriceTrace.segments`, `IndexCurve.integrate`) are too many to keep one by
one: each is counted and timed per parent span instead, so memory stays
bounded by the number of spans.
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array
from contextlib import contextmanager
from time import perf_counter

from spotindex import catalog, cli, index, prices, simulator, synth
from spotindex.policies import Policy

ROOT = -1

# (owner, attribute, span or leaf name, kind); owners are modules or classes.
# A callable name is called with the wrapped call's arguments.
SPAN, LEAF, GENERATOR_LEAF = "span", "leaf", "generator_leaf"
TARGETS = (
    (simulator, "run_simulation", "simulator.run_simulation", SPAN),
    (simulator, "normalize_report", "simulator.normalize_report", SPAN),
    (simulator, "replay", "simulator.replay", SPAN),
    (simulator, "ledger_from_report", "tracking.ledger_from_report", SPAN),
    (simulator, "compute_totals", "simulator.compute_totals", SPAN),
    (simulator, "window_stats", "simulator.window_stats", SPAN),
    (synth, "generate_market_suite", "synth.generate_market_suite", SPAN),
    (index.IndexCurve, "__init__", "index.curve_build", SPAN),
    (index.IndexCurve, "window_mean", "index.window_mean", SPAN),
    (index.IndexCurve, "integrate", "index.integrate", LEAF),
    (prices.PriceTrace, "price_at", "prices.price_at", LEAF),
    (prices.PriceTrace, "segments", "prices.segments", GENERATOR_LEAF),
    # one span per subcommand: cli.ingest, cli.index, ...
    (cli, "main", lambda argv=None: f"cli.{argv[0]}", SPAN),
    (cli, "load_catalog", "catalog.load", SPAN),
    (cli, "ingest_traces", "prices.ingest", SPAN),
    (cli, "load_trace_dir", "prices.load", SPAN),
    (cli, "write_trace_jsonl", "prices.write", SPAN),
    (cli, "index_series", "index.series", SPAN),
)
MODULES = (catalog, cli, index, prices, simulator, synth)
MARK = "__bench_wrapper__"


class Tracer:
    """In-memory span store plus the wrappers that feed it.

    Recording happens only while `active` is true, so checks the benchmark
    runs between operations are not traced even with the wrappers in place.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        # (parent span, leaf name id) -> [calls, seconds]
        self.leaves: dict[tuple[int, int], list] = {}
        self.counts: dict[str, int] = {}
        self._stack = [ROOT]
        self._originals: list[tuple[object, str, object]] = []
        self.op = -1
        self.active = False

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.span_start)
        self.span_name.append(self.name_id(name))
        self.span_parent.append(self._stack[-1])
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(perf_counter())
        return sid

    def close(self, sid: int):
        self.span_end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def count(self, name: str, n: int = 1):
        if self.active:
            self.counts[name] = self.counts.get(name, 0) + n

    # wrappers

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.open(name(*args, **kwargs) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)

        return traced

    def _leaf_wrapper(self, name, fn, generator):
        tracer = self
        nid = self.name_id(name)
        leaves = self.leaves
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            if generator:
                # time the generator's own work, not its consumer's loop body
                result = iter(list(result))
            elapsed = perf_counter() - t0
            key = (stack[-1], nid)
            entry = leaves.get(key)
            if entry is None:
                leaves[key] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed
            return result

        return traced

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, kind in TARGETS:
            original = owner.__dict__[attr]
            if kind == SPAN:
                wrapper = self._span_wrapper(name, original)
            else:
                wrapper = self._leaf_wrapper(name, original, kind == GENERATOR_LEAF)
            setattr(wrapper, MARK, True)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def remove(self):
        self.active = False
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def wrap_policy(self, policy: Policy) -> Policy:
        return TracedPolicy(policy, self)

    # output

    def spans(self):
        """(name, start, end, parent, op) for every recorded span."""
        for i in range(len(self.span_start)):
            yield (
                self.names[self.span_name[i]],
                self.span_start[i],
                self.span_end[i],
                self.span_parent[i],
                self.span_op[i],
            )

    def write(self, path):
        """Write gzipped JSON lines: spans, then one line per leaf aggregate."""
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans()):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
            for (parent, nid), (calls, seconds) in sorted(self.leaves.items()):
                fh.write(
                    json.dumps(
                        {"leaf": self.names[nid], "parent": parent, "calls": calls, "seconds": seconds}
                    )
                    + "\n"
                )


class TracedPolicy(Policy):
    """A Policy that times and counts another policy's select and decide."""

    def __init__(self, inner: Policy, tracer: Tracer):
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer

    def select(self, ctx):
        with self.tracer.span("policies.select"):
            return self.inner.select(ctx)

    def decide(self, ctx):
        with self.tracer.span("policies.decide"):
            decision = self.inner.decide(ctx)
        self.tracer.count(f"policies.decide.{decision.action}")
        return decision


def surviving_wrappers() -> list[str]:
    """Names of tracer wrappers still reachable on the traced modules."""
    found = []
    for module in MODULES:
        for attr, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type):
                for cls_attr, cls_value in vars(value).items():
                    if getattr(cls_value, MARK, False):
                        found.append(f"{module.__name__}.{attr}.{cls_attr}")
    return found


def self_times(tracer: Tracer) -> list[float]:
    """Each span's duration minus what its child spans and leaf calls took."""
    n = len(tracer.span_start)
    inner = [0.0] * n
    for i in range(n):
        parent = tracer.span_parent[i]
        if parent != ROOT:
            inner[parent] += tracer.span_end[i] - tracer.span_start[i]
    for (parent, _), (_, seconds) in tracer.leaves.items():
        if parent != ROOT:
            inner[parent] += seconds
    return [tracer.span_end[i] - tracer.span_start[i] - inner[i] for i in range(n)]
