"""Spot price traces: ingestion, step-function evaluation, cap detection."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import OutOfRangeError, ParseError
from .catalog import VmSpec, read_records

log = logging.getLogger(__name__)

# Providers cap spot prices at a fixed multiple of the on-demand price; a trace
# sample sitting exactly on the cap carries no market information.
CAP_MULTIPLIER = 10.0
CAP_RELATIVE_EPS = 1e-9


@dataclass(frozen=True)
class PricePoint:
    """A price effective from `timestamp` (seconds) until the next point."""

    timestamp: int
    price: float


class PriceTrace:
    """Right-continuous step function of spot price over time for one VM.

    The price at time t is the price of the latest point with timestamp <= t;
    the last price persists indefinitely. Asking before the first point raises.
    """

    def __init__(self, vm_id: str, points):
        pts = sorted(points, key=lambda p: p.timestamp)
        if not pts:
            raise ValueError(f"trace for {vm_id!r} has no points")
        self.vm_id = vm_id
        self.timestamps = np.array([p.timestamp for p in pts], dtype=np.int64)
        self.prices = np.array([p.price for p in pts], dtype=np.float64)

    def __len__(self):
        return len(self.timestamps)

    @property
    def first_ts(self) -> int:
        return int(self.timestamps[0])

    @property
    def points(self):
        return [
            PricePoint(int(t), float(p))
            for t, p in zip(self.timestamps, self.prices)
        ]

    def _before_start(self, t: int) -> OutOfRangeError:
        return OutOfRangeError(f"trace {self.vm_id!r} starts at {self.first_ts}, asked for {t}")

    def price_at(self, t: int) -> float:
        if t < self.timestamps[0]:
            raise self._before_start(t)
        idx = int(np.searchsorted(self.timestamps, t, side="right")) - 1
        return float(self.prices[idx])

    def values_at(self, grid) -> np.ndarray:
        """Vectorized price_at over an array of timestamps."""
        grid = np.asarray(grid, dtype=np.int64)
        if grid.size and grid.min() < self.timestamps[0]:
            raise self._before_start(int(grid.min()))
        idx = np.searchsorted(self.timestamps, grid, side="right") - 1
        return self.prices[idx]

    def steps(self, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
        """Prices and clipped widths of the steps covering [t0, t1), t0 < t1."""
        if t0 < self.timestamps[0]:
            raise self._before_start(t0)
        span, widths = step_slice(self.timestamps, t0, t1)
        return self.prices[span], widths

    def segments(self, t0: int, t1: int):
        """Yield (start, end, price) covering [t0, t1), split at price changes."""
        if t1 <= t0:
            return
        prices, widths = self.steps(t0, t1)
        cursor = t0
        for price, width in zip(prices.tolist(), widths.tolist()):
            if width:
                yield cursor, cursor + width, price
                cursor += width


def step_slice(timestamps: np.ndarray, t0: int, t1: int) -> tuple[slice, np.ndarray]:
    """The steps of a right-continuous step function that cover [t0, t1).

    `timestamps` are the sorted step starts, the last step never ends, and
    timestamps[0] <= t0 < t1. Returns the slice of steps and each one's width
    clipped to [t0, t1).
    """
    lo = int(timestamps.searchsorted(t0, side="right")) - 1
    hi = int(timestamps.searchsorted(t1))
    edges = np.empty(hi - lo + 1, dtype=np.int64)
    edges[:-1] = timestamps[lo:hi]
    edges[0] = t0
    edges[-1] = t1
    return slice(lo, hi), edges[1:] - edges[:-1]


def left_sum(terms: np.ndarray) -> float:
    """Sum from the first term to the last, rounding after each addition.

    This is what a Python `+=` loop gives, bit for bit. numpy's pairwise
    sum(), prefix sums over a longer range, and the built-in sum(), which
    compensates float rounding from Python 3.12 on, would round differently.
    """
    return float(np.add.accumulate(terms)[-1])


def fold_sum(values) -> float:
    """left_sum over any iterable of numbers, starting from 0.0."""
    total = 0.0
    for value in values:
        total += value
    return total


# The most cells one padded matrix of window_sums may hold.
WINDOW_CELLS = 1 << 16


def window_sums(timestamps: np.ndarray, values: np.ndarray, t0, t1) -> np.ndarray:
    """left_sum(values[span] * widths) over step_slice(timestamps, t0[i],
    t1[i]) for every window i, bit for bit; an empty window sums to 0.0.

    Each window's terms fill one row of a matrix, padded after its last term
    with 0.0, which adding leaves every sum exactly as it was, and each row
    is folded from left to right. Rows are taken in chunks of at most
    WINDOW_CELLS cells.
    """
    t0 = np.asarray(t0, dtype=np.int64)
    t1 = np.asarray(t1, dtype=np.int64)
    lo = timestamps.searchsorted(t0, side="right") - 1
    count = timestamps.searchsorted(t1) - lo
    last = len(timestamps) - 1
    sums = np.empty(len(t0))
    rows = max(1, WINDOW_CELLS // max(1, int(count.max(initial=0))))
    for a in range(0, len(t0), rows):
        b = a + rows
        n = count[a:b, None]
        cols = np.arange(max(1, int(n.max())) + 1)
        steps = np.minimum(lo[a:b, None] + cols, last)
        # step edges clipped to the window; past a row's last step both
        # edges sit on t1, so the padding cells have width 0
        edges = np.where(cols < n, timestamps[steps], t1[a:b, None])
        edges[:, 0] = t0[a:b]
        terms = np.where(cols[:-1] < n, values[steps[:, :-1]] * np.diff(edges, axis=1), 0.0)
        sums[a:b] = np.add.accumulate(terms, axis=1)[:, -1]
    return sums


def trailing_means(timestamps: np.ndarray, values: np.ndarray, start: int, ticks, window: int):
    """The step value at each tick, and the time-weighted mean over the
    trailing window [tick - window, tick), both clipped to start; where the
    clipped window is empty, the value at the tick stands in for the mean.
    Each mean is window_sums' sum divided by the window's span."""
    t1 = np.maximum(np.asarray(ticks, dtype=np.int64), start)
    t0 = np.maximum(t1 - window, start)
    span = t1 - t0
    now = values[timestamps.searchsorted(t1, side="right") - 1]
    sums = window_sums(timestamps, values, t0, t1)
    return now, np.where(span > 0, sums / np.maximum(span, 1), now)


def is_capped(price: float, spec: VmSpec) -> bool:
    """True when a price sits on the provider cap (CAP_MULTIPLIER x on-demand)."""
    cap = CAP_MULTIPLIER * spec.on_demand_price
    return abs(price - cap) <= CAP_RELATIVE_EPS * cap


def _parse_timestamp(value, source, line) -> int:
    if isinstance(value, bool):
        raise ParseError(f"bad timestamp {value!r}", source, line, "timestamp")
    if isinstance(value, (int, float)):
        if float(value) != int(value):
            raise ParseError(
                f"timestamp must be whole seconds, got {value!r}",
                source,
                line,
                "timestamp",
            )
        return int(value)
    text = str(value).strip()
    try:
        return _parse_timestamp(float(text) if "." in text else int(text), source, line)
    except ValueError:
        pass
    try:
        stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise ParseError(
            f"timestamp {text!r} is neither epoch seconds nor ISO-8601",
            source,
            line,
            "timestamp",
        ) from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    epoch = stamp.timestamp()
    if epoch != int(epoch):
        raise ParseError(
            f"timestamp must be whole seconds, got {text!r}", source, line, "timestamp"
        )
    return int(epoch)


def _parse_price(value, source, line) -> float:
    try:
        price = float(value)
    except (TypeError, ValueError):
        raise ParseError(f"bad price {value!r}", source, line, "price") from None
    if not np.isfinite(price) or price < 0:
        raise ParseError(
            f"price must be finite and >= 0, got {value!r}", source, line, "price"
        )
    return price


def read_trace_records(path):
    """Read raw trace records from a .csv or .jsonl file.

    Yields dicts with parsed `timestamp` (int seconds) and `price` (float) plus
    either `vm_id` or `instance_type` and `zone`, and provenance for errors.
    """
    path = Path(path)
    for line, record in read_records(path):
        yield _normalize_record(record, path, line)


def _normalize_record(record: dict, source, line) -> dict:
    if "timestamp" not in record:
        raise ParseError("missing value", source, line, "timestamp")
    if "price" not in record:
        raise ParseError("missing value", source, line, "price")
    out = {
        "timestamp": _parse_timestamp(record["timestamp"], source, line),
        "price": _parse_price(record["price"], source, line),
        "source": str(source),
        "line": line,
    }
    vm_id = record.get("vm_id")
    if vm_id:
        out["vm_id"] = str(vm_id)
        return out
    instance_type, zone = record.get("instance_type"), record.get("zone")
    if instance_type and zone:
        out["instance_type"] = str(instance_type)
        out["zone"] = str(zone)
        return out
    raise ParseError(
        "record needs either vm_id or instance_type + zone", source, line, "vm_id"
    )


def ingest_traces(records, catalog, on_unknown: str = "warn") -> dict[str, PriceTrace]:
    """Build per-VM traces from raw records.

    Records for VMs missing from the catalog are skipped with a warning, or
    rejected when on_unknown="error". Duplicate timestamps keep the last record
    seen (with a warning); consecutive points at an unchanged price collapse.
    """
    if on_unknown not in ("warn", "error"):
        raise ValueError(f"on_unknown must be 'warn' or 'error', got {on_unknown!r}")
    by_vm: dict[str, dict[int, float]] = {}
    skipped = 0
    for record in records:
        vm_id = ref = record.get("vm_id")
        if vm_id is None:
            spec = catalog.resolve_instance(record["instance_type"], record["zone"])
            vm_id = None if spec is None else spec.id
            ref = f"{record['instance_type']}@{record['zone']}"
        if vm_id not in catalog:
            if on_unknown == "error":
                raise ParseError(
                    f"unknown vm {ref!r}", record.get("source"), record.get("line")
                )
            log.warning("skipping record for unknown vm %s", ref)
            skipped += 1
            continue
        series = by_vm.setdefault(vm_id, {})
        ts = record["timestamp"]
        if ts in series:
            log.warning(
                "duplicate timestamp %s for vm %s, keeping the later record", ts, vm_id
            )
        series[ts] = record["price"]
    if skipped:
        log.warning("ingest skipped %d records for unknown vms", skipped)
    traces = {}
    for vm_id, series in sorted(by_vm.items()):
        points = []
        for ts in sorted(series):
            price = series[ts]
            if points and points[-1].price == price:
                continue
            points.append(PricePoint(ts, price))
        traces[vm_id] = PriceTrace(vm_id, points)
    return traces


def write_trace_jsonl(trace: PriceTrace, path) -> None:
    """Write a trace in the canonical JSON-lines form (sorted, collapsed)."""
    with open(path, "w") as fh:
        for ts, price in zip(trace.timestamps, trace.prices):
            fh.write(
                json.dumps(
                    {"timestamp": int(ts), "vm_id": trace.vm_id, "price": float(price)},
                    sort_keys=True,
                )
                + "\n"
            )


def trace_files(directory) -> list[Path]:
    """The .csv/.jsonl/.json trace files in a directory, sorted.

    A manifest.json (written next to the traces by the CLI) is not a trace
    and is skipped.
    """
    return sorted(
        p
        for p in Path(directory).iterdir()
        if p.suffix.lower() in (".csv", ".jsonl", ".json")
        and p.is_file()
        and p.name != "manifest.json"
    )


def load_trace_dir(directory, catalog, on_unknown: str = "warn") -> dict[str, PriceTrace]:
    """Ingest every trace file in a directory (see trace_files)."""
    paths = trace_files(directory)
    records = (record for path in paths for record in read_trace_records(path))
    return ingest_traces(records, catalog, on_unknown=on_unknown)
