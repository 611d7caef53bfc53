"""Spot price traces: ingestion, step-function evaluation, cap detection."""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import compress, islice
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import InvariantError, OutOfRangeError, ParseError, finite
from .catalog import _BLOCK, VmSpec, record_blocks

log = logging.getLogger(__name__)

# Providers cap spot prices at a fixed multiple of the on-demand price; a trace
# sample sitting exactly on the cap carries no market information.
CAP_MULTIPLIER = 10.0
CAP_RELATIVE_EPS = 1e-9


@dataclass(frozen=True)
class PricePoint:
    """A price effective from `timestamp` (seconds) until the next point.
    The PriceTrace that takes it checks both numbers (_checked_point)."""

    timestamp: int
    price: float


def _checked_point(vm_id: str, i: int, point: PricePoint) -> tuple[int, float]:
    """Point i of trace vm_id as (timestamp, price): a PricePoint of whole
    seconds within int64 and a finite price >= 0, numpy scalars included;
    otherwise an InvariantError naming the trace, the point and the field."""
    name = f"trace {vm_id!r} point {i}"
    if not isinstance(point, PricePoint):
        raise InvariantError(f"{name} must be a PricePoint, got {point!r}")
    t, price = point.timestamp, point.price
    # the range test also rejects NaN and infinities
    if not (isinstance(t, Real) and not isinstance(t, bool) and -(2**63) <= t < 2**63 and t % 1 == 0):
        raise InvariantError(f"{name} timestamp must be whole seconds within int64, got {t!r}")
    finite(price, f"{name} (t={int(t)}) price", strict=False)
    return int(t), float(price)


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each made read-only, so that a write into one raises."""
    for values in arrays:
        values.setflags(write=False)
    return arrays


class PriceTrace:
    """Right-continuous step function of spot price over time for one VM.

    The price at time t is the price of the latest point with timestamp <= t;
    the last price persists indefinitely. Asking before the first point raises.
    A trace is read-only, its arrays and attributes alike: the runs over the
    same trace objects share their index curve and opening table.
    """

    def __init__(self, vm_id: str, points):
        pts = sorted(
            (_checked_point(vm_id, i, point) for i, point in enumerate(points)), key=lambda p: p[0]
        )
        if not pts:
            raise ValueError(f"trace for {vm_id!r} has no points")
        stamps, prices = zip(*pts)
        self.vm_id = vm_id
        self.timestamps, self.prices = read_only(np.array(stamps, np.int64), np.array(prices, np.float64))

    @classmethod
    def from_arrays(cls, vm_id: str, timestamps: np.ndarray, prices: np.ndarray) -> "PriceTrace":
        """A trace over non-empty, sorted, distinct int64 timestamps and
        their float64 prices. It takes the arrays themselves, not copies,
        and makes them read-only."""
        trace = cls.__new__(cls)
        trace.vm_id = vm_id
        trace.timestamps, trace.prices = read_only(timestamps, prices)
        return trace

    def __setattr__(self, name, value):
        if name in self.__dict__:
            raise AttributeError(f"trace {self.vm_id!r} is read-only: {name} is already set")
        super().__setattr__(name, value)

    def __delattr__(self, name):
        raise AttributeError(f"trace {self.vm_id!r} is read-only: {name} cannot be deleted")

    def __len__(self):
        return len(self.timestamps)

    @property
    def first_ts(self) -> int:
        return int(self.timestamps[0])

    def _before_start(self, t: int) -> OutOfRangeError:
        return OutOfRangeError(f"trace {self.vm_id!r} starts at {self.first_ts}, asked for {t}")

    def price_at(self, t: int) -> float:
        if t < self.timestamps[0]:
            raise self._before_start(t)
        idx = int(self.timestamps.searchsorted(t, side="right")) - 1
        return float(self.prices[idx])

    def values_at(self, grid) -> np.ndarray:
        """Vectorized price_at over an array of timestamps."""
        grid = np.asarray(grid, dtype=np.int64)
        if grid.size and grid.min() < self.timestamps[0]:
            raise self._before_start(int(grid.min()))
        idx = self.timestamps.searchsorted(grid, side="right") - 1
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
    clipped to [t0, t1). A span whose width, or whose end, does not fit an
    int64 raises OutOfRangeError: its widths would wrap.
    """
    if max(int(t1), int(t1) - int(t0)) >= 2**63:
        raise OutOfRangeError(f"span [{t0}, {t1}) does not fit in int64 seconds")
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


# The most cells one padded matrix of window_sums may hold: 128 KiB per
# float64 temporary. Over a week trace with 60 steps a window, a 1,024-window
# call for prices and their squares took 0.8-1.1 ms at this size or a quarter
# of it, and 2.1-2.6 ms at four times as many (2-core Xeon VM, numpy 2.4).
WINDOW_CELLS = 1 << 14


def _fold(terms: np.ndarray) -> np.ndarray:
    """Each column's left_sum, for terms laid out one window per column."""
    if terms.shape[1] == 1:
        # numpy sums a lone contiguous column pairwise
        return np.add.accumulate(terms, axis=0)[-1]
    # the rows are added in order, for all columns at once
    return np.add.reduce(terms, axis=0, initial=-0.0)


def window_sums(timestamps: np.ndarray, values: np.ndarray, t0, t1, squares=False):
    """left_sum(values[span] * widths) over step_slice(timestamps, t0[i],
    t1[i]) for every window i, bit for bit. Each window needs
    timestamps[0] <= t0[i] < t1[i]; a lone window may also be empty, and
    then sums to 0.0. With squares, returns these sums and the same sums
    over values * values, from one gather of each window's steps. Of many
    windows, one whose width does not fit an int64 raises OutOfRangeError,
    as step_slice does, since its widths would wrap; so does one that ends
    before it starts.

    A lone window is summed just so. Otherwise each window's terms fill one
    column of a matrix, one step a row, and the rows are added in order, for
    all columns at once, from a start of -0.0, which leaves the first term
    as it is. A column is padded after its last term with -0.0 and a width
    of 0, so its sum stays exactly as it was; squares, never -0.0, are
    padded with 0.0. Columns are taken in chunks of at most WINDOW_CELLS
    cells, and a chunk of one column is folded as a running sum, since
    numpy would sum a lone column pairwise.
    """
    if len(t0) == 1:
        a, b = int(t0[0]), int(t1[0])
        if b <= a:
            return (np.zeros(1), np.zeros(1)) if squares else np.zeros(1)
        span, widths = step_slice(timestamps, a, b)
        gathered = values[span]
        # left_sum's last running sum, kept as an array
        sums = np.add.accumulate(gathered * widths)[-1:]
        if squares:
            return sums, np.add.accumulate(gathered * gathered * widths)[-1:]
        return sums
    t0 = np.asarray(t0, dtype=np.int64)
    t1 = np.asarray(t1, dtype=np.int64)
    width = t1 - t0
    if width.min(initial=0) < 0:
        i = int(width.argmin())
        fault = "does not fit in int64 seconds" if t0[i] < t1[i] else "ends before it starts"
        raise OutOfRangeError(f"span [{t0[i]}, {t1[i]}) {fault}")
    lo = timestamps.searchsorted(t0, side="right") - 1
    count = timestamps.searchsorted(t1) - lo
    sums = np.empty(len(t0))
    square_sums = np.empty(len(t0)) if squares else None
    columns = max(1, WINDOW_CELLS // max(1, int(count.max(initial=0))))
    for a in range(0, len(t0), columns):
        b = a + columns
        rows = np.arange(max(1, int(count[a:b].max())) + 1)[:, None]
        inside = rows < count[a:b]
        steps = lo[a:b] + rows
        # step edges clipped to the window; past a column's last step both
        # edges sit on t1
        edges = np.where(inside, timestamps.take(steps, mode="clip"), t1[a:b])
        edges[0] = t0[a:b]
        widths = edges[1:] - edges[:-1]
        gathered = np.where(inside[:-1], values.take(steps[:-1], mode="clip"), -0.0)
        sums[a:b] = _fold(gathered * widths)
        if squares:
            square_sums[a:b] = _fold(gathered * gathered * widths)
    return (sums, square_sums) if squares else sums


def step_values(timestamps: np.ndarray, values: np.ndarray, start: int, ticks):
    """Each tick clipped to start, max(tick, start), and the step value at
    each clipped tick."""
    t1 = np.maximum(np.asarray(ticks, dtype=np.int64), start)
    return t1, values[timestamps.searchsorted(t1, side="right") - 1]


def trailing_means(
    timestamps: np.ndarray, values: np.ndarray, start: int, t1, window: int, now, squares=False
):
    """The time-weighted means of values over the trailing window
    [t1 - window, t1), clipped to start, at each tick t1 that step_values
    clipped; where the clipped window is empty, now (the step values there)
    stands in. With squares, returns these means and those of values *
    values, for which now * now stands in. Each mean is one of window_sums'
    sums divided by the window's span."""
    t0 = np.maximum(t1 - window, start)
    span = t1 - t0
    live = span > 0
    if not squares:
        return np.divide(window_sums(timestamps, values, t0, t1), span, out=now.copy(), where=live)
    sums, square_sums = window_sums(timestamps, values, t0, t1, squares=True)
    means = np.divide(sums, span, out=now.copy(), where=live)
    return means, np.divide(square_sums, span, out=now * now, where=live)


def is_capped(price: float, spec: VmSpec) -> bool:
    """True when a price sits on the provider cap (CAP_MULTIPLIER x on-demand)."""
    cap = CAP_MULTIPLIER * spec.on_demand_price
    return abs(price - cap) <= CAP_RELATIVE_EPS * cap


def _parse_timestamp(value, source, line) -> int:
    if isinstance(value, bool):
        raise ParseError(f"bad timestamp {value!r}", source, line, "timestamp")
    if isinstance(value, (int, float)):
        # NaN fails this test too
        if not -(2**63) <= value < 2**63:
            raise ParseError(
                f"timestamp must fit in int64 seconds, got {value!r}", source, line, "timestamp"
            )
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
    if isinstance(value, bool):
        raise ParseError(f"bad price {value!r}", source, line, "price")
    try:
        price = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"bad price {value!r}", source, line, "price") from None
    if not np.isfinite(price) or price < 0:
        raise ParseError(
            f"price must be finite and >= 0, got {value!r}", source, line, "price"
        )
    return price


# The one timestamp form parsed in bulk, by numpy: ASCII digits only (`\d`
# alone also matches other scripts' digits), UTC, whole seconds, and a year
# from 0001 on (numpy takes year 0000, which datetime rejects). numpy warns
# about the `Z`, so it gets the text without it.
_STRICT_ISO = re.compile(r"(?!0000)\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", re.ASCII)
# the value of an absent timestamp or price key
_MISSING = object()
# each field a trace record is read for, and its value when absent
_TRACE_FIELDS = {
    "timestamp": _MISSING,
    "price": _MISSING,
    "vm_id": None,
    "instance_type": None,
    "zone": None,
}


def _scalar(parse, values, indices, out, source, lines):
    """Parse values[i] for each i in indices into out[i] with a scalar
    parser; returns (i, its ParseError) for the first value it rejects, or
    None."""
    for i in indices:
        try:
            out[i] = parse(values[i], source, lines[i])
        except ParseError as exc:
            return i, exc
    return None


def _timestamps(values, source, lines):
    """Epoch seconds for a column of raw timestamps, and _scalar's result.

    Plain ints and strict ISO strings are converted in bulk; every other
    value, every int of a column with one outside int64, and every ISO
    string of a column numpy rejects (Feb 30, hour 24, ...), goes through
    _parse_timestamp.
    """
    stamps = np.zeros(len(values), dtype=np.int64)
    ints = np.array([type(v) is int for v in values], dtype=bool)
    isos = np.array(
        [type(v) is str and _STRICT_ISO.fullmatch(v) is not None for v in values], dtype=bool
    )
    if ints.any():
        try:
            stamps[ints] = list(compress(values, ints))
        except OverflowError:
            ints[:] = False
    if isos.any():
        try:
            parsed = np.array([v[:-1] for v in compress(values, isos)], dtype="datetime64[s]")
            stamps[isos] = parsed.astype(np.int64)
        except ValueError:
            isos[:] = False
    rest = np.flatnonzero(~(ints | isos)).tolist()
    return stamps, _scalar(_parse_timestamp, values, rest, stamps, source, lines)


def _prices(values, source, lines):
    """Prices for a column of raw prices, and _scalar's result: float() over
    the column, one finite and >= 0 check, and a bool check of the values
    read as 0.0 or 1.0, as float() reads a bool; _parse_price takes over
    from the first value that fails one."""
    try:
        prices = np.fromiter(map(float, values), dtype=np.float64, count=len(values))
    except (TypeError, ValueError, OverflowError):
        prices, start = np.zeros(len(values)), 0
    else:
        bad = ~(np.isfinite(prices) & (prices >= 0))
        for i in np.flatnonzero((prices == 0) | (prices == 1)).tolist():
            bad[i] |= type(values[i]) is bool
        start = int(bad.argmax()) if bad.any() else len(values)
    return prices, _scalar(_parse_price, values, range(start, len(values)), prices, source, lines)


def _parse_columns(path: Path, lines, columns):
    """Check one file's columns record by record, in the order a record's
    checks run: timestamp and price present, timestamp, price, identity.

    Returns (timestamps, prices, keys, error) for the records before the
    first one that fails a check, and that record's error (None if every
    record passes). A key is the vm id, or the (instance_type, zone) pair.
    """
    failures = []
    for rank, field in enumerate(("timestamp", "price")):
        if _MISSING in columns[field]:
            i = columns[field].index(_MISSING)
            failures.append((i, rank, ParseError("missing value", path, lines[i], field)))
    stamps, failure = _timestamps(columns["timestamp"], path, lines)
    if failure:
        failures.append((failure[0], 2, failure[1]))
    prices, failure = _prices(columns["price"], path, lines)
    if failure:
        failures.append((failure[0], 3, failure[1]))
    keys = [
        str(vm_id) if vm_id else (str(itype), str(zone)) if itype and zone else None
        for vm_id, itype, zone in zip(columns["vm_id"], columns["instance_type"], columns["zone"])
    ]
    if None in keys:
        i = keys.index(None)
        message = "record needs either vm_id or instance_type + zone"
        failures.append((i, 4, ParseError(message, path, lines[i], "vm_id")))
    if not failures:
        return stamps, prices, keys, None
    cut, _, error = min(failures, key=lambda failure: failure[:2])
    return stamps[:cut], prices[:cut], keys[:cut], error


def _resolve(key, catalog):
    """(vm id or None when the catalog lacks it, reference for messages)."""
    if isinstance(key, str):
        return (key if key in catalog else None), key
    spec = catalog.resolve_instance(*key)
    return (None if spec is None else spec.id), f"{key[0]}@{key[1]}"


def ingest_traces(paths, catalog, on_unknown: str = "warn") -> dict[str, PriceTrace]:
    """Read raw trace files (.csv with a header row, else JSON lines) and
    build per-VM traces.

    A record has a timestamp (epoch seconds, or ISO-8601 with UTC assumed
    when no offset is given), a finite price >= 0, and either a vm_id or an
    instance_type and zone. The first bad value raises ParseError with its
    file, line and field. Records for VMs missing from the catalog are
    skipped with a warning, or rejected when on_unknown="error". Duplicate
    timestamps keep the record read last, in file order (with a warning);
    consecutive points at an unchanged price collapse. Files are read in
    the order given, and none after the one with the first error.
    """
    if on_unknown not in ("warn", "error"):
        raise ValueError(f"on_unknown must be 'warn' or 'error', got {on_unknown!r}")
    # each distinct key is resolved once: its code indexes `resolved`
    codes_of, resolved = {}, []
    parts = []
    error = None
    for path, lines, columns, read_error in record_blocks(paths, _TRACE_FIELDS):
        stamps, prices, keys, error = _parse_columns(path, lines, columns)
        error = error or read_error
        for key in set(keys).difference(codes_of):
            codes_of[key] = len(resolved)
            resolved.append(_resolve(key, catalog))
        codes = np.fromiter(map(codes_of.__getitem__, keys), dtype=np.intp, count=len(keys))
        if on_unknown == "error":
            unknown = np.array([vm_id is None for vm_id, _ in resolved], dtype=bool)[codes]
            if unknown.any():
                i = int(unknown.argmax())
                error = ParseError(f"unknown vm {resolved[codes[i]][1]!r}", str(path), lines[i])
                stamps, prices, codes = stamps[:i], prices[:i], codes[:i]
        parts.append((stamps, prices, codes))
        if error is not None:
            break
    stamps, prices, codes = (
        np.concatenate([np.zeros(0, dtype)] + [part[k] for part in parts])
        for k, dtype in enumerate((np.int64, np.float64, np.intp))
    )
    present = np.flatnonzero(np.bincount(codes, minlength=len(resolved))).tolist()
    names = sorted({resolved[code][0] for code in present} - {None})
    rank = {vm_id: r for r, vm_id in enumerate(names)}
    vm = np.array([rank.get(vm_id, -1) for vm_id, _ in resolved], dtype=np.intp)[codes]
    unknown = np.flatnonzero(vm < 0).tolist()
    notes = [(i, "skipping record for unknown vm %s", resolved[codes[i]][1]) for i in unknown]
    # each VM's records by timestamp, ties in file order
    known = np.flatnonzero(vm >= 0)
    order = known[np.lexsort((stamps[known], vm[known]))]
    vm, stamps, prices = vm[order], stamps[order], prices[order]
    repeat = (vm[1:] == vm[:-1]) & (stamps[1:] == stamps[:-1])
    for k in np.flatnonzero(repeat).tolist():
        notes.append(
            (
                int(order[k + 1]),
                "duplicate timestamp %s for vm %s, keeping the later record",
                int(stamps[k + 1]),
                names[vm[k + 1]],
            )
        )
    for _, message, *args in sorted(notes):
        log.warning(message, *args)
    if error is not None:
        raise error
    if unknown:
        log.warning("ingest skipped %d records for unknown vms", len(unknown))
    keep = np.ones(len(order), dtype=bool)
    keep[:-1] = ~repeat
    vm, stamps, prices = vm[keep], stamps[keep], prices[keep]
    change = np.ones(len(vm), dtype=bool)
    change[1:] = (vm[1:] != vm[:-1]) | (prices[1:] != prices[:-1])
    vm, stamps, prices = vm[change], stamps[change], prices[change]
    bounds = vm.searchsorted(np.arange(len(names) + 1)).tolist()
    return {
        vm_id: PriceTrace.from_arrays(vm_id, stamps[a:b], prices[a:b])
        for vm_id, a, b in zip(names, bounds, bounds[1:])
    }


def write_trace_jsonl(trace: PriceTrace, path) -> None:
    """Write a trace in the canonical JSON-lines form (sorted, collapsed):
    each line is what json.dumps(point, sort_keys=True) gives, with every
    number formatted by the json encoder. Each block of _BLOCK lines goes
    out in one write."""
    vm_id = json.dumps(trace.vm_id)
    prices = json.dumps(trace.prices.tolist())[1:-1].split(", ")
    stamps = json.dumps(trace.timestamps.tolist())[1:-1].split(", ")
    points = zip(prices, stamps)
    with open(path, "w") as fh:
        while block := list(islice(points, _BLOCK)):
            fh.write("".join(f'{{"price": {p}, "timestamp": {t}, "vm_id": {vm_id}}}\n' for p, t in block))


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
    return ingest_traces(trace_files(directory), catalog, on_unknown=on_unknown)
