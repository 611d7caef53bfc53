"""Aggregate spot-price indices over capacity-normalized member prices."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import VmSpec
from .errors import CoverageError, GapError, OutOfRangeError, finite
from .prices import fold_sum, is_capped, left_sum, step_slice, trailing_means

DEFAULT_PERIOD = 300


def normalize(spec: VmSpec, price: float) -> float:
    """Price per unit of sqrt(cpu * mem) capacity."""
    return price / spec.capacity_scale


def denormalize(spec: VmSpec, normalized_price: float) -> float:
    return normalized_price * spec.capacity_scale


@dataclass(frozen=True)
class IndexSample:
    timestamp: int
    value: float
    low: float
    high: float
    n_effective: int


@dataclass(frozen=True)
class IndexSeries:
    """Index sampled on a regular grid, with per-sample spread and coverage."""

    composition: tuple[str, ...]
    period: int
    samples: list[IndexSample] = field(default_factory=list)
    gaps: list[int] = field(default_factory=list)

    def __post_init__(self):
        stamps = [s.timestamp for s in self.samples]
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise ValueError("sample grid must be strictly increasing")

    @property
    def values(self) -> np.ndarray:
        return np.array([s.value for s in self.samples], dtype=np.float64)

    def mean(self) -> float:
        if not self.samples:
            raise GapError("index series is empty")
        return float(self.values.mean())


def _member_specs(catalog, composition) -> list[VmSpec]:
    specs = []
    seen = set()
    for vm_id in composition:
        if vm_id in seen:
            raise ValueError(f"composition repeats vm id {vm_id!r}")
        seen.add(vm_id)
        spec = catalog.get(vm_id)
        if spec is None:
            raise GapError(f"composition member {vm_id!r} not in catalog")
        specs.append(spec)
    if not specs:
        raise ValueError("composition is empty")
    return specs


def index_series(
    traces,
    catalog,
    composition,
    start: int,
    end: int,
    period: int = DEFAULT_PERIOD,
) -> IndexSeries:
    """Sample the index on [start, end) every `period` seconds.

    Instants before the curve starts, or where every member is capped, are
    recorded as gaps; a composition the curve cannot be built from raises.
    """
    finite(period, "period")
    if end <= start:
        raise ValueError("end must be after start")
    samples, gaps = IndexCurve(traces, catalog, composition).sample_grid(range(start, end, period))
    composition_key = tuple(sorted(composition))
    return IndexSeries(composition_key, period, samples, gaps)


def on_demand_index(catalog, composition) -> float:
    """Equal-weighted mean of member normalized on-demand prices."""
    specs = _member_specs(catalog, composition)
    return fold_sum(normalize(s, s.on_demand_price) for s in specs) / len(specs)


@dataclass(frozen=True)
class ComparisonReport:
    mean_a: float
    mean_b: float
    mean_ratio: float
    signs: list[int]
    timestamps: list[int]
    on_demand_sign: int | None
    inversions: list[tuple[int, int]]


def compare_indices(
    a: IndexSeries,
    b: IndexSeries,
    on_demand_a: float | None = None,
    on_demand_b: float | None = None,
) -> ComparisonReport:
    """Compare two index series on their common sample grid.

    When on-demand levels are supplied, intervals where the spot ordering
    contradicts the on-demand ordering are reported as inversions.
    """
    a_by_ts = {s.timestamp: s.value for s in a.samples}
    b_by_ts = {s.timestamp: s.value for s in b.samples}
    common = sorted(set(a_by_ts) & set(b_by_ts))
    if not common:
        raise CoverageError("index series share no sample timestamps")
    va = np.array([a_by_ts[t] for t in common])
    vb = np.array([b_by_ts[t] for t in common])
    signs = [int(np.sign(x)) for x in va - vb]
    od_sign = None
    inversions: list[tuple[int, int]] = []
    if on_demand_a is not None and on_demand_b is not None:
        od_sign = int(np.sign(on_demand_a - on_demand_b))
        run_start = None
        for i, (t, sign) in enumerate(zip(common, signs)):
            inverted = sign != 0 and od_sign != 0 and sign != od_sign
            if inverted and run_start is None:
                run_start = t
            if not inverted and run_start is not None:
                inversions.append((run_start, t))
                run_start = None
        if run_start is not None:
            inversions.append((run_start, common[-1] + a.period))
    mean_a = float(va.mean())
    mean_b = float(vb.mean())
    return ComparisonReport(
        mean_a=mean_a,
        mean_b=mean_b,
        mean_ratio=mean_a / mean_b,
        signs=signs,
        timestamps=list(common),
        on_demand_sign=od_sign,
        inversions=inversions,
    )


class IndexCurve:
    """The index as a step function, for integration and window statistics.

    Breakpoints are the union of member price-change instants; between
    breakpoints every member price is constant, so the index is too. Members
    whose price sits on the provider cap are left out of both the mean and
    the member count at that step.
    """

    def __init__(self, traces, catalog, composition):
        specs = _member_specs(catalog, composition)
        for spec in specs:
            if spec.id not in traces:
                raise GapError(f"no trace for composition member {spec.id!r}")
        stamps = np.unique(
            np.concatenate([traces[s.id].timestamps for s in specs])
        )
        self.start = int(max(traces[s.id].first_ts for s in specs))
        stamps = stamps[stamps >= self.start]
        totals = np.zeros(len(stamps))
        counts = np.zeros(len(stamps), dtype=np.int64)
        # min and max of the live members' normalized prices at each step
        self._low = np.full(len(stamps), np.inf)
        self._high = np.full(len(stamps), -np.inf)
        for spec in specs:
            values = traces[spec.id].values_at(stamps)
            live = ~is_capped(values, spec)
            normalized = normalize(spec, values)
            totals[live] += normalized[live]
            counts += live.astype(np.int64)
            np.minimum(self._low, normalized, out=self._low, where=live)
            np.maximum(self._high, normalized, out=self._high, where=live)
        self.timestamps = stamps
        self._counts = counts
        with np.errstate(invalid="ignore", divide="ignore"):
            self._values = np.where(counts > 0, totals / np.maximum(counts, 1), np.nan)

    def _step(self, t: int) -> int:
        """The step in force at t, which must have a live member."""
        if t < self.start:
            raise OutOfRangeError(f"index curve starts at {self.start}, asked for {t}")
        idx = int(np.searchsorted(self.timestamps, t, side="right")) - 1
        if self._counts[idx] == 0:
            raise GapError(f"no effective composition members at {t}")
        return idx

    def value_at(self, t: int) -> float:
        return float(self._values[self._step(t)])

    def sample_at(self, t: int) -> IndexSample:
        idx = self._step(t)
        return IndexSample(
            t,
            float(self._values[idx]),
            float(self._low[idx]),
            float(self._high[idx]),
            int(self._counts[idx]),
        )

    def sample_grid(self, grid) -> tuple[list[IndexSample], list[int]]:
        """Samples at the grid instants, and the instants that are gaps:
        before the curve start or on a step with no live member."""
        stamps = np.asarray(grid, dtype=np.int64)
        idx = np.searchsorted(self.timestamps, stamps, side="right") - 1
        live = (stamps >= self.start) & (self._counts[idx] > 0)
        samples, gaps = [], []
        for t, ok, value, low, high, n in zip(
            stamps.tolist(),
            live.tolist(),
            self._values[idx].tolist(),
            self._low[idx].tolist(),
            self._high[idx].tolist(),
            self._counts[idx].tolist(),
        ):
            if ok:
                samples.append(IndexSample(t, value, low, high, n))
            else:
                gaps.append(t)
        return samples, gaps

    def integrate(self, t0: int, t1: int) -> float:
        """Time integral of the index over [t0, t1), in value * seconds."""
        if t1 <= t0:
            return 0
        if t0 < self.start:
            raise OutOfRangeError(f"index curve starts at {self.start}, asked for {t0}")
        span, widths = step_slice(self.timestamps, t0, t1)
        gaps = np.flatnonzero(self._counts[span] == 0)
        if gaps.size:
            at = max(t0, int(self.timestamps[span.start + int(gaps[0])]))
            raise GapError(f"no effective composition members at {at}")
        return left_sum(widths * self._values[span])

    def window_mean(self, t: int, window: int) -> float:
        """Time-weighted mean over [t - window, t), clipped to curve start."""
        t0 = max(t - window, self.start)
        if t <= t0:
            return self.value_at(t)
        return self.integrate(t0, t) / (t - t0)

    def window_means(self, ticks, window: int) -> tuple[np.ndarray, np.ndarray]:
        """value_at and window_mean at every tick from the curve start on,
        bit for bit where they are defined, and NaN where they raise
        GapError: a step with no live member holds NaN, and a window's sum
        adds each of its steps' values times a positive width. Before the
        curve start a value means nothing."""
        return trailing_means(self.timestamps, self._values, self.start, ticks, window)
