"""Synthetic spot-price traces with exact sample moments."""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConflictError, InvariantError
from .prices import PriceTrace

log = logging.getLogger(__name__)

NEGATIVE_PRICE_TOLERANCE = 1e-9
DEFAULT_SEED = 0


@dataclass(frozen=True)
class SynthMarketSpec:
    """One market's price process: target moments and change cadence."""

    vm_id: str
    mean: float
    stddev: float
    change_period: int = 60
    duration: int = 3600
    volatility_scale: float = 1.0
    enforce_sample_moments: bool = True

    def __post_init__(self):
        if not self.vm_id:
            raise ValueError("vm_id must be non-empty")
        if not np.isfinite(self.mean) or self.mean <= 0:
            raise ValueError(f"mean must be finite and positive, got {self.mean}")
        if not np.isfinite(self.stddev) or self.stddev < 0:
            raise ValueError(f"stddev must be finite and non-negative, got {self.stddev}")
        if self.change_period <= 0:
            raise ValueError("change_period must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.volatility_scale < 0:
            raise ValueError("volatility_scale must be non-negative")

    @property
    def target_std(self) -> float:
        return self.stddev * self.volatility_scale


def _market_rng(seed: int, vm_id: str, salt: int = 0) -> np.random.Generator:
    # Sub-seed keyed by vm_id so reordering market specs never changes traces.
    digest = hashlib.sha256(vm_id.encode("utf-8")).digest()
    words = [int(w) for w in np.frombuffer(digest, dtype=np.uint32)]
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, salt] + words))
    )


def _exact_moments(values: np.ndarray, mean: float, std: float) -> np.ndarray:
    """Affinely rescale so the sample mean and population std are exact."""
    if len(values) == 1 or std == 0.0:
        return np.full_like(values, mean)
    spread = values.std()
    if spread <= 0:
        raise InvariantError("degenerate draw, cannot rescale to target std")
    return mean + (values - values.mean()) * (std / spread)


def generate(spec: SynthMarketSpec, seed: int = DEFAULT_SEED, start: int = 0, salt: int = 0) -> PriceTrace:
    """One uniform i.i.d. price per change_period on [start, start + duration),
    built straight from its int64 timestamp and float64 price arrays.

    Draws are uniform on mean +/- stddev * sqrt(3) * volatility_scale; with
    enforce_sample_moments the samples are affinely rescaled so the realized
    mean and population std hit the targets exactly. Rescaling can push a
    sample slightly below zero; beyond float noise that is an error, not
    something to clamp away. `salt` separates the randomness of otherwise
    identical calls (warmup block versus the run proper).
    """
    # range() rejects a start, duration or period that is not an integer,
    # which np.arange would truncate
    grid = range(start, start + spec.duration, spec.change_period)
    stamps = np.arange(grid.start, grid.stop, grid.step, dtype=np.int64)
    rng = _market_rng(seed, spec.vm_id, salt)
    half_width = spec.target_std * np.sqrt(3.0)
    values = rng.uniform(spec.mean - half_width, spec.mean + half_width, len(stamps))
    if spec.enforce_sample_moments:
        values = _exact_moments(values, spec.mean, spec.target_std)
    negatives = values < 0
    if np.any(values < -NEGATIVE_PRICE_TOLERANCE):
        worst = float(values.min())
        raise InvariantError(
            f"market {spec.vm_id!r} produced price {worst}; "
            "shrink stddev or volatility_scale to leave headroom above zero"
        )
    if np.any(negatives):
        log.warning(
            "market %s: clamped %d tiny negative prices", spec.vm_id, int(negatives.sum())
        )
        values = np.where(negatives, 0.0, values)
    return PriceTrace.from_arrays(spec.vm_id, stamps, values)


def generate_with_warmup(
    spec: SynthMarketSpec, seed: int = DEFAULT_SEED, start: int = 0, warmup: int = 0
) -> PriceTrace:
    """The run-proper trace, preceded by a separately drawn warmup block.

    The warmup covers [start - warmup, start) with its own exact moments, so
    trailing-window statistics are defined from the first run instant without
    disturbing the run block (which is identical to a warmup-free generate).
    """
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    run = generate(spec, seed=seed, start=start, salt=0)
    if warmup == 0:
        return run
    head = generate(replace(spec, duration=warmup), seed=seed, start=start - warmup, salt=1)
    return PriceTrace.from_arrays(
        spec.vm_id,
        np.concatenate([head.timestamps, run.timestamps]),
        np.concatenate([head.prices, run.prices]),
    )


def generate_market_suite(
    specs, seed: int = DEFAULT_SEED, start: int = 0, warmup: int = 0
) -> dict[str, PriceTrace]:
    """Generate one trace per market spec, keyed by vm id.

    Markets draw from independent sub-streams of the master seed; changing
    one spec never alters another market's trace.
    """
    traces: dict[str, PriceTrace] = {}
    for spec in specs:
        if spec.vm_id in traces:
            raise ConflictError(f"duplicate market spec for {spec.vm_id!r}")
        traces[spec.vm_id] = generate_with_warmup(spec, seed=seed, start=start, warmup=warmup)
    return dict(sorted(traces.items()))
