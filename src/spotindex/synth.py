"""Synthetic spot-price traces with exact sample moments."""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from .errors import ConflictError, InvariantError, exact, finite
from .prices import PriceTrace

log = logging.getLogger(__name__)

NEGATIVE_PRICE_TOLERANCE = 1e-9
DEFAULT_SEED = 0


@dataclass(frozen=True)
class SynthMarketSpec:
    """One market's price process: target moments and change cadence. Each
    field is stored as exact gives it for its annotated kind (60.0 is 60,
    while 60.5 or "no" raises), and then its range is checked."""

    vm_id: str
    mean: float
    stddev: float
    change_period: int = 60
    duration: int = 3600
    volatility_scale: float = 1.0
    enforce_sample_moments: bool = True

    def __post_init__(self):
        if not isinstance(self.vm_id, str):
            raise InvariantError(f"vm_id must be a string, got {self.vm_id!r}")
        for name, kind in _SPEC_KINDS:
            object.__setattr__(self, name, exact(kind, getattr(self, name), name))
        if not self.vm_id:
            raise ValueError("vm_id must be non-empty")
        finite(self.mean, "mean")
        finite(self.stddev, "stddev", strict=False)
        finite(self.change_period, "change_period")
        finite(self.duration, "duration")
        finite(self.volatility_scale, "volatility_scale", strict=False)
        # generate draws on [mean - half_width, mean + half_width), and
        # numpy's draw overflows unless its upper bound and width are finite
        finite(self.mean + self.half_width, "mean + half_width")
        finite(2 * self.half_width, "2 * half_width", strict=False)

    @property
    def target_std(self) -> float:
        return self.stddev * self.volatility_scale

    @property
    def half_width(self) -> float:
        """Half the width of the uniform draw: target_std * sqrt(3)."""
        return self.target_std * math.sqrt(3.0)


# each field after vm_id with the kind its annotation names (postponed annotations)
_KINDS = {"int": int, "float": float, "bool": bool}
_SPEC_KINDS = [(f.name, _KINDS[f.type]) for f in fields(SynthMarketSpec)[1:]]


def checked_seed(seed) -> int:
    """seed as an int: a whole number >= 0 of any size, numpy integers
    included, where 7.0 means 7; a boolean, a string, a fraction, None or a
    negative number raises an InvariantError naming seed."""
    if isinstance(seed, Integral) and not isinstance(seed, bool):
        seed = int(seed)
    seed = exact(int, seed, "seed")
    if seed < 0:
        raise InvariantError(f"seed must be >= 0, got {seed}")
    return seed


def _seed_words(vm_id: str) -> np.ndarray:
    # Sub-seed keyed by vm_id so reordering market specs never changes traces.
    # SeedSequence takes a uint32 array's words as it takes a list of them.
    return np.frombuffer(hashlib.sha256(vm_id.encode("utf-8")).digest(), dtype=np.uint32)


def _exact_moments(values: np.ndarray, mean: float, std: float) -> np.ndarray:
    """Affinely rescale so the sample mean and population std are exact.

    The values are draws within mean +/- 2 * std. Their moments are taken
    of them scaled by the power of two that brings that bound into
    [0.5, 1), then scaled back: exact, so the result is the same bits as
    unscaled moments, but the squares stay finite for a spread near the
    float range's top; they are summed as ndarray.mean and .std sum them."""
    scale = math.ldexp(1.0, -math.frexp(abs(mean) + 2.0 * std)[1])
    scaled = values * scale
    center = scaled.sum() / len(values)
    deviations = scaled - center
    spread = math.sqrt((deviations * deviations).sum() / len(values)) / scale
    # one draw, or draws all equal at float resolution: nothing to rescale
    if std == 0.0 or spread == 0.0:
        return np.full_like(values, mean)
    return mean + (values - center / scale) * (std / spread)


def _draw(spec: SynthMarketSpec, seed: int, words: np.ndarray, start: int, duration: int, salt: int):
    """The timestamps and prices of spec's market over [start, start + duration); see generate."""
    grid = range(start, start + duration, spec.change_period)
    if grid.start < -(2**63) or grid.stop > 2**63:
        raise InvariantError(
            f"market {spec.vm_id!r}: span [{grid.start}, {grid.stop}) does not fit in int64 seconds"
        )
    stamps = np.arange(grid.start, grid.stop, grid.step, dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, salt, words])))
    values = rng.uniform(spec.mean - spec.half_width, spec.mean + spec.half_width, len(grid))
    if spec.enforce_sample_moments:
        values = _exact_moments(values, spec.mean, spec.target_std)
    low = values.min()
    if not low >= 0:  # a negative price, or a NaN, which min gives if any draw is one
        negatives = values < 0
        if np.any(values < -NEGATIVE_PRICE_TOLERANCE):
            raise InvariantError(
                f"market {spec.vm_id!r} produced price {float(low)}; "
                "shrink stddev or volatility_scale to leave headroom above zero"
            )
        if np.any(negatives):
            log.warning(
                "market %s: clamped %d tiny negative prices", spec.vm_id, int(negatives.sum())
            )
            values = np.where(negatives, 0.0, values)
    return stamps, values


def generate(spec: SynthMarketSpec, seed: int = DEFAULT_SEED, start: int = 0, salt: int = 0) -> PriceTrace:
    """One uniform i.i.d. price per change_period on [start, start + duration),
    a span that must fit in int64 seconds, built straight from its int64
    timestamp and float64 price arrays.

    Draws are uniform on mean +/- stddev * sqrt(3) * volatility_scale; with
    enforce_sample_moments the samples are affinely rescaled so the realized
    mean and population std hit the targets exactly. Rescaling can push a
    sample slightly below zero; beyond float noise that is an error, not
    something to clamp away. `salt` separates the randomness of otherwise
    identical calls (warmup block versus the run proper).
    """
    start = exact(int, start, "start")
    seed = checked_seed(seed)
    words = _seed_words(spec.vm_id)
    return PriceTrace.from_arrays(spec.vm_id, *_draw(spec, seed, words, start, spec.duration, salt))


def generate_with_warmup(
    spec: SynthMarketSpec, seed: int = DEFAULT_SEED, start: int = 0, warmup: int = 0
) -> PriceTrace:
    """The run-proper trace, preceded by a separately drawn warmup block.

    The warmup covers [start - warmup, start) with its own exact moments, so
    trailing-window statistics are defined from the first run instant without
    disturbing the run block (which is identical to a warmup-free generate).
    """
    finite(warmup, "warmup", strict=False)
    warmup = exact(int, warmup, "warmup")
    start = exact(int, start, "start")
    seed = checked_seed(seed)
    words = _seed_words(spec.vm_id)
    stamps, prices = _draw(spec, seed, words, start, spec.duration, 0)
    if warmup:
        head_stamps, head_prices = _draw(spec, seed, words, start - warmup, warmup, 1)
        stamps, prices = np.concatenate([head_stamps, stamps]), np.concatenate([head_prices, prices])
    return PriceTrace.from_arrays(spec.vm_id, stamps, prices)


def generate_market_suite(
    specs, seed: int = DEFAULT_SEED, start: int = 0, warmup: int = 0
) -> dict[str, PriceTrace]:
    """Generate one trace per market spec, keyed by vm id.

    Markets draw from independent sub-streams of the master seed; changing
    one spec never alters another market's trace.
    """
    seed = checked_seed(seed)
    traces: dict[str, PriceTrace] = {}
    for spec in specs:
        if spec.vm_id in traces:
            raise ConflictError(f"duplicate market spec for {spec.vm_id!r}")
        traces[spec.vm_id] = generate_with_warmup(spec, seed=seed, start=start, warmup=warmup)
    return dict(sorted(traces.items()))
