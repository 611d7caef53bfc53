import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotindex import (
    ConflictError,
    InvariantError,
    PricePoint,
    PriceTrace,
    SynthMarketSpec,
    generate,
    generate_market_suite,
    generate_with_warmup,
)


def spec_of(vm_id="m", mean=6.5, stddev=1.0, **kw):
    return SynthMarketSpec(vm_id=vm_id, mean=mean, stddev=stddev, **kw)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_of(vm_id="")
    with pytest.raises(ValueError):
        spec_of(mean=0.0)
    with pytest.raises(ValueError):
        spec_of(stddev=-0.1)
    with pytest.raises(ValueError):
        spec_of(change_period=0)
    with pytest.raises(ValueError):
        spec_of(duration=0)
    assert spec_of(stddev=0.4, volatility_scale=1.5).target_std == pytest.approx(0.6)


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(mean=1.7e308, stddev=1e307), "mean + half_width must be finite and > 0, got inf"),
        (dict(mean=1.0, stddev=6e307), "2 * half_width must be finite and >= 0, got inf"),
        (dict(mean=1.0, stddev=1e300, volatility_scale=1e10), "mean + half_width must be finite and > 0, got inf"),
    ],
)
def test_a_spec_whose_draw_overflows_is_rejected(fields, message):
    # these once ended in numpy's OverflowError inside generate
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        spec_of(duration=60, **fields)
    # a huge draw that fits is generated
    spec = spec_of(mean=1e300, stddev=1e299, duration=60, enforce_sample_moments=False)
    assert np.isfinite(generate(spec).prices).all()


def test_generate_shape_and_grid():
    trace = generate(spec_of(duration=3600, change_period=60), seed=1)
    assert len(trace) == 60
    assert trace.first_ts == 0
    assert np.all(np.diff(trace.timestamps) == 60)
    trace = generate(spec_of(duration=3600, change_period=60), seed=1, start=7200)
    assert trace.first_ts == 7200


@pytest.mark.parametrize(
    "spec, start", [(spec_of(change_period=60.5), 0), (spec_of(duration=300.0), 0), (spec_of(), 0.5)]
)
def test_a_grid_that_is_not_whole_seconds_is_rejected(spec, start):
    # the grid is never truncated to whole seconds
    with pytest.raises(TypeError):
        generate(spec, start=start)


def test_exact_sample_moments():
    for seed in range(30):
        trace = generate(spec_of(mean=6.5, stddev=1.0), seed=seed)
        assert trace.prices.mean() == pytest.approx(6.5, abs=1e-12)
        assert trace.prices.std() == pytest.approx(1.0, abs=1e-12)


def test_moment_enforcement_optional():
    spec = spec_of(enforce_sample_moments=False)
    trace = generate(spec, seed=3)
    # unforced moments land near but not exactly on the targets
    assert trace.prices.mean() == pytest.approx(6.5, abs=0.5)
    assert abs(trace.prices.mean() - 6.5) > 1e-9


def test_volatility_scale_applies():
    base = generate(spec_of(), seed=5)
    scaled = generate(spec_of(volatility_scale=1.5), seed=5)
    assert scaled.prices.std() == pytest.approx(1.5 * base.prices.std(), rel=1e-12)
    assert scaled.prices.mean() == pytest.approx(base.prices.mean(), abs=1e-12)


def test_determinism_and_stream_separation():
    a1 = generate(spec_of("a"), seed=9)
    a2 = generate(spec_of("a"), seed=9)
    assert np.array_equal(a1.prices, a2.prices)
    b = generate(spec_of("b"), seed=9)
    assert not np.array_equal(a1.prices, b.prices)
    a_other_seed = generate(spec_of("a"), seed=10)
    assert not np.array_equal(a1.prices, a_other_seed.prices)


def test_zero_stddev_is_flat():
    trace = generate(spec_of(stddev=0.0), seed=2)
    assert np.all(trace.prices == 6.5)


def test_stddev_below_float_resolution_is_flat():
    # every draw rounds to the mean, so there is no spread to rescale
    trace = generate(SynthMarketSpec("m", 1.0, 1e-17, duration=3600))
    assert np.all(trace.prices == 1.0)


def test_negative_prices_rejected():
    with pytest.raises(InvariantError):
        generate(spec_of(mean=0.5, stddev=5.0), seed=0)


def test_warmup_preserves_run_block():
    spec = spec_of(duration=1800)
    bare = generate(spec, seed=4)
    warmed = generate_with_warmup(spec, seed=4, warmup=3600)
    assert warmed.first_ts == -3600
    run_mask = warmed.timestamps >= 0
    assert np.array_equal(warmed.timestamps[run_mask], bare.timestamps)
    assert np.array_equal(warmed.prices[run_mask], bare.prices)
    # warmup block has its own exact moments
    head = warmed.prices[~run_mask]
    assert head.mean() == pytest.approx(6.5, abs=1e-12)
    with pytest.raises(ValueError):
        generate_with_warmup(spec, seed=4, warmup=-1)


def test_suite_independence_and_order():
    specs = [spec_of("b"), spec_of("a"), spec_of("c", mean=4.0)]
    suite = generate_market_suite(specs, seed=6)
    assert list(suite) == ["a", "b", "c"]
    # dropping one market leaves the others untouched
    partial = generate_market_suite([spec_of("a"), spec_of("c", mean=4.0)], seed=6)
    assert np.array_equal(suite["a"].prices, partial["a"].prices)
    assert np.array_equal(suite["c"].prices, partial["c"].prices)
    with pytest.raises(ConflictError):
        generate_market_suite([spec_of("a"), spec_of("a")], seed=6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.floats(1.0, 10.0),
    st.floats(0.0, 0.25),
    st.integers(1, 600),
    st.integers(1, 7200),
    st.booleans(),
    st.integers(0, 2**32),
    st.integers(-(10**6), 10**6),
    st.integers(0, 3600),
)
def test_trace_arrays_are_what_price_points_give(
    mean, spread, period, duration, exact_moments, seed, start, warmup
):
    spec = spec_of(
        mean=mean,
        stddev=spread * mean,
        change_period=period,
        duration=duration,
        enforce_sample_moments=exact_moments,
    )
    trace = generate_with_warmup(spec, seed=seed, start=start, warmup=warmup)
    assert trace.timestamps.dtype == np.int64 and trace.prices.dtype == np.float64
    assert np.all(np.diff(trace.timestamps) > 0)
    stamps = [*range(start - warmup, start, period), *range(start, start + duration, period)]
    assert len(stamps) == len(trace)
    points = [PricePoint(t, p) for t, p in zip(stamps, trace.prices.tolist())]
    reference = PriceTrace(spec.vm_id, points)
    assert trace.timestamps.tobytes() == reference.timestamps.tobytes()
    assert trace.prices.tobytes() == reference.prices.tobytes()
