import hashlib
import logging
import math
import re
from dataclasses import replace
from fractions import Fraction
from numbers import Real

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from spotindex.errors import finite
from spotindex.synth import _exact_moments


def spec_of(vm_id="m", mean=6.5, stddev=1.0, **kw):
    return SynthMarketSpec(vm_id=vm_id, mean=mean, stddev=stddev, **kw)


def trace_digest(trace) -> str:
    return hashlib.sha256(trace.timestamps.tobytes() + trace.prices.tobytes()).hexdigest()


# the warmup oracle's fixed cases, name -> (spec, start, warmup), each valid
# at seeds 0, 2 and 7919; at seed 2 the run block of "clamped" (the spec of
# test_tiny_negative_prices_are_clamped_with_a_warning) clamps a price
WARMUP_CASES = {
    "moments off": (spec_of(duration=600, enforce_sample_moments=False), 0, 3600),
    "volatility 0": (spec_of(duration=600, volatility_scale=0.0), 0, 600),
    "no warmup": (spec_of(duration=600), 0, 0),
    "warmup below one period": (spec_of(duration=600), 30, 59),
    "warmup off the period": (spec_of(duration=600), 0, 150),
    "clamped": (spec_of(mean=0.1, stddev=0.1, duration=120), 0, 120),
}
# a run block within int64 after a warmup block that leaves it
WARMUP_PAST_INT64 = (spec_of(duration=600), -(2**63) + 30, 60)


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
    "spec, start", [(dict(change_period=60.5), 0), (dict(duration=300.0), 0), ({}, 0.5)]
)
def test_a_grid_that_is_not_whole_seconds_is_rejected(spec, start):
    # the grid is never truncated to whole seconds: a fraction raises an
    # InvariantError naming it, where it once reached range()'s raw
    # TypeError; a whole float, once also a TypeError, means its int
    fractions = [f"{k} must be int, got {v}" for k, v in {**spec, "start": start}.items() if v % 1]
    if fractions:
        with pytest.raises(InvariantError, match=f"^{re.escape(fractions[0])}$"):
            generate(spec_of(**spec), start=start)
        return
    whole = generate(spec_of(**spec), start=start)
    meant = generate(spec_of(**{k: int(v) for k, v in spec.items()}), start=int(start))
    assert whole.timestamps.tolist() == meant.timestamps.tolist() == list(range(0, 300, 60))
    assert whole.prices.tobytes() == meant.prices.tobytes()


@pytest.mark.parametrize("start, warmup", [(0.5, 0), (0, 0.5), (True, 0), (0, math.nan)])
def test_a_start_or_warmup_that_is_not_whole_seconds_names_it(start, warmup):
    # each but the nan warmup reached range()'s raw TypeError, or ran at
    # start 1 for True
    key, value = ("start", start) if start else ("warmup", warmup)
    with pytest.raises(InvariantError, match=rf"^{key} must be .*, got {value}$"):
        generate_with_warmup(spec_of(), start=start, warmup=warmup)


@pytest.mark.parametrize(
    "start, warmup, span",
    [
        (2**63 - 1000, 0, [2**63 - 1000, 2**63 + 2600]),
        (2**63 - 1, 0, [2**63 - 1, 2**63 + 3599]),
        (-(2**63), 60, [-(2**63) - 60, -(2**63)]),
    ],
)
def test_a_span_past_int64_is_rejected(start, warmup, span):
    # its timestamps wrapped around, or np.arange raised OverflowError
    message = rf"^market 'a': span \[{span[0]}, {span[1]}\) does not fit in int64 seconds$"
    spec = SynthMarketSpec("a", 4.0, 0.5)
    with pytest.raises(InvariantError, match=message):
        generate_with_warmup(spec, start=start, warmup=warmup)
    if not warmup:
        with pytest.raises(InvariantError, match=message):
            generate(spec, start=start)


def test_a_span_to_the_ends_of_int64_is_generated():
    spec = SynthMarketSpec("a", 4.0, 0.5)
    assert generate(spec, start=2**63 - 3600).timestamps[-1] == 2**63 - 60
    assert generate_with_warmup(spec, start=-(2**63) + 60, warmup=60).first_ts == -(2**63)


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


def test_spreads_near_the_float_range_top_keep_their_moments():
    # the squares of a 1e200 spread overflow; its moments must not
    rng = np.random.default_rng(0)
    values = _exact_moments(rng.uniform(-1.7e200, 1.7e200, 10), 1.0, 1e200)
    assert (values / 1e200).std() == pytest.approx(1.0, rel=1e-12)
    huge = generate(SynthMarketSpec("m", 1e300, 1e299, duration=6000))
    assert (huge.prices / 1e300).mean() == pytest.approx(1.0, rel=1e-12)
    assert (huge.prices / 1e300).std() == pytest.approx(0.1, rel=1e-12)
    # a 1e200 spread around 1.0 goes far below zero, which is located
    with pytest.raises(InvariantError, match="market 'm' produced price -"):
        generate(SynthMarketSpec("m", 1.0, 1e200, duration=600))


@pytest.mark.parametrize(
    "spec, seed, digest",
    [
        (
            SynthMarketSpec("c4.2xlarge", 6.5, 1.0, change_period=23, duration=4 * 3600),
            0,
            "6bf2f4962140e278a540c54e5231a99fe90aa1dbf5123aa139d8a422fc476bc6",
        ),
        (
            SynthMarketSpec("r4.xlarge", 6.5, 1.1, duration=7 * 86400, volatility_scale=1.5),
            7919 * 64,
            "7ac75dc64bd3caeb9062170f70cd39070dedb940f3abd3f63f2fc2ab3e8f3c10",
        ),
    ],
)
def test_benchmark_traces_keep_their_bytes(spec, seed, digest):
    # a bsp and a week market of the benchmark, as the unscaled moments gave them
    trace = generate(spec, seed=seed)
    assert hashlib.sha256(trace.timestamps.tobytes() + trace.prices.tobytes()).hexdigest() == digest


def moments_reference(values, mean, std):
    """_exact_moments with the moments that ndarray.std and .mean take."""
    scale = math.ldexp(1.0, -math.frexp(abs(mean) + 2.0 * std)[1])
    scaled = values * scale
    spread = scaled.std() / scale
    if std == 0.0 or spread == 0.0:
        return np.full_like(values, mean)
    return mean + (values - scaled.mean() / scale) * (std / spread)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.one_of(st.integers(1, 300), st.integers(1, 5000)),
    st.floats(1e-300, 1e300),
    st.one_of(st.just(0.0), st.floats(1e-18, 0.5)),
    st.integers(0, 2**32),
)
def test_exact_moments_are_the_bits_of_ndarray_mean_and_std(n, mean, ratio, seed):
    # draws of mean +- sqrt(3) * std, as generate makes them, over lengths
    # on both sides of numpy's pairwise-summation blocks
    std = mean * ratio
    values = np.random.default_rng(seed).uniform(mean - std * math.sqrt(3.0), mean + std * math.sqrt(3.0), n)
    assert _exact_moments(values, mean, std).tobytes() == moments_reference(values, mean, std).tobytes()


@pytest.mark.parametrize(
    "seed, message",
    [
        (True, "seed must be int, got True"),
        ("7", "seed must be int, got '7'"),
        (0.5, "seed must be int, got 0.5"),
        (math.inf, "seed must be int, got inf"),
        (None, "seed must be int, got None"),
        (-1, "seed must be >= 0, got -1"),
        (np.int64(-1), "seed must be >= 0, got -1"),
    ],
)
def test_a_seed_that_is_not_a_whole_number_at_least_0_names_it(seed, message):
    # True ran at seed 1 and "7" at seed 7; -1 reached numpy's raw
    # ValueError, and 0.5, inf and None raw TypeErrors
    for call in (generate, generate_with_warmup):
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
            call(spec_of(), seed=seed)
    # the suite checks its seed before any market, so none need be given
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        generate_market_suite([], seed=seed)


@pytest.mark.parametrize("warmup", [-1, math.nan, math.inf, True, "60", None])
def test_the_suite_checks_its_warmup_before_any_market(warmup):
    message = f"warmup must be finite and >= 0, got {warmup!r}"
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        generate_market_suite([], warmup=warmup)


@pytest.mark.parametrize(
    "seed, expected",
    [
        (7, "ee501f4673d166ab165bde9b74b0682dff83e9e5f8bf316919e536f31167c77b"),
        (7.0, "ee501f4673d166ab165bde9b74b0682dff83e9e5f8bf316919e536f31167c77b"),
        (np.int64(7), "ee501f4673d166ab165bde9b74b0682dff83e9e5f8bf316919e536f31167c77b"),
        (2**64 - 1, "1325b876cfaee9cdb4476e3e12f58d6b2aec75ec2e779498f694524c9b00906f"),
        (np.uint64(2**64 - 1), "1325b876cfaee9cdb4476e3e12f58d6b2aec75ec2e779498f694524c9b00906f"),
        (2**200 + 3, "22cf39f2b15f7b8242134247dbae4a80370ad708455bc105042753e9d1629243"),
    ],
)
def test_a_whole_seed_gives_the_bytes_of_its_int(seed, expected):
    # the digests of what these ints gave before the seed was checked, when
    # 7.0 raised a TypeError
    spec = spec_of(duration=600)
    assert trace_digest(generate_with_warmup(spec, seed=seed, warmup=300)) == expected
    assert trace_digest(generate_market_suite([spec], seed=seed, warmup=300)["m"]) == expected
    assert trace_digest(generate(spec, seed=seed)) == trace_digest(generate(spec, seed=int(seed)))


def test_negative_prices_rejected():
    with pytest.raises(InvariantError):
        generate(spec_of(mean=0.5, stddev=5.0), seed=0)


def test_tiny_negative_prices_are_clamped_with_a_warning(caplog):
    # two draws rescaled to 0.1 +- 0.1: the low one lands a rounding error
    # below zero
    with caplog.at_level(logging.WARNING, logger="spotindex.synth"):
        trace = generate(spec_of(mean=0.1, stddev=0.1, duration=120), seed=2)
    assert trace.prices.tolist() == [0.0, 0.19999999999999996]
    assert math.copysign(1.0, trace.prices[0]) == 1.0
    assert caplog.messages == ["market m: clamped 1 tiny negative prices"]


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


def warmed_reference(spec, seed, start, warmup):
    """generate_with_warmup built from generate: the run block after a
    warmup block that generate draws from the spec replaced to last warmup
    seconds, at start - warmup with salt 1."""
    run = generate(spec, seed=seed, start=start)
    if warmup == 0:
        return run
    head = generate(replace(spec, duration=warmup), seed=seed, start=start - warmup, salt=1)
    return PriceTrace.from_arrays(
        spec.vm_id,
        np.concatenate([head.timestamps, run.timestamps]),
        np.concatenate([head.prices, run.prices]),
    )


class Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def outcome(call, *args):
    """The bytes of call(*args)'s trace, or its error's type and message,
    and the messages it logged to spotindex.synth."""
    logger, handler = logging.getLogger("spotindex.synth"), Messages()
    logger.addHandler(handler)
    try:
        trace = call(*args)
        result = (trace.timestamps.tobytes(), trace.prices.tobytes())
    except Exception as exc:
        result = (type(exc), str(exc))
    finally:
        logger.removeHandler(handler)
    return result, handler.messages


def with_warmup_cases(test):
    """test with an example of each warmup case and of WARMUP_PAST_INT64,
    each at seed 2."""
    for spec, start, warmup in [*WARMUP_CASES.values(), WARMUP_PAST_INT64]:
        test = example(spec, 2, start, warmup)(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.builds(
        spec_of,
        vm_id=st.sampled_from(["m", "c4.2xlarge"]),
        mean=st.floats(0.05, 10.0),
        stddev=st.floats(0.0, 5.0),
        change_period=st.integers(1, 900),
        duration=st.integers(1, 7200),
        volatility_scale=st.sampled_from([0.0, 0.5, 1.0, 1.5]),
        enforce_sample_moments=st.booleans(),
    ),
    st.one_of(st.integers(0, 2**32), st.integers(0, 2**70)),
    st.one_of(
        st.integers(-(10**6), 10**6),
        st.integers(-(2**63), -(2**63) + 7200),
        st.integers(2**63 - 7200, 2**63),
    ),
    st.integers(0, 7200),
)
@with_warmup_cases
def test_a_warmed_trace_is_its_run_block_after_a_block_of_its_spec(spec, seed, start, warmup):
    # generate_with_warmup draws its warmup block without building the
    # replaced spec; it must give what that spec gave, bit for bit, and the
    # same error and clamp warnings in the same order
    assert outcome(generate_with_warmup, spec, seed, start, warmup) == outcome(
        warmed_reference, spec, seed, start, warmup
    )


def test_the_warmup_cases_are_what_they_say():
    for spec, start, warmup in WARMUP_CASES.values():
        for seed in (0, 2, 7919):
            generate_with_warmup(spec, seed, start, warmup)
    _, messages = outcome(generate_with_warmup, WARMUP_CASES["clamped"][0], 2, 0, 120)
    assert messages == ["market m: clamped 1 tiny negative prices"]
    with pytest.raises(InvariantError, match="does not fit in int64 seconds"):
        generate_with_warmup(WARMUP_PAST_INT64[0], 2, *WARMUP_PAST_INT64[1:])


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


def finite_reference(value, name, minimum=0, strict=True):
    """errors.finite as it was before its plain float and int fast path."""
    try:
        ok = (
            isinstance(value, Real)
            and not isinstance(value, bool)
            and math.isfinite(value)
            and (value > minimum if strict else value >= minimum)
        )
    except OverflowError:
        ok = False
    if not ok:
        bound = f"{'>' if strict else '>='} {minimum}"
        raise InvariantError(f"{name} must be finite and {bound}, got {value!r}")


class Seconds(int):
    pass


FINITE_VALUES = [
    0, 1, -1, 7, 2**53 + 1, 2**1024, -(2**1024), 10**400,
    0.0, -0.0, 0.5, -0.5, 1.0, 1e308, 5e-324, math.nan, math.inf, -math.inf,
    True, False, np.bool_(True),
    np.float64(0.5), np.float64(-0.0), np.float64(math.nan), np.float64(math.inf), np.float32(2.5),
    np.int64(3), np.int64(-3), np.uint64(2**64 - 1),
    Fraction(1, 3), Fraction(-1, 3), Fraction(0), Seconds(4),
    "1", None, 1 + 0j,
]


def finite_outcome(check, value, minimum, strict):
    try:
        check(value, "x", minimum=minimum, strict=strict)
    except Exception as exc:  # the type and the message are compared, whatever they are
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("minimum", [0, -1, 0.5, 1])
def test_finite_accepts_and_words_every_value_as_the_real_check_did(minimum, strict):
    outcomes = [
        (value, finite_outcome(finite, value, minimum, strict)) for value in FINITE_VALUES
    ]
    assert outcomes == [
        (value, finite_outcome(finite_reference, value, minimum, strict)) for value in FINITE_VALUES
    ]
    # the table holds values on both sides of the check
    assert {outcome is None for _, outcome in outcomes} == {True, False}
