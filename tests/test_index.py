import dataclasses
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotindex import (
    POLICIES,
    Catalog,
    CoverageError,
    GapError,
    IndexCurve,
    InvariantError,
    JobSpec,
    OutOfRangeError,
    Phase,
    PricePoint,
    PriceTrace,
    RunParams,
    VmSpec,
    compare_indices,
    denormalize,
    index_series,
    normalize,
    on_demand_index,
)
from spotindex import index, simulator


def spec(vm_id, cpu, mem, od, family="general"):
    return VmSpec(
        id=vm_id,
        instance_type=vm_id,
        zone="z",
        region="r",
        family=family,
        cpu_capacity=cpu,
        mem_capacity=mem,
        on_demand_price=od,
    )


def flat(vm_id, price, start=0):
    return PriceTrace(vm_id, [PricePoint(start, price)])


def test_normalize_value():
    s = spec("a", 8.0, 32.0, 40.0)
    assert normalize(s, 8.5) == 8.5 / 16.0
    assert normalize(s, 8.5) == 0.53125
    assert denormalize(s, normalize(s, 8.5)) == 8.5


def test_normalize_scale_covariance():
    rng = random.Random(2)
    for _ in range(100):
        cpu = rng.uniform(1, 64)
        mem = rng.uniform(1, 256)
        price = rng.uniform(0.1, 50)
        k = rng.uniform(0.1, 10)
        s = spec("a", cpu, mem, 99.0)
        assert math.isclose(
            normalize(s, k * price), k * normalize(s, price), rel_tol=1e-12
        )


def test_index_two_members():
    catalog = Catalog([spec("a", 4.0, 4.0, 50.0), spec("b", 3.0, 3.0, 50.0)])
    traces = {"a": flat("a", 4.0), "b": flat("b", 9.0)}
    # normalized: 4/4 = 1, 9/3 = 3; equal-weighted mean = 2
    assert IndexCurve(traces, catalog, ["a", "b"]).value_at(0) == 2.0


def test_index_permutation_invariant():
    catalog = Catalog([spec(f"v{i}", 2.0 + i, 8.0, 50.0) for i in range(5)])
    traces = {f"v{i}": flat(f"v{i}", 3.0 + i) for i in range(5)}
    ids = [f"v{i}" for i in range(5)]
    base = IndexCurve(traces, catalog, ids).value_at(0)
    rng = random.Random(4)
    for _ in range(10):
        shuffled = ids[:]
        rng.shuffle(shuffled)
        assert IndexCurve(traces, catalog, shuffled).value_at(0) == pytest.approx(base, rel=1e-15)


def test_index_excludes_capped_members():
    catalog = Catalog([spec("a", 1.0, 1.0, 1.0), spec("b", 1.0, 1.0, 1.0)])
    traces = {"a": flat("a", 2.0), "b": flat("b", 10.0)}  # b sits on 10x cap
    sample = IndexCurve(traces, catalog, ["a", "b"]).sample_at(0)
    assert sample.value == 2.0
    assert sample.n_effective == 1
    assert sample.low == 2.0 and sample.high == 2.0


def test_index_all_capped_is_gap():
    catalog = Catalog([spec("a", 1.0, 1.0, 1.0)])
    traces = {"a": flat("a", 10.0)}
    with pytest.raises(GapError):
        IndexCurve(traces, catalog, ["a"]).value_at(0)


def test_index_missing_member():
    catalog = Catalog([spec("a", 1.0, 1.0, 1.0), spec("b", 1.0, 1.0, 1.0)])
    traces = {"a": flat("a", 2.0)}
    with pytest.raises(GapError):
        IndexCurve(traces, catalog, ["a", "b"])


def test_index_duplicate_member_rejected():
    catalog = Catalog([spec("a", 1.0, 1.0, 1.0)])
    traces = {"a": flat("a", 2.0)}
    with pytest.raises(ValueError):
        IndexCurve(traces, catalog, ["a", "a"])


def test_index_bounds_within_member_range():
    rng = random.Random(9)
    catalog = Catalog([spec(f"v{i}", rng.uniform(1, 8), rng.uniform(1, 32), 500.0) for i in range(6)])
    ids = [f"v{i}" for i in range(6)]
    for _ in range(50):
        traces = {i: flat(i, rng.uniform(0.5, 20.0)) for i in ids}
        sample = IndexCurve(traces, catalog, ids).sample_at(0)
        assert sample.n_effective == 6
        assert sample.low <= sample.value <= sample.high
        normalized = [traces[i].price_at(0) / catalog[i].capacity_scale for i in ids]
        assert sample.low == min(normalized) and sample.high == max(normalized)


def test_index_series_grid_and_gaps():
    catalog = Catalog([spec("a", 1.0, 1.0, 1.0)])
    # trace starts at 300: the first grid sample is a gap, not an error
    traces = {"a": PriceTrace("a", [PricePoint(300, 2.0)])}
    series = index_series(traces, catalog, ["a"], 0, 900, 300)
    assert series.gaps == [0]
    assert [s.timestamp for s in series.samples] == [300, 600]
    assert [s.value for s in series.samples] == [2.0, 2.0]
    assert series.mean() == 2.0
    with pytest.raises(ValueError, match="^end must be after start$"):
        index_series(traces, catalog, ["a"], 900, 900, 300)
    with pytest.raises(GapError, match="^index series is empty$"):
        index_series(traces, catalog, ["a"], 0, 300, 300).mean()
    with pytest.raises(ValueError, match="^sample grid must be strictly increasing$"):
        dataclasses.replace(series, samples=series.samples[::-1])


@pytest.mark.parametrize(
    "args, key",
    [((0.5, 900, 300), "start"), ((0, 900.5, 300), "end"), ((0, 600, 1.5), "period"), (("0", 900, 300), "start")],
)
def test_index_series_names_an_argument_that_is_not_whole_seconds(args, key):
    # each once ended in range()'s raw TypeError; a whole float means its int
    catalog = Catalog([spec("a", 1.0, 1.0, 1.0)])
    traces = {"a": PriceTrace("a", [PricePoint(0, 2.0), PricePoint(450, 3.0)])}
    value = dict(zip(("start", "end", "period"), args))[key]
    with pytest.raises(InvariantError, match=rf"^{key} must be int, got {re.escape(repr(value))}$"):
        index_series(traces, catalog, ["a"], *args)
    whole = index_series(traces, catalog, ["a"], 0.0, 900.0, 300.0)
    assert whole == index_series(traces, catalog, ["a"], 0, 900, 300)
    assert [s.timestamp for s in whole.samples] == [0, 300, 600]


def test_on_demand_index_value():
    catalog = Catalog(
        [
            spec("m4.large", 2.0, 8.0, 10.0),
            spec("m4.2xlarge", 8.0, 32.0, 40.0),
            spec("c4.2xlarge", 8.0, 16.0, 39.8),
            spec("r4.xlarge", 4.0, 30.5, 26.6),
        ]
    )
    ids = ["m4.large", "m4.2xlarge", "c4.2xlarge", "r4.xlarge"]
    expected = (
        10.0 / math.sqrt(16.0)
        + 40.0 / math.sqrt(256.0)
        + 39.8 / math.sqrt(128.0)
        + 26.6 / math.sqrt(122.0)
    ) / 4.0
    assert on_demand_index(catalog, ids) == pytest.approx(expected, rel=1e-15)


def test_compare_indices_signs_and_inversions():
    catalog = Catalog([spec("a", 1.0, 1.0, 9.0), spec("b", 1.0, 1.0, 9.0)])
    ta = {"a": PriceTrace("a", [PricePoint(0, 1.0), PricePoint(600, 5.0)])}
    tb = {"b": PriceTrace("b", [PricePoint(0, 3.0)])}
    sa = index_series(ta, catalog, ["a"], 0, 1200, 300)
    sb = index_series(tb, catalog, ["b"], 0, 1200, 300)
    report = compare_indices(sa, sb, on_demand_a=2.0, on_demand_b=4.0)
    assert report.signs == [-1, -1, 1, 1]
    assert report.on_demand_sign == -1
    assert report.inversions == [(600, 1200)]
    assert report.mean_a == pytest.approx((1 + 1 + 5 + 5) / 4)
    # an inversion that ends before the common grid does
    ta["a"] = PriceTrace("a", [PricePoint(0, 1.0), PricePoint(600, 5.0), PricePoint(900, 1.0)])
    sa = index_series(ta, catalog, ["a"], 0, 1200, 300)
    report = compare_indices(sa, sb, on_demand_a=2.0, on_demand_b=4.0)
    assert report.signs == [-1, -1, 1, -1]
    assert report.inversions == [(600, 900)]


def test_compare_indices_no_overlap():
    catalog = Catalog([spec("a", 1.0, 1.0, 9.0)])
    s1 = index_series({"a": flat("a", 1.0)}, catalog, ["a"], 0, 300, 300)
    s2 = index_series({"a": flat("a", 1.0)}, catalog, ["a"], 300, 600, 300)
    with pytest.raises(CoverageError):
        compare_indices(s1, s2)


def test_curve_matches_pointwise_index():
    rng = random.Random(14)
    catalog = Catalog([spec(f"v{i}", 2.0, 2.0 * (i + 1), 90.0) for i in range(4)])
    ids = [f"v{i}" for i in range(4)]
    for _ in range(20):
        traces = {
            i: PriceTrace(
                i, [PricePoint(t * 60, rng.uniform(0.5, 12.0)) for t in range(30)]
            )
            for i in ids
        }
        curve = IndexCurve(traces, catalog, ids)
        for _ in range(40):
            t = rng.randrange(0, 30 * 60)
            pointwise = [traces[i].price_at(t) / catalog[i].capacity_scale for i in ids]
            assert curve.value_at(t) == pytest.approx(math.fsum(pointwise) / 4, rel=1e-12)


def test_curve_integrate_additive_and_window_mean():
    catalog = Catalog([spec("a", 1.0, 1.0, 99.0)])
    traces = {"a": PriceTrace("a", [PricePoint(0, 2.0), PricePoint(100, 4.0)])}
    curve = IndexCurve(traces, catalog, ["a"])
    assert curve.integrate(0, 200) == pytest.approx(2.0 * 100 + 4.0 * 100)
    assert curve.integrate(0, 200) == pytest.approx(
        curve.integrate(0, 130) + curve.integrate(130, 200)
    )
    assert curve.window_mean(200, 200) == pytest.approx(3.0)
    # clipped at the curve start
    assert curve.window_mean(50, 500) == pytest.approx(2.0)
    with pytest.raises(OutOfRangeError):
        curve.value_at(-1)
    with pytest.raises(OutOfRangeError, match="^index curve starts at 0, asked for -1$"):
        curve.integrate(-1, 100)


def brute_force_sample(points, catalog, members, t):
    """(mean, low, high, count) of the live members' normalized prices at t,
    from the raw points; None when t is a gap (before a member's first point,
    or every member on its cap)."""
    live = []
    for vm in members:
        before = [p for p in points[vm] if p.timestamp <= t]
        if not before:
            return None
        price = max(before, key=lambda p: p.timestamp).price
        s = catalog[vm]
        cap = 10.0 * s.on_demand_price
        if abs(price - cap) > 1e-9 * cap:
            live.append(price / math.sqrt(s.cpu_capacity * s.mem_capacity))
    if not live:
        return None
    return math.fsum(live) / len(live), min(live), max(live), len(live)


def test_index_matches_brute_force_oracle():
    rng = random.Random(31)
    for _ in range(60):
        specs = [
            spec(f"v{i}", rng.uniform(1, 16), rng.uniform(1, 64), rng.uniform(0.5, 5.0))
            for i in range(rng.randrange(1, 6))
        ]
        catalog = Catalog(specs)
        points = {}
        for s in specs:
            if rng.random() < 0.15:
                continue  # no trace: a composition naming it raises
            start = rng.choice([0, 0, 120, 600])  # some traces start late
            points[s.id] = [
                PricePoint(
                    start + 60 * k,
                    10.0 * s.on_demand_price
                    if rng.random() < 0.25  # on the provider cap
                    else rng.uniform(0.1, 6.0 * s.on_demand_price),
                )
                for k in range(rng.randrange(1, 25))
            ]
        traces = {vm: PriceTrace(vm, pts) for vm, pts in points.items()}
        ids = [s.id for s in specs]
        rng.shuffle(ids)
        members = [vm for vm in ids if vm in points]
        if len(members) < len(ids):
            with pytest.raises(GapError, match="no trace for composition member"):
                IndexCurve(traces, catalog, ids)
            with pytest.raises(GapError, match="no trace for composition member"):
                index_series(traces, catalog, ids, 0, 600, 60)
        if not members:
            continue
        curve = IndexCurve(traces, catalog, members)
        instants = sorted(rng.sample(range(0, 2000), 25))
        for t in instants:
            expected = brute_force_sample(points, catalog, members, t)
            if expected is None:
                with pytest.raises((GapError, OutOfRangeError)):
                    curve.sample_at(t)
                with pytest.raises((GapError, OutOfRangeError)):
                    curve.value_at(t)
                continue
            mean, low, high, n = expected
            got = curve.sample_at(t)
            assert got.value == pytest.approx(mean, rel=1e-12)
            assert (got.low, got.high) == pytest.approx((low, high), rel=1e-12)
            assert got.n_effective == n
            assert curve.value_at(t) == pytest.approx(mean, rel=1e-12)
        series = index_series(traces, catalog, members, 0, 2000, 97)
        oracle = {t: brute_force_sample(points, catalog, members, t) for t in range(0, 2000, 97)}
        assert series.gaps == [t for t, sample in oracle.items() if sample is None]
        for sample in series.samples:
            mean, low, high, n = oracle[sample.timestamp]
            assert sample.value == pytest.approx(mean, rel=1e-12)
            assert (sample.low, sample.high) == pytest.approx((low, high), rel=1e-12)
            assert sample.n_effective == n


@st.composite
def capped_curves(draw):
    """An index of three members whose grids start apart, each capped alone
    at some steps and all capped over one span [c0, c1), and its traces and
    catalog; an evenly spaced grid of ticks from up to 300 s before the
    curve start, often into the span; a window; and an index reference."""
    specs = [spec("a", 2, 8, 1.0), spec("b", 4, 16, 2.5), spec("c", 8, 30, 4.0)]
    c0 = draw(st.integers(0, 2500))
    c1 = c0 + draw(st.integers(1, 600))
    traces = {}
    for s in specs:
        cap = 10.0 * s.on_demand_price
        start = draw(st.integers(0, 300))
        stamps = sorted({start, c0, c1, *draw(st.lists(st.integers(start, 3200), max_size=40))})
        points = []
        for t in stamps:
            # full mantissas, so a change of summation order shows
            price = draw(st.integers(100, 5000).map(lambda k: k / 1000.3))
            if c0 <= t < c1 or draw(st.integers(0, 5)) == 0:
                price = cap
            points.append(PricePoint(t, price))
        traces[s.id] = PriceTrace(s.id, points)
    catalog = Catalog(specs)
    start = IndexCurve(traces, catalog, [s.id for s in specs]).start
    first = draw(st.integers(start - 300, max(start, c1)))
    ticks = first + draw(st.integers(1, 97)) * np.arange(draw(st.integers(1, 60)))
    window = draw(st.integers(1, 1500))
    return traces, catalog, ticks, window, draw(st.sampled_from(("window", "instant")))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(capped_curves())
def test_a_block_reads_an_index_gap_as_nan_and_not_ok(drawn):
    # a market block's index_now and its lazy index_reference are value_at
    # and, under "window", window_mean at every tick from the curve start
    # on, bit for bit, and NaN exactly where the scalar method raises
    # GapError; the block's ok is False exactly where either method that
    # the reference mode reads raises, and before the curve start. The
    # curve's window_defined is where integrating the clipped window does
    # not raise
    traces, catalog, ticks, window, mode = drawn
    job = JobSpec(name="gaps", phases=(Phase(60, 1.0, 1.0),))
    params = RunParams(sigma_window=window, index_reference=mode)
    engine = simulator._Engine(
        job, POLICIES["static"](), traces, catalog, sorted(traces), params, None, None, None
    )
    curve = engine.curve
    block = engine._block(ticks)
    assert len(engine.candidates) == 3
    columns = zip(
        ticks.tolist(),
        block.ok.tolist(),
        block.index_now.tolist(),
        block.index_reference.tolist(),
        curve.window_defined(np.maximum(ticks, curve.start), window).tolist(),
    )
    for t, ok, value, reference, window_defined in columns:
        if t < curve.start:
            assert not ok
            continue
        try:
            curve.integrate(max(t - window, curve.start), t)
        except GapError:
            assert not window_defined
        else:
            assert window_defined
        defined = True
        scalars = [(value, curve.value_at)]
        if mode == "window":
            scalars.append((reference, lambda t: curve.window_mean(t, window)))
        else:
            assert reference.hex() == value.hex()
        for got, scalar in scalars:
            try:
                expected = scalar(t)
            except GapError:
                assert math.isnan(got)
                defined = False
            else:
                assert got.hex() == float(expected).hex()
        assert ok == defined


@st.composite
def member_stamps(draw):
    """One to four members' sorted distinct stamps, drawn from a small range
    so that members share stamps, each starting where it likes."""
    members = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(-50, 50))
        members.append(sorted({start, *draw(st.lists(st.integers(start, 120), max_size=30))}))
    return members


@settings(max_examples=200, deadline=None, derandomize=True)
@given(member_stamps())
def test_curve_merges_member_stamps_as_np_unique_does(members):
    ids = [f"v{i}" for i in range(len(members))]
    catalog = Catalog([spec(vm, 2.0, 8.0, 50.0) for vm in ids])
    traces = {vm: PriceTrace(vm, [PricePoint(t, 1.0 + t % 7) for t in stamps])
              for vm, stamps in zip(ids, members)}
    curve = IndexCurve(traces, catalog, ids)
    merged = np.unique(np.concatenate([np.array(s, dtype=np.int64) for s in members]))
    expected = merged[merged >= max(s[0] for s in members)]
    assert curve.timestamps.dtype == np.int64
    assert curve.timestamps.tolist() == expected.tolist()


def curve_bits(curve) -> tuple:
    return curve.start, *(
        values.tobytes()
        for values in (curve.timestamps, curve._counts, curve._gaps, curve.values, curve._low, curve._high)
    )


def shared_setup():
    """Three members with full-mantissa prices, so a change of summation
    order shows, one of them on its cap (10 x 1.0) at t=40."""
    catalog = Catalog([spec("a", 2.0, 8.0, 1.0), spec("b", 4.0, 16.0, 2.5), spec("c", 8.0, 30.0, 4.0)])
    traces = {
        "a": PriceTrace("a", [PricePoint(0, 1.7), PricePoint(40, 10.0), PricePoint(90, 0.0)]),
        "b": PriceTrace("b", [PricePoint(-10, 2.3), PricePoint(40, 3.1)]),
        "c": PriceTrace("c", [PricePoint(0, 5.9), PricePoint(70, 6.1)]),
    }
    return catalog, traces, ["a", "b", "c"]


def test_index_curve_reuses_the_curve_of_equal_inputs():
    catalog, traces, ids = shared_setup()
    curve = index.index_curve(traces, catalog, ids)
    assert index.index_curve(dict(traces), Catalog(list(catalog)), list(ids)) is curve
    assert curve_bits(curve) == curve_bits(IndexCurve(traces, catalog, ids))
    # equal-bit copies are other trace objects
    copies = {vm: PriceTrace.from_arrays(vm, t.timestamps.copy(), t.prices.copy())
              for vm, t in traces.items()}
    copied = index.index_curve(copies, catalog, ids)
    assert copied is not curve
    assert curve_bits(copied) == curve_bits(curve)


def edited(traces, vm, k, price):
    """traces with vm's trace replaced by a new one whose price k is price."""
    prices = traces[vm].prices.copy()
    prices[k] = price
    return {**traces, vm: PriceTrace.from_arrays(vm, traces[vm].timestamps, prices)}


def edit_price(catalog, traces, ids):
    return catalog, edited(traces, "c", 1, 6.2), ids


def unsign_a_zero_price(catalog, traces, ids):
    # -0.0 == 0.0, but the normalized low of its step keeps the sign
    return catalog, edited(traces, "a", 2, 0.0), ids


def move_the_cap(catalog, traces, ids):
    # a's price of 10.0 at t=40 sits on its cap at 1.0 on demand, not at 2.0
    specs = [dataclasses.replace(s, on_demand_price=2.0) if s.id == "a" else s for s in catalog]
    return Catalog(specs), traces, ids


def reorder(catalog, traces, ids):
    return catalog, traces, ids[::-1]


@pytest.mark.parametrize("change", [edit_price, unsign_a_zero_price, move_the_cap, reorder])
def test_index_curve_builds_anew_when_an_input_changes(change):
    catalog, traces, ids = shared_setup()
    traces = edited(traces, "a", 2, -0.0)
    before = index.index_curve(traces, catalog, ids)
    kept = curve_bits(before)
    catalog, traces, ids = change(catalog, traces, ids)
    after = index.index_curve(traces, catalog, ids)
    assert after is not before
    assert curve_bits(after) == curve_bits(IndexCurve(traces, catalog, ids)) != kept
    assert curve_bits(before) == kept


def test_index_curve_arrays_reject_writes():
    catalog, traces, ids = shared_setup()
    curve = index.index_curve(traces, catalog, ids)
    for values in (curve.timestamps, curve._counts, curve._gaps, curve.values, curve._low, curve._high):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = values[1]


@pytest.mark.parametrize(
    "catalog_ids, trace_ids, composition",
    [(["a"], ["a", "b"], ["a", "b"]), (["a", "b"], ["a"], ["a", "b"]),
     (["a"], ["a"], ["a", "a"]), (["a"], ["a"], [])],
)
def test_index_curve_raises_as_a_fresh_build_does(catalog_ids, trace_ids, composition):
    catalog = Catalog([spec(vm, 1.0, 1.0, 1.0) for vm in catalog_ids])
    traces = {vm: flat(vm, 2.0) for vm in trace_ids}
    with pytest.raises((GapError, ValueError)) as built:
        IndexCurve(traces, catalog, composition)
    with pytest.raises(built.type, match=f"^{re.escape(str(built.value))}$"):
        index.index_curve(traces, catalog, composition)
