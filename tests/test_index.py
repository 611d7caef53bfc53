import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotindex import (
    Catalog,
    CoverageError,
    GapError,
    IndexCurve,
    OutOfRangeError,
    PricePoint,
    PriceTrace,
    VmSpec,
    compare_indices,
    denormalize,
    index_series,
    normalize,
    on_demand_index,
)


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
    at some steps and all capped over one span [c0, c1), with ticks from the
    curve start on, some of them in the span, and a window."""
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
    curve = IndexCurve(traces, Catalog(specs), [s.id for s in specs])
    ticks = draw(st.lists(st.integers(curve.start, 3500), min_size=1, max_size=60))
    ticks += [t for t in range(c0, c1, 37) if t >= curve.start]
    return curve, ticks, draw(st.integers(1, 1500))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(capped_curves())
def test_window_means_read_a_gap_as_nan(drawn):
    # window_means is value_at and window_mean at every tick, bit for bit,
    # and NaN exactly where the scalar method raises GapError
    curve, ticks, window = drawn
    values, means = curve.window_means(ticks, window)
    for t, value, mean in zip(ticks, values.tolist(), means.tolist()):
        for got, scalar in ((value, curve.value_at), (mean, lambda t: curve.window_mean(t, window))):
            try:
                expected = scalar(t)
            except GapError:
                assert math.isnan(got)
            else:
                assert got.hex() == float(expected).hex()
