import math
import random

import pytest

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
    index_at,
    index_sample,
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
    assert index_at(traces, catalog, ["a", "b"], 0) == 2.0


def test_index_permutation_invariant():
    catalog = Catalog([spec(f"v{i}", 2.0 + i, 8.0, 50.0) for i in range(5)])
    traces = {f"v{i}": flat(f"v{i}", 3.0 + i) for i in range(5)}
    ids = [f"v{i}" for i in range(5)]
    base = index_at(traces, catalog, ids, 0)
    rng = random.Random(4)
    for _ in range(10):
        shuffled = ids[:]
        rng.shuffle(shuffled)
        assert index_at(traces, catalog, shuffled, 0) == pytest.approx(base, rel=1e-15)


def test_index_excludes_capped_members():
    catalog = Catalog([spec("a", 1.0, 1.0, 1.0), spec("b", 1.0, 1.0, 1.0)])
    traces = {"a": flat("a", 2.0), "b": flat("b", 10.0)}  # b sits on 10x cap
    value, low, high, n = index_sample(traces, catalog, ["a", "b"], 0)
    assert value == 2.0
    assert n == 1
    assert low == 2.0 and high == 2.0


def test_index_all_capped_is_gap():
    catalog = Catalog([spec("a", 1.0, 1.0, 1.0)])
    traces = {"a": flat("a", 10.0)}
    with pytest.raises(GapError):
        index_at(traces, catalog, ["a"], 0)


def test_index_missing_member():
    catalog = Catalog([spec("a", 1.0, 1.0, 1.0), spec("b", 1.0, 1.0, 1.0)])
    traces = {"a": flat("a", 2.0)}
    with pytest.raises(GapError):
        index_at(traces, catalog, ["a", "b"], 0)


def test_index_duplicate_member_rejected():
    catalog = Catalog([spec("a", 1.0, 1.0, 1.0)])
    traces = {"a": flat("a", 2.0)}
    with pytest.raises(ValueError):
        index_at(traces, catalog, ["a", "a"], 0)


def test_index_bounds_within_member_range():
    rng = random.Random(9)
    catalog = Catalog([spec(f"v{i}", rng.uniform(1, 8), rng.uniform(1, 32), 500.0) for i in range(6)])
    ids = [f"v{i}" for i in range(6)]
    for _ in range(50):
        traces = {i: flat(i, rng.uniform(0.5, 20.0)) for i in ids}
        value, low, high, n = index_sample(traces, catalog, ids, 0)
        assert n == 6
        assert low <= value <= high
        normalized = [traces[i].price_at(0) / catalog[i].capacity_scale for i in ids]
        assert low == min(normalized) and high == max(normalized)


def test_index_series_grid_and_gaps():
    catalog = Catalog([spec("a", 1.0, 1.0, 1.0)])
    # trace starts at 300: the first grid sample is a gap, not an error
    traces = {"a": PriceTrace("a", [PricePoint(300, 2.0)])}
    series = index_series(traces, catalog, ["a"], 0, 900, 300)
    assert series.gaps == [0]
    assert [s.timestamp for s in series.samples] == [300, 600]
    assert series.value_at(300) == 2.0
    assert series.mean() == 2.0
    with pytest.raises(CoverageError):
        series.value_at(450)


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
            assert curve.value_at(t) == pytest.approx(
                index_at(traces, catalog, ids, t), rel=1e-12
            )


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
                index_sample(traces, catalog, ids, 0)
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
                    index_sample(traces, catalog, members, t)
                with pytest.raises((GapError, OutOfRangeError)):
                    curve.value_at(t)
                continue
            mean, low, high, n = expected
            got = index_sample(traces, catalog, members, t)
            assert got[0] == pytest.approx(mean, rel=1e-12)
            assert got[1:3] == pytest.approx((low, high), rel=1e-12)
            assert got[3] == n
            assert curve.value_at(t) == pytest.approx(mean, rel=1e-12)
        series = index_series(traces, catalog, members, 0, 2000, 97)
        oracle = {t: brute_force_sample(points, catalog, members, t) for t in range(0, 2000, 97)}
        assert series.gaps == [t for t, sample in oracle.items() if sample is None]
        for sample in series.samples:
            mean, low, high, n = oracle[sample.timestamp]
            assert sample.value == pytest.approx(mean, rel=1e-12)
            assert (sample.low, sample.high) == pytest.approx((low, high), rel=1e-12)
            assert sample.n_effective == n
