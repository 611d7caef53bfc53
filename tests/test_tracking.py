import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spotindex import (
    Catalog,
    CoverageError,
    PricePoint,
    PriceTrace,
    TrackingLedger,
    VmSpec,
    aggregate_reports,
    gain,
    index_series,
    migration_loss,
    on_demand_index,
    should_migrate,
)
from spotindex.tracking import LedgerEvent


def spec(vm_id="a", cpu=8.0, mem=8.0, od=50.0):
    return VmSpec(
        id=vm_id,
        instance_type=vm_id,
        zone="z",
        region="r",
        family="general",
        cpu_capacity=cpu,
        mem_capacity=mem,
        on_demand_price=od,
    )


def series_for(prices_by_vm, catalog, ids, start, end, period):
    return index_series(prices_by_vm, catalog, ids, start, end, period)


def test_gain_frozen_value():
    # held VM normalized price 0.5 against an index pinned at 0.6:
    # 3 samples x 0.1 x scale 8 x 3600s / 3600 = 2.4
    held = spec("held", 8.0, 8.0)
    anchor = spec("anchor", 1.0, 1.0, 90.0)
    catalog = Catalog([held, anchor])
    traces = {
        "held": PriceTrace("held", [PricePoint(0, 4.0)]),
        "anchor": PriceTrace("anchor", [PricePoint(0, 0.6)]),
    }
    index = series_for(traces, catalog, ["anchor"], 0, 3 * 3600, 3600)
    value = gain(traces["held"], held, index)
    assert value == pytest.approx(2.4, rel=1e-12)


def test_gain_respects_start_end():
    held = spec("held", 4.0, 4.0)
    anchor = spec("anchor", 1.0, 1.0, 90.0)
    catalog = Catalog([held, anchor])
    traces = {
        "held": PriceTrace("held", [PricePoint(0, 2.0)]),
        "anchor": PriceTrace("anchor", [PricePoint(0, 1.0)]),
    }
    index = series_for(traces, catalog, ["anchor"], 0, 1200, 300)
    full = gain(traces["held"], held, index)
    first = gain(traces["held"], held, index, 0, 600)
    second = gain(traces["held"], held, index, 600, 1200)
    assert full == pytest.approx(first + second, rel=1e-12)
    per_sample = (1.0 - 0.5) * 4.0 * 300 / 3600.0
    assert first == pytest.approx(2 * per_sample, rel=1e-12)


def test_gain_missing_samples_listed():
    held = spec("held", 4.0, 4.0)
    anchor = spec("anchor", 1.0, 1.0, 90.0)
    catalog = Catalog([held, anchor])
    traces = {
        "held": PriceTrace("held", [PricePoint(600, 2.0)]),
        "anchor": PriceTrace("anchor", [PricePoint(0, 1.0)]),
    }
    index = series_for(traces, catalog, ["anchor"], 0, 1200, 300)
    with pytest.raises(CoverageError) as err:
        gain(traces["held"], held, index)
    assert "0" in str(err.value) and "300" in str(err.value)


def test_migration_loss_values():
    assert migration_loss(4.0, 6.0, 30.0) == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert migration_loss(4.0, 6.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        migration_loss(4.0, 6.0, -1.0)


def test_migration_loss_symmetry_and_linearity():
    rng = random.Random(8)
    for _ in range(200):
        a, b = rng.uniform(0, 20), rng.uniform(0, 20)
        t = rng.uniform(0, 600)
        assert migration_loss(a, b, t) == migration_loss(b, a, t)
        assert math.isclose(
            migration_loss(a, b, 2 * t), 2 * migration_loss(a, b, t), rel_tol=1e-12
        )


def test_should_migrate_strict():
    assert should_migrate(1.0, 0.5, 0.2)
    assert not should_migrate(0.9, 0.5, 0.2)  # 0.5 + 0.4 = 0.9, equality fails
    assert not should_migrate(0.89, 0.5, 0.2)


PRICES = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@given(index=PRICES, src=PRICES, dst=PRICES)
@example(index=5e-324, src=0.0, dst=0.0)
def test_should_migrate_never_passes_for_a_dear_source_or_destination(index, src, dst):
    # Eq. 5 as implemented: no move from a VM at or above the index, and
    # none to a VM at or above half of it. "Half" is tested as 2 * dst >=
    # index: doubling is exact in floats, while index / 2 underflows to 0.0
    # for the smallest subnormal index
    if src >= index or 2 * dst >= index:
        assert not should_migrate(index, src, dst)


def test_ledger_totals_and_round_trip():
    ledger = TrackingLedger()
    ledger.add_gain(0, 600, "a", 1.5, detail="hold")
    ledger.add_loss(600, 630, "a", 0.25, detail="stall")
    ledger.add_gain(630, 1200, "b", 0.75)
    assert ledger.total_gain == pytest.approx(2.25)
    assert ledger.total_loss == pytest.approx(0.25)
    assert ledger.net == pytest.approx(2.0)
    again = TrackingLedger.from_dicts(ledger.to_dicts())
    assert again.to_dicts() == ledger.to_dicts()
    assert again.net == ledger.net


def test_ledger_event_round_trip():
    event = LedgerEvent("loss", 5, 9, "vm", 0.125, "stall")
    assert LedgerEvent.from_dict(event.to_dict()) == event


def test_float_totals_fold_left_to_right():
    # the built-in sum() of ten 0.1s is 1.0 from Python 3.12 on
    ledger = TrackingLedger()
    for t in range(10):
        ledger.add_gain(t, t + 1, "a", 0.1)
        ledger.add_loss(t, t + 1, "a", 0.1)
    assert ledger.total_gain == ledger.total_loss == 0.9999999999999999
    assert TrackingLedger().total_gain == 0.0
    fields = ("total_cost", "availability", "migrations", "revocations", "net")
    row = {"policy": "p", **dict.fromkeys(fields, 0.1)}
    assert aggregate_reports([row] * 10)["total_cost"]["mean"] == 0.9999999999999999 / 10
    catalog = Catalog([spec(f"v{i}", 1.0, 1.0, 0.1) for i in range(10)])
    assert on_demand_index(catalog, [s.id for s in catalog]) == 0.9999999999999999 / 10
