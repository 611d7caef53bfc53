import json
import logging
import random

import numpy as np
import pytest

from spotindex import (
    Catalog,
    OutOfRangeError,
    ParseError,
    PricePoint,
    PriceTrace,
    VmSpec,
    ingest_traces,
    is_capped,
    load_trace_dir,
    write_trace_jsonl,
)
from spotindex.prices import read_trace_records


def make_catalog():
    return Catalog(
        [
            VmSpec(
                id="vm-a",
                instance_type="m4.large",
                zone="z1",
                region="r1",
                family="general",
                cpu_capacity=2.0,
                mem_capacity=8.0,
                on_demand_price=10.0,
            ),
            VmSpec(
                id="vm-b",
                instance_type="m4.large",
                zone="z2",
                region="r1",
                family="general",
                cpu_capacity=2.0,
                mem_capacity=8.0,
                on_demand_price=10.0,
            ),
        ]
    )


def test_price_at_right_continuous():
    trace = PriceTrace("x", [PricePoint(0, 1.0), PricePoint(60, 2.0)])
    assert trace.price_at(0) == 1.0
    assert trace.price_at(59) == 1.0
    assert trace.price_at(60) == 2.0
    assert trace.price_at(10_000) == 2.0


def test_price_before_first_raises():
    trace = PriceTrace("x", [PricePoint(100, 1.0)])
    with pytest.raises(OutOfRangeError):
        trace.price_at(99)


def test_values_at_matches_price_at():
    rng = random.Random(3)
    points = [PricePoint(t * 60, rng.uniform(1, 9)) for t in range(50)]
    trace = PriceTrace("x", points)
    grid = [rng.randrange(0, 50 * 60) for _ in range(300)]
    got = trace.values_at(grid)
    for t, v in zip(grid, got):
        assert v == trace.price_at(t)


def test_segments_cover_and_split():
    trace = PriceTrace("x", [PricePoint(0, 1.0), PricePoint(60, 2.0), PricePoint(120, 3.0)])
    segs = list(trace.segments(30, 180))
    assert segs == [(30, 60, 1.0), (60, 120, 2.0), (120, 180, 3.0)]
    assert list(trace.segments(50, 50)) == []
    # beyond the last point the final price persists
    assert list(trace.segments(200, 260)) == [(200, 260, 3.0)]


def test_segments_duration_weighted_sum():
    rng = random.Random(5)
    for _ in range(20):
        points = [PricePoint(t * 30, rng.uniform(1, 9)) for t in range(40)]
        trace = PriceTrace("x", points)
        t0 = rng.randrange(0, 600)
        t1 = t0 + rng.randrange(1, 600)
        total = sum((b - a) * p for a, b, p in trace.segments(t0, t1))
        brute = sum(trace.price_at(t) for t in range(t0, t1))
        assert abs(total - brute) < 1e-9 * max(1.0, abs(brute))


def test_is_capped_boundary():
    spec = VmSpec(
        id="s",
        instance_type="t",
        zone="z",
        region="r",
        family="general",
        cpu_capacity=1.0,
        mem_capacity=1.0,
        on_demand_price=0.1,
    )
    assert is_capped(1.0, spec)
    assert is_capped(1.0 - 1e-10, spec)
    assert not is_capped(1.0 - 1e-8, spec)
    assert not is_capped(0.9, spec)


def test_ingest_csv_and_jsonl_round_trip(tmp_path):
    csv_path = tmp_path / "raw.csv"
    csv_path.write_text(
        "timestamp,vm_id,price\n"
        "0,vm-a,1.5\n"
        "60,vm-a,2.5\n"
        "1970-01-01T00:02:00Z,vm-a,3.5\n"
    )
    records = list(read_trace_records(csv_path))
    assert [r["timestamp"] for r in records] == [0, 60, 120]
    traces = ingest_traces(records, make_catalog())
    assert list(traces) == ["vm-a"]
    out = tmp_path / "vm-a.jsonl"
    write_trace_jsonl(traces["vm-a"], out)
    again = ingest_traces(read_trace_records(out), make_catalog())
    assert np.array_equal(again["vm-a"].timestamps, traces["vm-a"].timestamps)
    assert np.array_equal(again["vm-a"].prices, traces["vm-a"].prices)


def test_ingest_resolves_instance_zone(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text(
        '{"timestamp": 0, "instance_type": "m4.large", "zone": "z2", "price": 2.0}\n'
    )
    traces = ingest_traces(read_trace_records(path), make_catalog())
    assert list(traces) == ["vm-b"]


def test_ingest_duplicate_timestamp_keeps_last(caplog):
    records = [
        {"timestamp": 0, "vm_id": "vm-a", "price": 1.0},
        {"timestamp": 0, "vm_id": "vm-a", "price": 2.0},
    ]
    with caplog.at_level(logging.WARNING):
        traces = ingest_traces(records, make_catalog())
    assert traces["vm-a"].price_at(0) == 2.0
    assert any("duplicate timestamp" in m for m in caplog.messages)


def test_ingest_collapses_unchanged_prices():
    records = [
        {"timestamp": 0, "vm_id": "vm-a", "price": 1.0},
        {"timestamp": 60, "vm_id": "vm-a", "price": 1.0},
        {"timestamp": 120, "vm_id": "vm-a", "price": 2.0},
    ]
    traces = ingest_traces(records, make_catalog())
    assert len(traces["vm-a"]) == 2
    assert traces["vm-a"].price_at(60) == 1.0


def test_ingest_unknown_vm_warn_vs_error(caplog):
    # an unknown VM named by id, and one named by instance type and zone:
    # the catalog has m4.large in z1 and z2, not in z3
    for unknown, ref in (
        ({"vm_id": "ghost"}, "ghost"),
        ({"instance_type": "m4.large", "zone": "z3"}, "m4.large@z3"),
    ):
        records = [
            {"timestamp": 0, "price": 1.0, "source": "raw.csv", "line": 2, **unknown},
            {"timestamp": 0, "vm_id": "vm-a", "price": 1.0},
        ]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            traces = ingest_traces(records, make_catalog(), on_unknown="warn")
        assert list(traces) == ["vm-a"]
        assert f"skipping record for unknown vm {ref}" in caplog.messages
        assert "ingest skipped 1 records for unknown vms" in caplog.messages
        with pytest.raises(ParseError, match=f"^raw.csv: line 2: unknown vm '{ref}'$"):
            ingest_traces(records, make_catalog(), on_unknown="error")
    with pytest.raises(ValueError):
        ingest_traces(records, make_catalog(), on_unknown="ignore")


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("timestamp,vm_id,price\n0,vm-a,1.0\nnoon,vm-a,1.0\n")
    with pytest.raises(ParseError) as err:
        list(read_trace_records(path))
    assert err.value.line == 3
    assert err.value.field == "timestamp"

    path2 = tmp_path / "raw.jsonl"
    path2.write_text('{"timestamp": 0, "vm_id": "vm-a", "price": -1}\n')
    with pytest.raises(ParseError) as err:
        list(read_trace_records(path2))
    assert err.value.line == 1
    assert err.value.field == "price"


def test_fractional_timestamp_rejected(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"timestamp": 0.5, "vm_id": "vm-a", "price": 1.0}\n')
    with pytest.raises(ParseError):
        list(read_trace_records(path))


@pytest.mark.parametrize(
    "record, field",
    [
        ('{"timestamp": true, "vm_id": "vm-a", "price": 1.0}', "timestamp"),
        ('{"timestamp": "2024-01-01T00:00:00.5Z", "vm_id": "vm-a", "price": 1.0}', "timestamp"),
        ('{"timestamp": 60, "vm_id": "vm-a", "price": "cheap"}', "price"),
        ('{"vm_id": "vm-a", "price": 1.0}', "timestamp"),
        ('{"timestamp": 60, "vm_id": "vm-a"}', "price"),
    ],
)
def test_bad_trace_record_is_located(tmp_path, record, field):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"timestamp": 0, "vm_id": "vm-a", "price": 1.0}\n' + record + "\n")
    with pytest.raises(ParseError) as err:
        list(read_trace_records(path))
    assert (err.value.source, err.value.line, err.value.field) == (path, 2, field)


def test_record_needs_identity(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"timestamp": 0, "price": 1.0}\n')
    with pytest.raises(ParseError) as err:
        list(read_trace_records(path))
    assert err.value.field == "vm_id"


def test_load_trace_dir(tmp_path):
    (tmp_path / "a.jsonl").write_text(
        '{"timestamp": 0, "vm_id": "vm-a", "price": 1.0}\n'
    )
    (tmp_path / "b.csv").write_text("timestamp,vm_id,price\n0,vm-b,2.0\n")
    (tmp_path / "notes.txt").write_text("ignored\n")
    traces = load_trace_dir(tmp_path, make_catalog())
    assert sorted(traces) == ["vm-a", "vm-b"]


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        PriceTrace("x", [])
