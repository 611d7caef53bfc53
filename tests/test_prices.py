import json
import logging
import math
import random
import re

import numpy as np
import pytest

from spotindex import (
    Catalog,
    InvariantError,
    OutOfRangeError,
    ParseError,
    PricePoint,
    PriceTrace,
    SynthMarketSpec,
    VmSpec,
    generate_market_suite,
    ingest_traces,
    is_capped,
    load_trace_dir,
    write_trace_jsonl,
)


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
    with pytest.raises(OutOfRangeError, match="^trace 'x' starts at 100, asked for 99$"):
        trace.values_at([100, 99])
    with pytest.raises(OutOfRangeError, match="^trace 'x' starts at 100, asked for 99$"):
        trace.steps(99, 200)


@pytest.mark.parametrize(
    "point, message",
    [
        # a NaN price once ended every run in a bare AssertionError of the
        # market mask, a negative one billed a negative cost, inf warned
        (PricePoint(100, math.nan), "point 1 (t=100) price must be finite and >= 0, got nan"),
        (PricePoint(100, -1.0), "point 1 (t=100) price must be finite and >= 0, got -1.0"),
        (PricePoint(100, math.inf), "point 1 (t=100) price must be finite and >= 0, got inf"),
        (PricePoint(100, "3"), "point 1 (t=100) price must be finite and >= 0, got '3'"),
        (PricePoint(100, True), "point 1 (t=100) price must be finite and >= 0, got True"),
        # a fraction was truncated, a string parsed, 2**70 overflowed
        (PricePoint(1.5, 1.0), "point 1 timestamp must be whole seconds within int64, got 1.5"),
        (PricePoint("5", 1.0), "point 1 timestamp must be whole seconds within int64, got '5'"),
        (PricePoint(2**70, 1.0), f"point 1 timestamp must be whole seconds within int64, got {2**70}"),
        (PricePoint(2**63, 1.0), f"point 1 timestamp must be whole seconds within int64, got {2**63}"),
        (PricePoint(math.nan, 1.0), "point 1 timestamp must be whole seconds within int64, got nan"),
        (PricePoint(False, 1.0), "point 1 timestamp must be whole seconds within int64, got False"),
        # a price beyond the float range escaped as a raw OverflowError, and
        # a point that is not a PricePoint as a bare AttributeError
        pytest.param(
            PricePoint(100, 10**400), f"point 1 (t=100) price must be finite and >= 0, got {10**400}",
            id="price-beyond-the-float-range",
        ),
        pytest.param((100, 1.0), "point 1 must be a PricePoint, got (100, 1.0)", id="not-a-price-point"),
    ],
)
def test_a_bad_price_point_names_its_trace_point_and_field(point, message):
    with pytest.raises(InvariantError, match=f"^trace 'x' {re.escape(message)}$"):
        PriceTrace("x", [PricePoint(0, 1.0), point])


def test_numpy_and_whole_float_points_keep_their_bits():
    trace = PriceTrace(
        "x",
        [
            PricePoint(np.int64(60), np.float64(0.1)),
            PricePoint(0.0, 0),
            PricePoint(np.float64(-(2**63)), np.float32(2.5)),
            PricePoint(2**63 - 1, 1e300),
        ],
    )
    assert trace.timestamps.tolist() == [-(2**63), 0, 60, 2**63 - 1]
    assert trace.prices.tolist() == [2.5, 0.0, 0.1, 1e300]


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


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    return path


def test_ingest_csv_and_jsonl_round_trip(tmp_path):
    csv_path = tmp_path / "raw.csv"
    csv_path.write_text(
        "timestamp,vm_id,price\n"
        "0,vm-a,1.5\n"
        "60,vm-a,2.5\n"
        "1970-01-01T00:02:00Z,vm-a,3.5\n"
    )
    traces = ingest_traces([csv_path], make_catalog())
    assert list(traces) == ["vm-a"]
    assert traces["vm-a"].timestamps.tolist() == [0, 60, 120]
    out = tmp_path / "vm-a.jsonl"
    write_trace_jsonl(traces["vm-a"], out)
    again = ingest_traces([out], make_catalog())
    assert np.array_equal(again["vm-a"].timestamps, traces["vm-a"].timestamps)
    assert np.array_equal(again["vm-a"].prices, traces["vm-a"].prices)


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
def test_written_lines_are_json_dumps_of_each_point_across_write_blocks(tmp_path, n):
    # the writer formats and writes 1,024 lines at a time
    rng = np.random.default_rng(n)
    stamps = np.cumsum(rng.integers(1, 10**6, n)) - 2**40
    prices = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-30, 30, n)
    trace = PriceTrace.from_arrays('vm/\u00e4 "a"', stamps, prices)
    write_trace_jsonl(trace, tmp_path / "t.jsonl")
    points = [{"price": p, "timestamp": t, "vm_id": trace.vm_id} for t, p in zip(stamps.tolist(), prices.tolist())]
    expected = "".join(json.dumps(point, sort_keys=True) + "\n" for point in points)
    assert (tmp_path / "t.jsonl").read_bytes() == expected.encode()


def every_way_to_make_a_trace(tmp_path) -> list:
    path = write_jsonl(tmp_path / "raw.jsonl", [{"timestamp": 0, "vm_id": "vm-a", "price": 1.5}])
    return [
        PriceTrace("vm-a", [PricePoint(0, 1.5), PricePoint(60, 2.5)]),
        PriceTrace.from_arrays("vm-a", np.array([0, 60]), np.array([1.5, 2.5])),
        ingest_traces([path], make_catalog())["vm-a"],
        *generate_market_suite([SynthMarketSpec("vm-a", 2.0, 0.5)], warmup=600).values(),
    ]


def test_a_trace_rejects_writes_and_rebinding(tmp_path):
    # the index curve and the opening table are shared among the runs over
    # the same trace objects, so what a trace object holds may not change
    for trace in every_way_to_make_a_trace(tmp_path):
        for name in ("timestamps", "prices"):
            values = getattr(trace, name)
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 7
            with pytest.raises(AttributeError, match=f"^trace 'vm-a' is read-only: {name} is already set$"):
                setattr(trace, name, values.copy())
            with pytest.raises(AttributeError, match=f"^trace 'vm-a' is read-only: {name} cannot be deleted$"):
                delattr(trace, name)
            assert getattr(trace, name) is values


def test_ingest_resolves_instance_zone(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text(
        '{"timestamp": 0, "instance_type": "m4.large", "zone": "z2", "price": 2.0}\n'
    )
    traces = ingest_traces([path], make_catalog())
    assert list(traces) == ["vm-b"]


def test_ingest_duplicate_timestamp_keeps_last(tmp_path, caplog):
    path = write_jsonl(
        tmp_path / "raw.jsonl",
        [
            {"timestamp": 0, "vm_id": "vm-a", "price": 1.0},
            {"timestamp": 0, "vm_id": "vm-a", "price": 2.0},
        ],
    )
    with caplog.at_level(logging.WARNING):
        traces = ingest_traces([path], make_catalog())
    assert traces["vm-a"].price_at(0) == 2.0
    assert any("duplicate timestamp" in m for m in caplog.messages)


def test_ingest_collapses_unchanged_prices(tmp_path):
    path = write_jsonl(
        tmp_path / "raw.jsonl",
        [
            {"timestamp": 0, "vm_id": "vm-a", "price": 1.0},
            {"timestamp": 60, "vm_id": "vm-a", "price": 1.0},
            {"timestamp": 120, "vm_id": "vm-a", "price": 2.0},
        ],
    )
    traces = ingest_traces([path], make_catalog())
    assert len(traces["vm-a"]) == 2
    assert traces["vm-a"].price_at(60) == 1.0


def test_ingest_unknown_vm_warn_vs_error(tmp_path, caplog):
    # an unknown VM named by id, and one named by instance type and zone:
    # the catalog has m4.large in z1 and z2, not in z3
    path = tmp_path / "raw.csv"
    for unknown, ref in (("ghost,,", "ghost"), (",m4.large,z3", "m4.large@z3")):
        path.write_text(
            "timestamp,vm_id,instance_type,zone,price\n"
            f"0,{unknown},1.0\n"
            "0,vm-a,,,1.0\n"
        )
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            traces = ingest_traces([path], make_catalog(), on_unknown="warn")
        assert list(traces) == ["vm-a"]
        assert f"skipping record for unknown vm {ref}" in caplog.messages
        assert "ingest skipped 1 records for unknown vms" in caplog.messages
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: unknown vm '{ref}'$"):
            ingest_traces([path], make_catalog(), on_unknown="error")
    with pytest.raises(ValueError):
        ingest_traces([path], make_catalog(), on_unknown="ignore")


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("timestamp,vm_id,price\n0,vm-a,1.0\nnoon,vm-a,1.0\n")
    with pytest.raises(ParseError) as err:
        ingest_traces([path], make_catalog())
    assert err.value.line == 3
    assert err.value.field == "timestamp"

    path2 = tmp_path / "raw.jsonl"
    path2.write_text('{"timestamp": 0, "vm_id": "vm-a", "price": -1}\n')
    with pytest.raises(ParseError) as err:
        ingest_traces([path2], make_catalog())
    assert err.value.line == 1
    assert err.value.field == "price"


def test_fractional_timestamp_rejected(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"timestamp": 0.5, "vm_id": "vm-a", "price": 1.0}\n')
    with pytest.raises(ParseError):
        ingest_traces([path], make_catalog())


@pytest.mark.parametrize(
    "record, field",
    [
        ('{"timestamp": true, "vm_id": "vm-a", "price": 1.0}', "timestamp"),
        ('{"timestamp": "2024-01-01T00:00:00.5Z", "vm_id": "vm-a", "price": 1.0}', "timestamp"),
        ('{"timestamp": 60, "vm_id": "vm-a", "price": "cheap"}', "price"),
        ('{"vm_id": "vm-a", "price": 1.0}', "timestamp"),
        ('{"timestamp": 60, "vm_id": "vm-a"}', "price"),
        # timestamps outside int64 seconds, also for a VM the catalog lacks
        ('{"timestamp": 9223372036854775808, "vm_id": "vm-a", "price": 1.0}', "timestamp"),
        ('{"timestamp": -9223372036854775809, "vm_id": "ghost", "price": 1.0}', "timestamp"),
        ('{"timestamp": 1e300, "vm_id": "ghost", "price": 1.0}', "timestamp"),
        ('{"timestamp": Infinity, "vm_id": "vm-a", "price": 1.0}', "timestamp"),
        ('{"timestamp": NaN, "vm_id": "vm-a", "price": 1.0}', "timestamp"),
        pytest.param(
            '{"timestamp": 60, "vm_id": "vm-a", "price": 1%s}' % ("0" * 400),
            "price",
            id="price-int-too-large-for-a-float",
        ),
    ],
)
def test_bad_trace_record_is_located(tmp_path, record, field):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"timestamp": 0, "vm_id": "vm-a", "price": 1.0}\n' + record + "\n")
    with pytest.raises(ParseError) as err:
        ingest_traces([path], make_catalog())
    assert (err.value.source, err.value.line, err.value.field) == (path, 2, field)


def test_record_needs_identity(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"timestamp": 0, "price": 1.0}\n')
    with pytest.raises(ParseError) as err:
        ingest_traces([path], make_catalog())
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
