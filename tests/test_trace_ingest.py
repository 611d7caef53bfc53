"""prices.ingest_traces, which reads trace files as columns, against the
per-record reader kept in trace_oracle: random trace directories must give
bit-equal traces or the same exception, and the same warnings in the same
order. The canonical files and index CSV the CLI writes must be the bytes the
per-record path and the per-line json.dumps writer wrote.
"""

import csv
import io
import json
import logging
import math
import re
import shutil
import tempfile
import warnings
from collections import Counter
from contextlib import contextmanager
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spotindex import SynthMarketSpec, generate_market_suite, ingest_traces, write_trace_jsonl
from spotindex import catalog as catalog_mod
from spotindex import cli, prices
from spotindex.errors import ParseError
from spotindex.prices import trace_files

import trace_oracle
from conftest import HOSTILE, LONG, csv_text, json_text
from test_cli import CATALOG_CSV
from test_prices import make_catalog

CATALOG = make_catalog()
FIELDS = ("timestamp", "vm_id", "instance_type", "zone", "price")


def iso(seconds: int) -> str:
    return datetime.fromtimestamp(seconds, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# a few distinct instants, so timestamps repeat within and across files
STAMPS = st.integers(0, 12).map(lambda k: k * 60)
GOOD_TIMESTAMPS = st.one_of(
    STAMPS,
    STAMPS.map(float),
    STAMPS.map(str),
    STAMPS.map(lambda s: f"{s}.0"),
    STAMPS.map(iso),
    STAMPS.map(lambda s: iso(s + 3600)[:-1] + "+01:00"),
    STAMPS.map(lambda s: iso(s)[:-1]),
    st.sampled_from(["0001-01-01T00:00:00Z", "١٢٠"]),
)
# ISO strings numpy or datetime would take but the other rejects, or that
# only look like the strict form numpy parses in bulk
NEAR_ISO = st.sampled_from(
    [
        "0000-01-01T00:00:00Z",
        "2017-02-30T00:00:00Z",
        "2017-01-01T24:00:00Z",
        "2016-12-31T23:59:60Z",
        "١٩٧٠-01-01T00:01:00Z",
        "1970-01-01T00:00:00.5Z",
    ]
)
# numbers outside int64 seconds: ints among ints overflow the bulk path
HUGE = st.sampled_from([2**63, -(2**63) - 1, 10**20, 1e300, float("inf"), float("nan")])
BAD_TIMESTAMPS = st.one_of(NEAR_ISO, HUGE, st.sampled_from([30.5, True, "noon", None]))
# a file's timestamps: epoch ints, strict ISO as provider feeds give, mixed,
# strict ISO with near-ISO strings among them, or epoch ints with numbers
# outside int64 among them
TIMESTAMP_STYLES = st.sampled_from(
    [
        STAMPS,
        STAMPS.map(iso),
        GOOD_TIMESTAMPS,
        st.one_of(STAMPS.map(iso), NEAR_ISO),
        st.one_of(STAMPS, STAMPS, STAMPS, HUGE),
    ]
)
GOOD_PRICES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, 3, "1.5"]),
    st.floats(0, 100, allow_nan=False),
)
# True is no price: not in JSON, where float() would read it as 1.0, and
# not as the text of a CSV cell
BAD_PRICES = st.sampled_from([-1.0, float("inf"), float("nan"), "cheap", "-inf", None, True])
KNOWN = st.sampled_from(
    [
        {"vm_id": "vm-a"},
        {"vm_id": "vm-b"},
        {"instance_type": "m4.large", "zone": "z1"},
        {"vm_id": "", "instance_type": "m4.large", "zone": "z2"},
    ]
)
UNKNOWN = st.sampled_from([{"vm_id": "ghost"}, {"instance_type": "m4.large", "zone": "z3"}])
# mostly what write_trace_jsonl writes: a vm id alone
VM_IDS = st.sampled_from([{"vm_id": "vm-a"}, {"vm_id": "vm-b"}, {"vm_id": "ghost"}])
CANONICAL_VMS = st.one_of(VM_IDS, VM_IDS, VM_IDS, KNOWN)
NO_IDENTITY = st.sampled_from([{"instance_type": "m4.large"}, {"vm_id": ""}, {}])
# lines that are not one JSON object each; in a CSV file, a row too short
BAD_JSON_LINES = st.sampled_from(
    ['{"timestamp": 60', "{not json", "[1, 2]", '"vm-a"', "42", '{"price": 1.0} 7', "{}{}"]
)
BAD_CSV_LINES = st.sampled_from(["60,vm-a", "60"])


@st.composite
def records(draw, odds, stamps, vms):
    """A record with a timestamp drawn from `stamps` and a VM from `vms`,
    whose every value is bad or absent with probability 1/odds, never when
    odds is None."""

    def mostly(good, odd):
        return draw(odd if odds and draw(st.integers(1, odds)) == 1 else good)

    record = {"timestamp": mostly(stamps, BAD_TIMESTAMPS)}
    record.update(mostly(vms, NO_IDENTITY))
    record["price"] = mostly(GOOD_PRICES, BAD_PRICES)
    if odds and draw(st.integers(1, 2 * odds)) == 1:
        del record[draw(st.sampled_from(["timestamp", "price"]))]
    return record


def csv_line(record) -> str:
    out = io.StringIO()
    csv.writer(out).writerow([record.get(field, "") for field in FIELDS])
    return out.getvalue().rstrip("\r\n")


# with sorted keys, a record of a float price, an int timestamp and a vm id
# with no escape is the line write_trace_jsonl writes
ENCODERS = {"csv": csv_line, "jsonl": json.dumps, "canonical": partial(json.dumps, sort_keys=True)}


@st.composite
def trace_files_text(draw):
    """1 to 3 (file name, text) pairs, CSV and JSON lines mixed, with blank
    lines, and sometimes one bad line at a random place. A canonical file
    holds JSON lines in write_trace_jsonl's form where its records allow."""
    files = []
    for n in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(ENCODERS)))
        encode = ENCODERS[kind]
        odds = draw(st.sampled_from([None, None, 60, 15]))
        if kind == "canonical":
            stamps, vms = STAMPS, CANONICAL_VMS
        else:
            stamps = draw(TIMESTAMP_STYLES)
            vms = draw(st.sampled_from([KNOWN, st.one_of(KNOWN, KNOWN, KNOWN, UNKNOWN)]))
        lines = [encode(r) for r in draw(st.lists(records(odds, stamps, vms), max_size=12))]
        for _ in range(draw(st.integers(0, 2))):
            # a row of spaces is a record in a CSV file, and a blank line in JSON lines
            blank = draw(st.sampled_from([""] if kind == "csv" else ["", "  "]))
            lines.insert(draw(st.integers(0, len(lines))), blank)
        if odds and draw(st.integers(0, 3)) == 0:
            bad = draw(BAD_CSV_LINES if kind == "csv" else BAD_JSON_LINES)
            lines.insert(draw(st.integers(0, len(lines))), bad)
        if kind == "csv":
            lines.insert(0, ",".join(FIELDS))
        suffix = "csv" if kind == "csv" else "jsonl"
        files.append((f"{n}.{suffix}", "".join(line + "\n" for line in lines)))
    return files


@contextmanager
def patched(owner, attr, value):
    saved = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, saved)


@contextmanager
def warnings_logged():
    """The messages of the warnings spotindex.prices logs, in order."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("spotindex.prices")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def outcome(ingest, paths, on_unknown):
    with warnings_logged() as messages:
        try:
            traces = ingest(paths, CATALOG, on_unknown)
        except Exception as exc:  # either path's exception is compared, whatever it is
            result = ("raised", type(exc), str(exc))
        else:
            result = [
                (vm, t.timestamps.dtype, t.timestamps.tobytes(), t.prices.dtype, t.prices.tobytes())
                for vm, t in traces.items()
            ]
    return result, messages


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(trace_files_text(), st.sampled_from(["warn", "error"]), st.sampled_from([1, 4, 1024]))
def test_columnar_ingest_matches_per_record_ingest(files, on_unknown, block):
    # small blocks put block boundaries inside the files
    with tempfile.TemporaryDirectory() as tmp, patched(catalog_mod, "_BLOCK", block):
        paths = []
        for name, text in files:
            path = Path(tmp) / name
            path.write_text(text)
            paths.append(path)
        assert outcome(ingest_traces, paths, on_unknown) == outcome(
            trace_oracle.ingest_files, paths, on_unknown
        )


def test_ingest_locates_an_int_too_long_to_read(tmp_path):
    # json's int() refused it with a bare ValueError, with no file or line
    path = tmp_path / "raw.jsonl"
    path.write_text(
        '{"timestamp": 0, "vm_id": "m4.large", "price": 4.5}\n'
        f'{{"timestamp": {"9" * 5001}, "vm_id": "m4.large", "price": 4.5}}\n'
    )
    for ingest in (ingest_traces, trace_oracle.ingest_files):
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line 2: invalid JSON: "):
            ingest([path], CATALOG, "warn")


def test_unknown_vm_in_an_earlier_file_stops_before_later_files(tmp_path):
    first = tmp_path / "a.jsonl"
    first.write_text('{"timestamp": 0, "vm_id": "ghost", "price": 1.0}\n')
    missing = tmp_path / "b.jsonl"
    for ingest in (ingest_traces, trace_oracle.ingest_files):
        with pytest.raises(ParseError, match="unknown vm 'ghost'"):
            ingest([first, missing], CATALOG, "error")


# the CLI's canonical files, manifest and index CSV


def write_week(raw: Path):
    """A week of two markets: one as a provider CSV with ISO timestamps and
    instance type + zone, one as JSON lines with epoch seconds."""
    week = 7 * 86400
    suite = generate_market_suite(
        [
            SynthMarketSpec("m4.large", mean=4.5, stddev=0.5, duration=week, change_period=3600),
            SynthMarketSpec("r4.xlarge", mean=6.5, stddev=1.1, duration=week, change_period=3600),
        ],
        seed=3,
        start=1483228800,
    )
    with open(raw / "m4.large.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "instance_type", "zone", "price"])
        trace = suite["m4.large"]
        for ts, price in zip(trace.timestamps.tolist(), trace.prices.tolist()):
            writer.writerow([iso(ts), "m4.large", "us-east-1a", repr(price)])
    write_trace_jsonl(suite["r4.xlarge"], raw / "r4.xlarge.jsonl")


def ingest_and_index(workspace: Path) -> dict:
    out, index = workspace / "canonical", workspace / "index.csv"
    if out.exists():
        shutil.rmtree(out)
    catalog = str(workspace / "catalog.csv")
    argv = ["ingest", "--in", str(workspace / "raw"), "--catalog", catalog, "--out", str(out)]
    assert cli.main(argv + ["--unknown", "error"]) == 0
    start = 1483228800
    argv = ["index", "--traces", str(out), "--catalog", catalog, "--start", str(start)]
    argv += ["--end", str(start + 7 * 86400), "--period", "300", "--out", str(index)]
    assert cli.main(argv) == 0
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    files["index.csv"] = index.read_bytes()
    return files


def test_cli_outputs_match_the_per_record_path(tmp_path, monkeypatch):
    (tmp_path / "raw").mkdir()
    (tmp_path / "catalog.csv").write_text(CATALOG_CSV)
    write_week(tmp_path / "raw")
    columnar = ingest_and_index(tmp_path)
    monkeypatch.setattr(cli, "ingest_traces", trace_oracle.ingest_files)
    monkeypatch.setattr(
        cli,
        "load_trace_dir",
        lambda directory, catalog, on_unknown="warn": trace_oracle.ingest_files(
            trace_files(directory), catalog, on_unknown
        ),
    )
    monkeypatch.setattr(cli, "write_trace_jsonl", trace_oracle.write_trace_jsonl)
    assert ingest_and_index(tmp_path) == columnar
    assert sorted(columnar) == ["index.csv", "m4.large.jsonl", "manifest.json", "r4.xlarge.jsonl"]


# One hostile value at one key of a valid trace file, through `spotindex
# ingest`: the CLI must exit 1 naming the file, the record's line and the
# key, or exit 0 with the value read as what it means.

IDENTITY = ("vm_id", "instance_type", "zone")
VALID_RECORDS = [
    {"timestamp": 0, "vm_id": "m4.large", "price": 4.5},
    {"timestamp": 60, "vm_id": "m4.large", "price": 5.0},
    {"timestamp": 0, "instance_type": "c4.2xlarge", "zone": "us-east-1a", "price": 6.5},
    {"timestamp": 120, "vm_id": "r4.xlarge", "price": 7.0},
]


def number(value):
    """value as the float or int a trace field reads it as, or None: a JSON
    number or a numeric string, and a CSV cell's numeric text."""
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
        try:
            return float(value)
        except ValueError:
            pass
    return None


def meaning(key: str, value, suffix: str):
    """What value means at key of a trace record, as the plain value that
    says it; None where it means nothing there."""
    if suffix == "csv":
        value = csv_text(value) or None
    elif value is LONG:
        return None  # not JSON
    if key in IDENTITY:
        return str(value) if value else None
    read = number(value)
    if read is None:
        return None
    if isinstance(read, bool):
        return None  # a JSON true or false is neither a timestamp nor a price
    if key == "timestamp":
        whole = not isinstance(read, float) or (math.isfinite(read) and read == int(read))
        return int(read) if whole and -(2**63) <= read < 2**63 else None
    price = float(read) if abs(read) < 2**1024 else math.inf
    return price if math.isfinite(price) and price >= 0 else None


def trace_file_text(records, suffix: str, at, value) -> str:
    """records as a JSON-lines or CSV file, with value at key path at."""
    i, key = at
    if suffix == "jsonl":
        lines = [json.dumps(r) for r in records]
        marker = json.dumps({**records[i], key: "\0"})
        lines[i] = marker.replace(json.dumps("\0"), json_text(value))
        return "".join(line + "\n" for line in lines)
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(FIELDS)
    for n, record in enumerate(records):
        row = {**record, key: value} if n == i else record
        writer.writerow([csv_text(row.get(field)) for field in FIELDS])
    return fh.getvalue()


def ingest_outcome(tmp: Path, text: str, suffix: str, out: str):
    """spotindex ingest of one raw file holding text: its exit code, the
    errors it logged, and the trace files it wrote."""
    raw = tmp / f"raw.{suffix}"
    raw.write_text(text)
    messages = []
    handler = logging.Handler(logging.ERROR)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("spotindex.cli")
    logger.addHandler(handler)
    try:
        code = cli.main(["ingest", "--in", str(raw), "--catalog", str(tmp / "catalog.csv"), "--out", str(tmp / out)])
    finally:
        logger.removeHandler(handler)
    written = {p.name: p.read_bytes() for p in sorted((tmp / out).glob("*.jsonl"))}
    return code, messages, written, raw


def check_hostile_trace_value(suffix: str, at, value):
    i, key = at
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "catalog.csv").write_text(CATALOG_CSV)
        text = trace_file_text(VALID_RECORDS, suffix, at, value)
        code, messages, written, raw = ingest_outcome(tmp, text, suffix, "edited")
        meant = meaning(key, value, suffix)
        if meant is None:
            assert code == 1, written
            [message] = messages
            line = i + 1 if suffix == "jsonl" else i + 2
            assert message.startswith(f"{raw}: line {line}: "), message
            field = "vm_id" if key in IDENTITY else key
            if not (suffix == "jsonl" and value is LONG):
                assert message.startswith(f"{raw}: line {line}: field {field!r}: "), message
            else:
                assert message.startswith(f"{raw}: line {line}: invalid JSON: "), message
        else:
            assert (code, messages) == (0, [])
            plain = trace_file_text(VALID_RECORDS, suffix, at, meant)
            assert ingest_outcome(tmp, plain, suffix, "plain")[:3] == (0, [], written)


@st.composite
def hostile_trace_edits(draw):
    """A (record index, key) of VALID_RECORDS and a HOSTILE value."""
    i = draw(st.integers(0, len(VALID_RECORDS) - 1))
    return (i, draw(st.sampled_from(sorted(VALID_RECORDS[i])))), draw(st.sampled_from(HOSTILE))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(hostile_trace_edits())
def test_ingest_names_a_hostile_json_lines_value_or_reads_what_it_means(edit):
    check_hostile_trace_value("jsonl", *edit)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(hostile_trace_edits())
def test_ingest_names_a_hostile_csv_value_or_reads_what_it_means(edit):
    check_hostile_trace_value("csv", *edit)


@pytest.mark.parametrize("value", [True, False])
def test_ingest_rejects_a_bool_price(tmp_path, value):
    # a bool is no price, as it is no timestamp; float() reads a JSON true
    # as 1.0 without error, so the bulk price reader must look for it
    records = [dict(record) for record in VALID_RECORDS]
    records[1]["price"] = value
    text = "".join(json.dumps(record) + "\n" for record in records)
    (tmp_path / "catalog.csv").write_text(CATALOG_CSV)
    code, messages, written, raw = ingest_outcome(tmp_path, text, "jsonl", "out")
    expected = f"{raw}: line 2: field 'price': bad price {value}"
    assert (code, messages, written) == (1, [expected], {})
    for ingest in (ingest_traces, trace_oracle.ingest_files):
        with pytest.raises(ParseError, match=f"^{re.escape(expected)}$"):
            ingest([raw], CATALOG, "warn")


# Blocks that take each whole-column check of prices._parse_columns and
# ingest_traces, and then fail inside it, against the per-record reader: the
# same traces, exception text and warnings. A whole-column check that fails
# must hand its column's original values to the per-value checks.

STEPS = range(6)


def canonical_line(t, p, vm='"vm-a"') -> str:
    """A line in write_trace_jsonl's form, each value given as its JSON text."""
    return f'{{"price": {p}, "timestamp": {t}, "vm_id": {vm}}}'


def canonical_file(*edits) -> str:
    """Six canonical lines a minute apart, line i's value of field t
    (timestamp), p (price) or vm replaced by the JSON text of each of
    edits' (i, field, text)."""
    values = [{"t": 60 * i, "p": repr(1.0 + i / 4), "vm": '"vm-a"'} for i in STEPS]
    for i, field, text in edits:
        values[i][field] = text
    return "".join(canonical_line(**line) + "\n" for line in values)


def iso_csv(*edits) -> str:
    """Six CSV rows of strict ISO timestamps a minute apart, row i's
    timestamp replaced by the text of edits' (i, text) pairs."""
    stamps = [iso(60 * i) for i in STEPS]
    for i, text in edits:
        stamps[i] = text
    rows = [
        {"timestamp": stamp, "vm_id": "vm-a", "price": repr(1.0 + i / 4)}
        for i, stamp in enumerate(stamps)
    ]
    return ",".join(FIELDS) + "\n" + "".join(csv_line(row) + "\n" for row in rows)


# name: (the whole-column check a case aims at, the side of it that the
# case's block takes, file suffix, file text). A block "passes" the check,
# "fails" it on a value although its column holds one type (or its block
# one VM), or holds "another type" (or several VMs) and never takes it.
INTS, ISOS, FLOATS, VM_IDS, ONE_VM = (
    "int timestamps",
    "ISO timestamps",
    "float prices",
    "vm ids",
    "one VM",
)
WHOLE_COLUMN_CASES = {
    "int timestamps": (INTS, "passes", "jsonl", canonical_file()),
    # the largest int64 that is a float: _parse_timestamp, which the
    # per-record path runs, reads a larger int as no whole number
    "int timestamps at the int64 bounds": (
        INTS, "passes", "jsonl", canonical_file((0, "t", -(2**63)), (5, "t", 2**63 - 1024))
    ),
    "timestamp 2**63": (INTS, "fails", "jsonl", canonical_file((2, "t", 2**63))),
    "timestamp -(2**63) - 1": (INTS, "fails", "jsonl", canonical_file((5, "t", -(2**63) - 1))),
    "true among int timestamps": (INTS, "another type", "jsonl", canonical_file((3, "t", "true"))),
    "ISO timestamps": (ISOS, "passes", "csv", iso_csv()),
    "ISO Feb 30": (ISOS, "fails", "csv", iso_csv((2, "2017-02-30T00:00:00Z"))),
    "ISO value with an embedded newline": (
        ISOS, "fails", "csv", iso_csv((3, "2017-01-01T00:00:00Z\n2017-01-01T00:01:00Z"))
    ),
    "21-character ISO value": (ISOS, "fails", "csv", iso_csv((1, " " + iso(60)))),
    "epoch-second strings": (ISOS, "fails", "csv", iso_csv(*((i, str(60 * i)) for i in STEPS))),
    "float prices": (FLOATS, "passes", "jsonl", canonical_file()),
    "price 1e999 first": (FLOATS, "fails", "jsonl", canonical_file((0, "p", "1e999"))),
    "price 1e999 in the middle": (FLOATS, "fails", "jsonl", canonical_file((3, "p", "1e999"))),
    "price 1e999 last": (FLOATS, "fails", "jsonl", canonical_file((5, "p", "1e999"))),
    "true among float prices": (FLOATS, "another type", "jsonl", canonical_file((4, "p", "true"))),
    "int price among floats": (FLOATS, "another type", "jsonl", canonical_file((2, "p", "3"))),
    "vm ids": (VM_IDS, "passes", "jsonl", canonical_file()),
    "empty vm id": (VM_IDS, "fails", "jsonl", canonical_file((2, "vm", '""'))),
    "empty vm id last": (VM_IDS, "fails", "jsonl", canonical_file((5, "vm", '""'))),
    "empty vm id with instance type and zone": (
        VM_IDS,
        "fails",
        "jsonl",
        canonical_file().replace(
            canonical_line(120, "1.5"),
            '{"instance_type": "m4.large", "price": 1.5, "timestamp": 120, "vm_id": "", "zone": "z2"}',
        ),
    ),
    "one VM": (ONE_VM, "passes", "jsonl", canonical_file()),
    "one unknown VM": (
        ONE_VM, "fails", "jsonl", canonical_file(*((i, "vm", '"ghost"') for i in STEPS))
    ),
    "two VMs in one block": (
        ONE_VM, "another type", "jsonl", canonical_file((1, "vm", '"vm-b"'), (4, "vm", '"vm-b"'))
    ),
    "an unknown VM among known": (
        ONE_VM, "another type", "jsonl", canonical_file((5, "vm", '"ghost"'))
    ),
}


def qualifies(columns) -> set:
    """The whole-column checks a block's columns qualify for, by the one
    type each column's values share, and by one vm id for the block."""
    kinds = {field: set(map(type, values)) for field, values in columns.items()}
    checks = set()
    if kinds["timestamp"] == {int}:
        checks.add(INTS)
    if kinds["timestamp"] == {str}:
        checks.add(ISOS)
    if kinds["price"] == {float}:
        checks.add(FLOATS)
    if kinds["vm_id"] == {str}:
        checks.add(VM_IDS)
        if len(set(columns["vm_id"])) == 1:
            checks.add(ONE_VM)
    return checks


def case_files(tmp: Path, name: str) -> list[Path]:
    *_, suffix, text = WHOLE_COLUMN_CASES[name]
    path = tmp / f"case.{suffix}"
    path.write_text(text)
    return [path]


@pytest.mark.parametrize("block", [1, 4, 1024])
@pytest.mark.parametrize("on_unknown", ["warn", "error"])
@pytest.mark.parametrize("name", sorted(WHOLE_COLUMN_CASES))
def test_a_whole_column_check_and_its_fallback_match_the_per_record_path(
    tmp_path, name, on_unknown, block
):
    paths = case_files(tmp_path, name)
    # numpy warns about a timezone it is given; the column check gives it none
    with patched(catalog_mod, "_BLOCK", block), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = outcome(ingest_traces, paths, on_unknown)
    assert [str(w.message) for w in caught] == []
    assert got == outcome(trace_oracle.ingest_files, paths, on_unknown)


def test_each_whole_column_check_is_passed_and_failed(tmp_path):
    # every case's file is one block at the default block size
    taken = {}
    for name, (check, side, _, _) in WHOLE_COLUMN_CASES.items():
        paths = case_files(tmp_path, name)
        [(_, _, columns, _)] = catalog_mod.record_blocks(paths, prices._TRACE_FIELDS)
        assert (check in qualifies(columns)) == (side != "another type"), name
        taken.setdefault(check, Counter())[side] += 1
    assert {check: dict(sides) for check, sides in taken.items()} == {
        INTS: {"passes": 2, "fails": 2, "another type": 1},
        ISOS: {"passes": 1, "fails": 4},
        FLOATS: {"passes": 1, "fails": 3, "another type": 2},
        VM_IDS: {"passes": 1, "fails": 3},
        ONE_VM: {"passes": 1, "fails": 1, "another type": 2},
    }
