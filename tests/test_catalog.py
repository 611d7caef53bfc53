import csv
import dataclasses
import io
import json
import math
import pickle
import random
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spotindex import (
    Catalog,
    ConflictError,
    InvariantError,
    ParseError,
    PricePoint,
    PriceTrace,
    ResourceRequirement,
    Scope,
    VmFamily,
    VmSpec,
    filter_candidates,
    load_catalog,
    write_trace_jsonl,
)
from spotindex import catalog as catalog_mod
from spotindex.catalog import _FIELDS, _record_to_spec, json_record

import trace_oracle


def make_spec(vm_id="vm-a", cpu=8.0, mem=32.0, od=40.0, **kw):
    fields = dict(
        id=vm_id,
        instance_type=kw.pop("instance_type", vm_id),
        zone=kw.pop("zone", "z1"),
        region=kw.pop("region", "r1"),
        family=kw.pop("family", "general"),
        cpu_capacity=cpu,
        mem_capacity=mem,
        on_demand_price=od,
    )
    fields.update(kw)
    return VmSpec(**fields)


def test_capacity_scale_value():
    assert make_spec(cpu=8.0, mem=32.0).capacity_scale == 16.0


def test_capacity_scale_random():
    rng = random.Random(7)
    for _ in range(200):
        cpu = rng.uniform(0.5, 128.0)
        mem = rng.uniform(0.5, 1024.0)
        spec = make_spec(cpu=cpu, mem=mem)
        assert math.isclose(spec.capacity_scale, math.sqrt(cpu * mem), rel_tol=1e-12)


def test_capacity_scale_is_computed_once_and_is_not_a_field():
    # the scale is computed on a spec's first read of it and kept, and a
    # spec that has read it compares, hashes, prints, pickles and converts
    # as one that has not
    spec, fresh = make_spec(cpu=8.0, mem=32.0), make_spec(cpu=8.0, mem=32.0)
    pickled = pickle.dumps(spec)
    with mock.patch.object(catalog_mod, "capacity_scale", wraps=catalog_mod.capacity_scale) as scale:
        assert spec.capacity_scale == spec.capacity_scale == 16.0
    assert scale.call_count == 1
    assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == repr(fresh)
    assert dataclasses.astuple(spec) == dataclasses.astuple(fresh)
    assert pickle.dumps(spec) == pickled
    assert pickle.loads(pickled) == spec and pickle.loads(pickled).capacity_scale == 16.0
    assert dataclasses.replace(spec, cpu_capacity=2.0).capacity_scale == 8.0


def test_spec_rejects_bad_numbers():
    with pytest.raises(InvariantError):
        make_spec(cpu=0.0)
    with pytest.raises(InvariantError):
        make_spec(mem=-1.0)
    with pytest.raises(InvariantError):
        make_spec(od=float("inf"))
    with pytest.raises(InvariantError):
        make_spec(vm_id="")


def test_family_coercion():
    assert make_spec(family="compute").family is VmFamily.COMPUTE
    with pytest.raises(ValueError):
        make_spec(family="quantum")


def test_requirement_satisfied_by():
    spec = make_spec(cpu=4.0, mem=16.0)
    assert ResourceRequirement(4.0, 16.0).satisfied_by(spec)
    assert ResourceRequirement(0.0, 0.0).satisfied_by(spec)
    assert not ResourceRequirement(4.1, 16.0).satisfied_by(spec)
    assert not ResourceRequirement(4.0, 16.5).satisfied_by(spec)
    with pytest.raises(InvariantError):
        ResourceRequirement(-1.0, 0.0)


def test_catalog_duplicate_id():
    with pytest.raises(ConflictError):
        Catalog([make_spec("a"), make_spec("a")])


def test_catalog_lookup_and_order():
    cat = Catalog([make_spec("b"), make_spec("a"), make_spec("c")])
    assert [s.id for s in cat] == ["a", "b", "c"]
    assert cat["b"].id == "b"
    assert "c" in cat and "d" not in cat
    assert cat.get("d") is None
    assert len(cat) == 3


def test_resolve_instance():
    cat = Catalog(
        [
            make_spec("a", instance_type="m4.large", zone="z1"),
            make_spec("b", instance_type="m4.large", zone="z2"),
        ]
    )
    assert cat.resolve_instance("m4.large", "z2").id == "b"
    assert cat.resolve_instance("m4.large", "z3") is None


def test_filter_candidates_sorted_and_scoped():
    cat = Catalog(
        [
            make_spec("small", cpu=2.0, mem=8.0),
            make_spec("big", cpu=8.0, mem=32.0, region="r2"),
            make_spec("mid", cpu=4.0, mem=16.0),
        ]
    )
    req = ResourceRequirement(4.0, 16.0)
    assert [s.id for s in filter_candidates(cat, req)] == ["big", "mid"]
    assert [s.id for s in filter_candidates(cat, req, Scope(region="r1"))] == ["mid"]
    assert filter_candidates(cat, req, Scope(zone="z2")) == []
    assert [s.id for s in filter_candidates(cat, req, None)] == ["big", "mid"]


def test_filter_monotone_in_requirement():
    rng = random.Random(11)
    specs = [
        make_spec(f"vm{i}", cpu=rng.uniform(1, 64), mem=rng.uniform(1, 256))
        for i in range(30)
    ]
    cat = Catalog(specs)
    for _ in range(50):
        cpu = rng.uniform(0, 64)
        mem = rng.uniform(0, 256)
        loose = {s.id for s in filter_candidates(cat, ResourceRequirement(cpu, mem))}
        tight = {
            s.id
            for s in filter_candidates(
                cat, ResourceRequirement(cpu * 1.5, mem * 1.5)
            )
        }
        assert tight <= loose


def test_load_catalog_csv(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "id,instance_type,zone,region,family,cpu_capacity,mem_capacity,on_demand_price\n"
        "a,m4.large,z1,r1,general,2,8,10.0\n"
        "b,c4.2xlarge,z1,r1,compute,8,16,39.8\n"
    )
    cat = load_catalog(path)
    assert [s.id for s in cat] == ["a", "b"]
    assert cat["b"].family is VmFamily.COMPUTE
    assert cat["a"].on_demand_price == 10.0


def test_load_catalog_jsonl(tmp_path):
    path = tmp_path / "catalog.jsonl"
    path.write_text(
        '{"id": "a", "instance_type": "t", "zone": "z", "region": "r",'
        ' "family": "memory", "cpu_capacity": 4, "mem_capacity": 30.5,'
        ' "on_demand_price": 26.6}\n'
        "\n"
    )
    cat = load_catalog(path)
    assert [s.id for s in cat] == ["a"]
    assert cat["a"].mem_capacity == 30.5


def test_load_catalog_reports_line_and_field(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "id,instance_type,zone,region,family,cpu_capacity,mem_capacity,on_demand_price\n"
        "a,t,z,r,general,2,8,10.0\n"
        "b,t,z,r,general,eight,8,10.0\n"
    )
    with pytest.raises(ParseError) as err:
        load_catalog(path)
    assert err.value.line == 3
    assert err.value.field == "cpu_capacity"


def test_load_catalog_rejects_unknown_family(tmp_path):
    path = tmp_path / "catalog.jsonl"
    path.write_text(
        '{"id": "a", "instance_type": "t", "zone": "z", "region": "r",'
        ' "family": "warp", "cpu_capacity": 4, "mem_capacity": 8,'
        ' "on_demand_price": 1.0}\n'
    )
    with pytest.raises(ParseError) as err:
        load_catalog(path)
    assert err.value.field == "family"


def test_load_catalog_missing_value(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "id,instance_type,zone,region,family,cpu_capacity,mem_capacity,on_demand_price\n"
        "a,t,z,r,general,2,,10.0\n"
    )
    with pytest.raises(ParseError) as err:
        load_catalog(path)
    assert err.value.field == "mem_capacity"
    assert err.value.line == 2


VALID_JSONL = (
    '{"id": "a", "instance_type": "t", "zone": "z", "region": "r", "family": "memory",'
    ' "cpu_capacity": 4, "mem_capacity": 30.5, "on_demand_price": 26.6}\n'
)


@pytest.mark.parametrize(
    "name, text, line",
    [
        ("catalog.csv", "", None),
        ("catalog.jsonl", VALID_JSONL + '{"id": "b",\n', 2),
        ("catalog.jsonl", VALID_JSONL + "\n" + '["b"]\n', 3),
    ],
)
def test_load_catalog_locates_unreadable_input(tmp_path, name, text, line):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_catalog(path)
    assert (err.value.source, err.value.line, err.value.field) == (path, line, None)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("cpu_capacity", True, "not a number: True"),
        ("on_demand_price", [26.6], "not a number: [26.6]"),
        ("id", ["b"], "not a string: ['b']"),
        ("zone", {"z": 1}, "not a string: {'z': 1}"),
        ("family", False, "not a string: False"),
    ],
)
def test_load_catalog_rejects_json_values_of_the_wrong_kind(tmp_path, field, value, message):
    row = json.loads(VALID_JSONL)
    path = tmp_path / "catalog.jsonl"
    path.write_text(VALID_JSONL + json.dumps({**row, "id": "b", field: value}) + "\n")
    with pytest.raises(ParseError) as err:
        load_catalog(path)
    assert (err.value.source, err.value.line, err.value.field) == (path, 2, field)
    assert str(err.value).endswith(message)


@pytest.mark.parametrize(
    "text",
    [
        '{"a": 1}',
        '{"a": [1, {"b": null}], "c": "}{"}',
        "{}{}",
        '{"a": 1} 7',
        '{"a": 1} \t x',
        "[1]",
        '"x"',
        '{"a": 1',
        "{not json",
        '{"a": NaN}',
    ],
)
def test_json_record_is_json_loads_of_one_object(text):
    try:
        expected = json.loads(text)
    except json.JSONDecodeError as exc:
        expected = f"f.jsonl: line 3: invalid JSON: {exc}"
    else:
        if not isinstance(expected, dict):
            expected = "f.jsonl: line 3: expected a JSON object"
    try:
        got = json_record(text, "f.jsonl", 3)
    except ParseError as exc:
        got = str(exc)
    assert got == expected


# an int longer than int() reads by default (4,300 digits)
LONG_INT = "9" * 5001


def test_an_int_too_long_to_read_is_located_invalid_json(tmp_path):
    # it escaped as a bare ValueError, with no file or line
    with pytest.raises(ParseError, match=r"^f\.jsonl: line 3: invalid JSON: "):
        json_record(f'{{"timestamp": {LONG_INT}, "price": 1.0}}', "f.jsonl", 3)
    path = tmp_path / "catalog.jsonl"
    path.write_text(VALID_JSONL.replace('"id": "a"', '"id": "b"') + VALID_JSONL.replace("4,", f"{LONG_INT},"))
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line 2: invalid JSON: ") as err:
        load_catalog(path)
    assert (err.value.line, err.value.field) == (2, None)


# load_catalog reads through the block reader; trace_oracle.read_records is
# the per-record reader it replaced

# values a catalog field may hold in a file, good or not
TEXTS = st.sampled_from(
    ["", " ", "x", "general", "compute", "warp", "2", "8.5", "0", "-1", "nan", "inf", "1e400", "a,b", 'q"x', "l\nm"]
)
WILD = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 64),
    st.floats(),
    TEXTS,
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 9), max_size=1),
)
GOOD = {
    "id": st.sampled_from("abcdefghijkl"),  # few, so ids may repeat
    "instance_type": st.sampled_from(["m4.large", "c4.2xlarge"]),
    "zone": st.sampled_from(["z1", "z2"]),
    "region": st.just("r1"),
    "family": st.sampled_from(["general", "compute", "memory"]),
    "cpu_capacity": st.sampled_from([2, 4.0, "8", "0.5"]),
    "mem_capacity": st.sampled_from([8, 30.5, "16"]),
    "on_demand_price": st.sampled_from([10, 26.6, "39.8"]),
}


@st.composite
def catalog_records(draw):
    """A record of good values, one in four with a field dropped or replaced
    by WILD."""
    record = {field: draw(values) for field, values in GOOD.items()}
    if draw(st.integers(0, 3)) == 0:
        field = draw(st.sampled_from(_FIELDS))
        if draw(st.booleans()):
            record.pop(field, None)
        else:
            record[field] = draw(WILD)
    return record


@st.composite
def catalog_files(draw):
    """(file name, text) of a CSV or JSON-lines catalog."""
    records = draw(st.lists(catalog_records(), max_size=9))
    blank = st.sampled_from(["", "  "])
    lines = []
    if draw(st.booleans()):
        if draw(st.integers(0, 20)) == 0:
            return "catalog.csv", ""
        # the header may lack a field, repeat one, or carry one no record has
        header = draw(st.permutations(_FIELDS + ("extra",)))
        if draw(st.integers(0, 5)) == 0:
            header.pop(draw(st.integers(0, len(header) - 1)))
        for field in draw(st.lists(st.sampled_from(_FIELDS), max_size=1)):
            header.insert(draw(st.integers(0, len(header))), field)
        rows = [[r.get(field) for field in header] for r in records]
        for row in rows:
            # a repeated name's later column holds a value of its own
            for i, field in enumerate(header):
                if header.index(field) != i:
                    row[i] = draw(GOOD[field])
        for values in [header] + rows:
            if values is not header and draw(st.integers(0, 19)) == 0:
                # a short row or a long one
                values = values[: draw(st.integers(len(values) - 2, len(values)))]
                values += draw(st.lists(TEXTS, max_size=1))
            text = io.StringIO()
            csv.writer(text, lineterminator="\n").writerow(values)
            lines.append(text.getvalue().rstrip("\n"))
            if draw(st.integers(0, 5)) == 0:
                lines.append("")
        return "catalog.csv", "\n".join(lines) + "\n"
    for record in records:
        lines.append(json.dumps(record))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(blank))
    if draw(st.integers(0, 3)) == 0:
        bad = draw(st.sampled_from(['{"id": "a",', "[1]", '"x"', '{"id": "a"} 7']))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "catalog.jsonl", "\n".join(lines) + "\n"


def reference_catalog(path):
    # an absent field is None, as it is to the block reader
    return Catalog(
        _record_to_spec({field: record.get(field) for field in _FIELDS}, path, line)
        for line, record in trace_oracle.read_records(path)
    )


def catalog_outcome(load, path):
    try:
        return "loaded", list(load(path))
    except Exception as exc:  # either reader's exception is compared, whatever it is
        return "raised", type(exc), str(exc)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(catalog_files(), st.sampled_from([1, 4, 1024]))
def test_load_catalog_matches_the_per_record_reader(file, block):
    # small blocks put block boundaries inside the file
    name, text = file
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(catalog_mod, "_BLOCK", block):
        path = Path(tmp) / name
        path.write_text(text)
        assert catalog_outcome(load_catalog, path) == catalog_outcome(reference_catalog, path)


# the canonical trace lines _jsonl_blocks reads with one regex pass a block,
# against trace_oracle's one json.loads a line

# what an absent price or timestamp reads as; an absent vm_id or zone reads
# as None
ABSENT = object()
TRACE_FIELDS = {"price": ABSENT, "timestamp": ABSENT, "vm_id": None, "zone": None}


def trace_line(price="1.5", stamp="60", vm='"vm-a"', sep=": "):
    return f'{{"price"{sep}{price}, "timestamp"{sep}{stamp}, "vm_id"{sep}{vm}}}'


CANONICAL_LINE = trace_line()
# each a line one step off the canonical form, by name: the prices 1., .5
# and 01.5, the timestamp 007 and a raw tab are not JSON; NaN and Infinity
# are, to json
PRICES = ["3", "1.", ".5", "01.5", "1E5", "1e+16", "-0.0", "5e-324", "1.5e999", "NaN", "Infinity"]
STAMPS = ["-0", "007", "6.0", "9" * 19, "-" + "9" * 19, "1" + "0" * 19]
VM_IDS = {
    "escape": '"v\\u0041"',
    "quote": '"a\\"b"',
    "tab": '"a\tb"',
    "del": '"a\x7fb"',
    "non-ascii": '"vé"',
    "empty": '""',
}
NEAR_CANONICAL = {
    **{f"price {p}": trace_line(price=p) for p in PRICES},
    **{f"timestamp {s}": trace_line(stamp=s) for s in STAMPS},
    **{f"vm_id {name}": trace_line(vm=v) for name, v in VM_IDS.items()},
    "leading space": " " + CANONICAL_LINE,
    "trailing space": CANONICAL_LINE + " ",
    "leading tab": "\t" + CANONICAL_LINE,
    "no space after colons": trace_line(sep=":"),
    "blank": "",
    "price alone": '{"price": 1.5}',
    "array": "[1]",
    "unclosed": CANONICAL_LINE[:-1],
    "extra brace": CANONICAL_LINE + "}",
}


def read_flat(read, path):
    """The line numbers a reader gives, each field's values as (type,
    bits), and its error text or None."""

    def bits(value):
        return (type(value), value.hex() if type(value) is float else value)

    lines, values, error = [], {field: [] for field in TRACE_FIELDS}, None
    try:
        for numbers, columns in read(path):
            lines += numbers
            for field in TRACE_FIELDS:
                values[field] += map(bits, columns[field])
    except ParseError as exc:
        error = str(exc)
    return lines, values, error


def block_reader(path):
    for lines, columns, error in catalog_mod._jsonl_blocks(path, TRACE_FIELDS):
        yield lines, columns
        if error is not None:
            raise error


def oracle_reader(path):
    for line, record in trace_oracle.read_records(path):
        yield [line], {field: [record.get(field, absent)] for field, absent in TRACE_FIELDS.items()}


@pytest.mark.parametrize("near", NEAR_CANONICAL.values(), ids=NEAR_CANONICAL)
def test_canonical_blocks_read_as_json_loads_reads_each_line(tmp_path, near):
    # the near line alone, then among canonical lines: first, inside and
    # last in a block of four, and last in the file; then a blank line and
    # a bad line after a canonical block
    canonical = [trace_line(price=f"{k}.25", stamp=str(60 * k)) for k in range(9)]
    files = [[near]] + [canonical[:k] + [near] + canonical[k:] for k in (0, 4, 6, 7, 9)]
    files += [canonical[:6] + ["", near], canonical[:4] + ["{not json", near]]
    for n, lines in enumerate(files):
        path = tmp_path / f"{n}.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        for block in (1, 4, 1024):
            with mock.patch.object(catalog_mod, "_BLOCK", block):
                assert read_flat(block_reader, path) == read_flat(oracle_reader, path), (block, lines)


def test_record_blocks_read_on_past_an_error_block_give_the_next_file(tmp_path):
    # an error block is its file's last: a reader that goes on past it gets
    # the next file's blocks, and no more of the file that failed, whose
    # third line is a block of its own
    empty, bad, good = tmp_path / "empty.csv", tmp_path / "bad.jsonl", tmp_path / "good.csv"
    empty.write_text("")
    bad.write_text(f"{trace_line()}\n{{not json\n{trace_line()}\n")
    good.write_text("timestamp,vm_id,price\n0,m4.large,4.5\n")
    fields = {"timestamp": None, "vm_id": None}
    with mock.patch.object(catalog_mod, "_BLOCK", 2):
        read = [
            (path.name, list(lines), columns, error and str(error))
            for path, lines, columns, error in catalog_mod.record_blocks([empty, bad, good], fields)
        ]
    assert read == [
        ("empty.csv", [], {"timestamp": [], "vm_id": []}, f"{empty}: empty file"),
        (
            "bad.jsonl",
            [1],
            {"timestamp": [60], "vm_id": ["vm-a"]},
            f"{bad}: line 2: invalid JSON: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        ),
        ("good.csv", [2], {"timestamp": ["0"], "vm_id": ["m4.large"]}, None),
    ]


def test_canonical_regex_takes_only_what_json_reads_unchanged():
    # so the table test reads each of these on the regex path, alone and in
    # a canonical block
    taken = [name for name, line in NEAR_CANONICAL.items() if catalog_mod._CANONICAL.match(line)]
    assert taken == [
        "price 1E5", "price 1e+16", "price -0.0", "price 5e-324", "price 1.5e999",
        "timestamp -0", f"timestamp {'9' * 19}", f"timestamp -{'9' * 19}",
        "vm_id del", "vm_id non-ascii", "vm_id empty",
    ]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.text(max_size=6),
    st.lists(
        st.tuples(st.integers(-(2**63), 2**63 - 1), st.floats(0, allow_infinity=False)),
        min_size=1,
        max_size=8,
        unique_by=lambda point: point[0],
    ),
)
def test_written_trace_lines_are_canonical_and_read_back_bit_equal(vm_id, points):
    trace = PriceTrace(vm_id, [PricePoint(t, price) for t, price in points])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        write_trace_jsonl(trace, path)
        written = path.read_text().split("\n")[:-1]
        [(lines, columns, error)] = catalog_mod._jsonl_blocks(path, TRACE_FIELDS)
    # a vm id json writes as it is takes the regex path, any other the loop
    plain = json.dumps(vm_id) == f'"{vm_id}"'
    assert [bool(catalog_mod._CANONICAL.match(line)) for line in written] == [plain] * len(trace)
    assert (list(lines), error) == (list(range(1, len(trace) + 1)), None)
    assert {type(v) for v in columns["price"]} == {float}
    assert {type(v) for v in columns["timestamp"]} == {int}
    assert np.array(columns["price"]).tobytes() == trace.prices.tobytes()
    assert np.array(columns["timestamp"], dtype=np.int64).tobytes() == trace.timestamps.tobytes()
    assert columns["vm_id"] == [vm_id] * len(trace)
    assert columns["zone"] == [None] * len(trace)
