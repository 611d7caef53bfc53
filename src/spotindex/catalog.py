"""VM catalog: machine specs, resource requirements, and candidate filtering;
and record_blocks, the one reader of catalog and trace record files, which
reads a block of canonical trace lines with one regex pass and any other
JSON line with one decode."""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from itertools import islice
from pathlib import Path

from .errors import ConflictError, InvariantError, ParseError, exact, finite


class VmFamily(str, Enum):
    GENERAL = "general"
    COMPUTE = "compute"
    MEMORY = "memory"
    STORAGE = "storage"
    ACCELERATED = "accelerated"
    OTHER = "other"


# the VmSpec fields that must be str
_TEXT_FIELDS = ("id", "instance_type", "zone", "region")


@dataclass(frozen=True)
class VmSpec:
    """One purchasable VM type in one availability zone."""

    id: str
    instance_type: str
    zone: str
    region: str
    family: VmFamily
    cpu_capacity: float
    mem_capacity: float
    on_demand_price: float

    def __post_init__(self):
        for key in _TEXT_FIELDS:
            exact(str, getattr(self, key), key)
        if not self.id:
            raise InvariantError("vm id must be non-empty")
        finite(self.cpu_capacity, "cpu_capacity")
        finite(self.mem_capacity, "mem_capacity")
        finite(self.on_demand_price, "on_demand_price")
        if not isinstance(self.family, VmFamily):
            object.__setattr__(self, "family", VmFamily(self.family))

    @cached_property
    def capacity_scale(self) -> float:
        """capacity_scale of this spec, computed on its first read."""
        return capacity_scale(self.cpu_capacity, self.mem_capacity)

    def __getstate__(self):
        # the cached scale is derived from the fields, so it is not pickled
        state = dict(self.__dict__)
        state.pop("capacity_scale", None)
        return state


def capacity_scale(cpu: float, mem: float) -> float:
    """sqrt(cpu * mem), the denominator of the capacity-normalized price."""
    return math.sqrt(cpu * mem)


@dataclass(frozen=True)
class ResourceRequirement:
    """Minimum resources a job needs from any hosting VM."""

    min_cpu: float
    min_mem: float

    def __post_init__(self):
        finite(self.min_cpu, "min_cpu", strict=False)
        finite(self.min_mem, "min_mem", strict=False)

    def satisfied_by(self, spec: VmSpec) -> bool:
        return spec.cpu_capacity >= self.min_cpu and spec.mem_capacity >= self.min_mem


@dataclass(frozen=True)
class Scope:
    """Composition scope: all fields None means global; set fields narrow it."""

    region: str | None = None
    zone: str | None = None
    family: VmFamily | None = None

    def __post_init__(self):
        if self.family is not None and not isinstance(self.family, VmFamily):
            object.__setattr__(self, "family", VmFamily(self.family))

    def contains(self, spec: VmSpec) -> bool:
        if self.region is not None and spec.region != self.region:
            return False
        if self.zone is not None and spec.zone != self.zone:
            return False
        if self.family is not None and spec.family != self.family:
            return False
        return True


GLOBAL_SCOPE = Scope()

_FIELDS = tuple(f.name for f in fields(VmSpec))
# the fields a catalog file holds as numbers: all but the text and the family
_NUMERIC_FIELDS = tuple(f for f in _FIELDS if f not in (*_TEXT_FIELDS, "family"))


class Catalog:
    """Immutable id -> VmSpec mapping with deterministic iteration order."""

    def __init__(self, specs):
        by_id: dict[str, VmSpec] = {}
        for spec in specs:
            if spec.id in by_id:
                raise ConflictError(f"duplicate vm id {spec.id!r}")
            by_id[spec.id] = spec
        self._by_id = dict(sorted(by_id.items()))

    def __getitem__(self, vm_id: str) -> VmSpec:
        return self._by_id[vm_id]

    def __contains__(self, vm_id: str) -> bool:
        return vm_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self._by_id.values())

    def get(self, vm_id: str):
        return self._by_id.get(vm_id)

    def resolve_instance(self, instance_type: str, zone: str):
        """Find the VmSpec for an (instance_type, zone) pair, or None."""
        for spec in self:
            if spec.instance_type == instance_type and spec.zone == zone:
                return spec
        return None


def _record_to_spec(record: dict, source, line) -> VmSpec:
    """The VmSpec of a catalog record. What VmSpec cannot know (a missing
    value, a JSON value of the wrong shape, a number that does not parse,
    an unknown family) raises ParseError naming source, line and field."""
    for field in _FIELDS:
        if record[field] in (None, ""):
            raise ParseError("missing value", source=source, line=line, field=field)
        if isinstance(record[field], (bool, list, dict)):
            kind = "number" if field in _NUMERIC_FIELDS else "string"
            raise ParseError(
                f"not a {kind}: {record[field]!r}", source=source, line=line, field=field
            )
    values = dict(record)
    for field in _NUMERIC_FIELDS:
        try:
            values[field] = float(values[field])
        except (TypeError, ValueError, OverflowError):  # a whole number past the float range
            raise ParseError(
                f"not a number: {record[field]!r}", source=source, line=line, field=field
            ) from None
    family = str(values["family"])
    families = tuple(f.value for f in VmFamily)
    if family not in families:
        raise ParseError(
            f"unknown family {family!r}, expected one of {families}",
            source=source,
            line=line,
            field="family",
        )
    try:
        return VmSpec(**values)
    except InvariantError as exc:
        raise ParseError(str(exc), source=source, line=line) from None


# On a stripped line, json.loads(text) gives raw_decode(text)'s object when
# that ends at the end of the line, and raises raw_decode's error when that
# raises; raw_decode alone skips json.loads' two whitespace scans.
_raw_decode = json.JSONDecoder().raw_decode


def json_record(text: str, source, line) -> dict:
    """The JSON object on a stripped, non-blank line of a JSON-lines file.
    An int too long for int() (sys.get_int_max_str_digits) is invalid JSON
    here, as a syntax error is."""
    try:
        record, end = _raw_decode(text)
        if end != len(text):
            json.loads(text)  # raises json.loads' "Extra data" error
    except ValueError as exc:  # json.JSONDecodeError among them
        raise ParseError(f"invalid JSON: {exc}", source=source, line=line) from None
    if not isinstance(record, dict):
        raise ParseError("expected a JSON object", source=source, line=line)
    return record


# records read and checked at a time, which bounds the memory a file takes
_BLOCK = 1024


def _csv_blocks(path: Path, fields: dict):
    """Yield (lines, columns, error) for each block of up to _BLOCK rows of a
    CSV file with a header row: each record's line number and a dict of
    each field's values in record order. As csv.DictReader reads it, blank
    rows are skipped and not numbered, a repeated column name takes the
    later column, and a short row gives None. An empty file yields one
    empty block with its error."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            yield [], {field: [] for field in fields}, ParseError("empty file", source=path)
            return
        at = {name: i for i, name in enumerate(header)}
        line = 2
        while block := list(islice(reader, _BLOCK)):
            rows = [row for row in block if row]
            columns = {}
            for field, absent in fields.items():
                i = at.get(field)
                if i is None:
                    columns[field] = [absent] * len(rows)
                else:
                    columns[field] = [row[i] if i < len(row) else None for row in rows]
            yield range(line, line + len(rows)), columns, None
            line += len(rows)


# A line as prices.write_trace_jsonl writes it (catalog cannot import prices,
# which imports it): a price with a fraction or an exponent, whose float() is
# what json gives; an int timestamp of at most 19 digits; a vm id with no
# quote, backslash or control character, which json gives unchanged. No
# group matches a newline, so in a joined block each match is a whole line.
_CANONICAL = re.compile(
    r'^\{"price": (-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)), '
    r'"timestamp": (-?(?:0|[1-9][0-9]{0,18})), "vm_id": "([^"\\\x00-\x1f]*)"\}$',
    re.M,
)


def _jsonl_blocks(path: Path, fields: dict):
    """Yield (lines, columns, error) for each block of up to _BLOCK lines of
    a file of one JSON object per non-blank line. A block with a line that
    is not one object ends at the line before it, with the error
    json_record raises for it. A block whose every line is canonical
    (_CANONICAL) is read with one regex pass, to the values, types and
    float bits the per-line json_record loop gives; any other block pays one
    regex match on its first line for the check."""
    with open(path) as fh:
        first = 1
        while block := list(islice(fh, _BLOCK)):
            if _CANONICAL.match(block[0]):
                found = _CANONICAL.findall("".join(block))
                if len(found) == len(block):
                    prices, stamps, vm_ids = zip(*found)
                    given = {
                        "price": list(map(float, prices)),
                        "timestamp": list(map(int, stamps)),
                        "vm_id": list(vm_ids),
                    }
                    n = len(block)
                    columns = {
                        field: given[field] if field in given else [absent] * n
                        for field, absent in fields.items()
                    }
                    yield range(first, first + n), columns, None
                    first += n
                    continue
            lines, records, error = [], [], None
            try:
                for line, raw in enumerate(block, start=first):
                    text = raw.strip()
                    if text:
                        records.append(json_record(text, path, line))
                        lines.append(line)
            except ParseError as exc:
                error = exc
            first += len(block)
            columns = {
                field: [record.get(field, absent) for record in records]
                for field, absent in fields.items()
            }
            yield lines, columns, error
            if error is not None:
                return


def record_blocks(paths, fields: dict):
    """(path, lines, columns, error) for each block of each file, in order:
    a .csv file has a header row, any other holds JSON lines. `fields` maps
    each field read to its value in a record that lacks it."""
    for path in map(Path, paths):
        blocks = _csv_blocks if path.suffix.lower() == ".csv" else _jsonl_blocks
        for lines, columns, error in blocks(path, fields):
            yield path, lines, columns, error


def load_catalog(path) -> Catalog:
    """Load a catalog from a .csv or .jsonl/.json file.

    CSV needs a header row with the exact VmSpec field names; JSON-lines needs
    one object per line with the same keys. A duplicate id raises before any
    later record is checked, and a block's read error after its records.
    """

    def specs():
        for source, lines, columns, error in record_blocks([path], dict.fromkeys(_FIELDS)):
            for line, values in zip(lines, zip(*columns.values())):
                yield _record_to_spec(dict(zip(columns, values)), source, line)
            if error is not None:
                raise error

    return Catalog(specs())


def filter_candidates(
    catalog, requirement: ResourceRequirement, scope: Scope | None = GLOBAL_SCOPE
) -> list[VmSpec]:
    """VMs in scope whose capacity meets the requirement, sorted by id."""
    if scope is None:
        scope = GLOBAL_SCOPE
    picked = [
        spec
        for spec in catalog
        if scope.contains(spec) and requirement.satisfied_by(spec)
    ]
    return sorted(picked, key=lambda spec: spec.id)
