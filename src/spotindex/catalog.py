"""VM catalog: machine specs, resource requirements, and candidate filtering."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import ConflictError, InvariantError, ParseError


class VmFamily(str, Enum):
    GENERAL = "general"
    COMPUTE = "compute"
    MEMORY = "memory"
    STORAGE = "storage"
    ACCELERATED = "accelerated"
    OTHER = "other"


def _positive_finite(value, name):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvariantError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value) or value <= 0:
        raise InvariantError(f"{name} must be positive and finite, got {value!r}")


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
        if not self.id:
            raise InvariantError("vm id must be non-empty")
        _positive_finite(self.cpu_capacity, "cpu_capacity")
        _positive_finite(self.mem_capacity, "mem_capacity")
        _positive_finite(self.on_demand_price, "on_demand_price")
        if not isinstance(self.family, VmFamily):
            object.__setattr__(self, "family", VmFamily(self.family))

    @property
    def capacity_scale(self) -> float:
        """sqrt(cpu * mem), the denominator of the capacity-normalized price."""
        return math.sqrt(self.cpu_capacity * self.mem_capacity)


@dataclass(frozen=True)
class ResourceRequirement:
    """Minimum resources a job needs from any hosting VM."""

    min_cpu: float
    min_mem: float

    def __post_init__(self):
        for name, value in (("min_cpu", self.min_cpu), ("min_mem", self.min_mem)):
            if not math.isfinite(value) or value < 0:
                raise InvariantError(f"{name} must be finite and >= 0, got {value!r}")

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

_FIELDS = (
    "id",
    "instance_type",
    "zone",
    "region",
    "family",
    "cpu_capacity",
    "mem_capacity",
    "on_demand_price",
)
_NUMERIC_FIELDS = ("cpu_capacity", "mem_capacity", "on_demand_price")


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
    for field in _FIELDS:
        if field not in record or record[field] in (None, ""):
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
        except (TypeError, ValueError):
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
        return VmSpec(
            id=str(values["id"]),
            instance_type=str(values["instance_type"]),
            zone=str(values["zone"]),
            region=str(values["region"]),
            family=VmFamily(family),
            cpu_capacity=values["cpu_capacity"],
            mem_capacity=values["mem_capacity"],
            on_demand_price=values["on_demand_price"],
        )
    except InvariantError as exc:
        raise ParseError(str(exc), source=source, line=line) from None


def read_records(path):
    """Yield (line number, record dict) from a .csv file with a header row,
    or from any other file as one JSON object per non-blank line."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ParseError("empty file", source=path)
            yield from enumerate(reader, start=2)
    else:
        with open(path) as fh:
            for line, raw in enumerate(fh, start=1):
                raw = raw.strip()
                if raw:
                    yield line, json_record(raw, path, line)


# On a stripped line, json.loads(text) gives raw_decode(text)'s object when
# that ends at the end of the line, and raises raw_decode's error when that
# raises; raw_decode alone skips json.loads' two whitespace scans.
_raw_decode = json.JSONDecoder().raw_decode


def json_record(text: str, source, line) -> dict:
    """The JSON object on a stripped, non-blank line of a JSON-lines file."""
    try:
        record, end = _raw_decode(text)
        if end != len(text):
            json.loads(text)  # raises json.loads' "Extra data" error
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", source=source, line=line) from None
    if not isinstance(record, dict):
        raise ParseError("expected a JSON object", source=source, line=line)
    return record


def load_catalog(path) -> Catalog:
    """Load a catalog from a .csv or .jsonl/.json file.

    CSV needs a header row with the exact VmSpec field names; JSON-lines needs
    one object per line with the same keys.
    """
    path = Path(path)
    return Catalog(_record_to_spec(record, path, line) for line, record in read_records(path))


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
