"""The per-record trace reader, kept as the reference for prices.ingest_traces.

It reads one record at a time (JSON lines by one json.loads each, CSV by
csv.DictReader), builds a dict per record with the scalar parsers, and merges the records into per-VM dicts of
timestamp -> price. The columnar path in prices must give the same traces,
the same warnings in the same order, and the same exception.
"""

import csv
import json
from pathlib import Path

from spotindex.errors import ParseError
from spotindex.prices import PricePoint, PriceTrace, _parse_price, _parse_timestamp, log


def read_records(path):
    """Yield (line number, record dict) from a .csv file with a header row,
    or from any other file as one JSON object per non-blank line, each
    decoded by json.loads."""
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
                if not raw:
                    continue
                try:
                    record = json.loads(raw)
                except ValueError as exc:  # an int too long for int() among them
                    raise ParseError(f"invalid JSON: {exc}", source=path, line=line) from None
                if not isinstance(record, dict):
                    raise ParseError("expected a JSON object", source=path, line=line)
                yield line, record


def read_trace_records(path):
    """Read raw trace records from a .csv or .jsonl file.

    Yields dicts with parsed `timestamp` (int seconds) and `price` (float) plus
    either `vm_id` or `instance_type` and `zone`, and provenance for errors.
    """
    path = Path(path)
    for line, record in read_records(path):
        yield normalize_record(record, path, line)


def normalize_record(record: dict, source, line) -> dict:
    if "timestamp" not in record:
        raise ParseError("missing value", source, line, "timestamp")
    if "price" not in record:
        raise ParseError("missing value", source, line, "price")
    out = {
        "timestamp": _parse_timestamp(record["timestamp"], source, line),
        "price": _parse_price(record["price"], source, line),
        "source": str(source),
        "line": line,
    }
    vm_id = record.get("vm_id")
    if vm_id:
        out["vm_id"] = str(vm_id)
        return out
    instance_type, zone = record.get("instance_type"), record.get("zone")
    if instance_type and zone:
        out["instance_type"] = str(instance_type)
        out["zone"] = str(zone)
        return out
    raise ParseError(
        "record needs either vm_id or instance_type + zone", source, line, "vm_id"
    )


def ingest_records(records, catalog, on_unknown: str = "warn") -> dict[str, PriceTrace]:
    """Build per-VM traces from normalized records, one record at a time."""
    if on_unknown not in ("warn", "error"):
        raise ValueError(f"on_unknown must be 'warn' or 'error', got {on_unknown!r}")
    by_vm: dict[str, dict[int, float]] = {}
    skipped = 0
    for record in records:
        vm_id = ref = record.get("vm_id")
        if vm_id is None:
            spec = catalog.resolve_instance(record["instance_type"], record["zone"])
            vm_id = None if spec is None else spec.id
            ref = f"{record['instance_type']}@{record['zone']}"
        if vm_id not in catalog:
            if on_unknown == "error":
                raise ParseError(
                    f"unknown vm {ref!r}", record.get("source"), record.get("line")
                )
            log.warning("skipping record for unknown vm %s", ref)
            skipped += 1
            continue
        series = by_vm.setdefault(vm_id, {})
        ts = record["timestamp"]
        if ts in series:
            log.warning(
                "duplicate timestamp %s for vm %s, keeping the later record", ts, vm_id
            )
        series[ts] = record["price"]
    if skipped:
        log.warning("ingest skipped %d records for unknown vms", skipped)
    traces = {}
    for vm_id, series in sorted(by_vm.items()):
        points = []
        for ts in sorted(series):
            price = series[ts]
            if points and points[-1].price == price:
                continue
            points.append(PricePoint(ts, price))
        traces[vm_id] = PriceTrace(vm_id, points)
    return traces


def ingest_files(paths, catalog, on_unknown: str = "warn") -> dict[str, PriceTrace]:
    """What prices.ingest_traces(paths, ...) gave with the per-record path."""
    records = (record for path in paths for record in read_trace_records(path))
    return ingest_records(records, catalog, on_unknown=on_unknown)


def write_trace_jsonl(trace: PriceTrace, path) -> None:
    """The canonical JSON-lines form, one json.dumps per point."""
    with open(path, "w") as fh:
        for ts, price in zip(trace.timestamps, trace.prices):
            fh.write(
                json.dumps(
                    {"timestamp": int(ts), "vm_id": trace.vm_id, "price": float(price)},
                    sort_keys=True,
                )
                + "\n"
            )
