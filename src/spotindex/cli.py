"""Command line interface.

Subcommands: ingest raw traces to canonical JSONL, sample an index to CSV,
synthesize market traces, simulate a job under a policy, and tabulate
reports. Every flag can also come from a --config JSON file whose keys are
the flag names with dashes as underscores; explicit flags win, and each
config value is parsed as the words that would follow its flag. Outputs
embed the tool version, the seed, and the effective config. Exit status is
0 on success, 1 on a domain error, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path

from . import __version__
from .catalog import Scope, load_catalog
from .errors import ConflictError, SpotIndexError
from .index import index_series
from .policies import POLICIES, build_policy
from .prices import ingest_traces, load_trace_dir, trace_files, write_trace_jsonl
from .simulator import (
    JobSpec,
    MigrationModel,
    RunParams,
    normalize_report,
    on_demand_baseline,
    run_simulation,
)
from .synth import DEFAULT_SEED, SynthMarketSpec, checked_seed, generate_market_suite

log = logging.getLogger(__name__)

# parsed values that are neither options a config file sets nor part of the
# effective config an output echoes
NOT_OPTIONS = ("command", "config", "verbose", "func")


def _load_json(path, what: str):
    """The JSON document in the file at path; a file that is not JSON raises
    ValueError naming it as `what` and path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{what} {path}: {exc}") from exc


def _load_config(path) -> dict:
    if path is None:
        return {}
    config = _load_json(path, "config")
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return config


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Fill unset options from the config file.

    Each value is parsed as the words that would follow its flag, so the
    flag's type and choices apply: a string or number is one word, a list is
    several (an empty list is a usage error, not the bare flag), true gives
    a switch, and false or null leaves the option unset.
    Every option defaults to None so a config value is distinguishable from
    an explicit flag; built-in defaults are applied by the handlers after
    this merge.
    """
    words = [args.command]
    for key, value in _load_config(args.config).items():
        dest = {"in": "inputs"}.get(key, key.replace("-", "_"))
        flag = "--in" if dest == "inputs" else "--" + dest.replace("_", "-")
        if dest not in vars(args) or dest in NOT_OPTIONS:
            parser.error(f"config key {key!r} does not match any {args.command} option")
        if value == []:
            parser.error(f"config key {key!r} is an empty list")
        if value is True:
            words.append(flag)
        elif isinstance(value, list):
            words += [flag, *map(str, value)]
        elif value is not None and value is not False:
            words.append(f"{flag}={value}")
    for dest, value in vars(parser.parse_args(words)).items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    return args


def _effective_config(args: argparse.Namespace) -> dict:
    return {key: value for key, value in vars(args).items() if key not in NOT_OPTIONS}


def _require(args, parser, *names):
    for name in names:
        if getattr(args, name) is None:
            parser.error(f"--{name.replace('_', '-')} is required")


def _comma_list(value):
    if value is None:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def _given(args, **fields) -> dict:
    """The options that were set, as field name -> value.

    `fields` maps each field name to its option dest. Unset options are left
    out, so their fields keep the defaults their callee declares.
    """
    return {
        name: getattr(args, dest)
        for name, dest in fields.items()
        if getattr(args, dest) is not None
    }


def _provenance(args, seed=None) -> dict:
    return {"version": __version__, "seed": seed, "config": _effective_config(args)}


def _write_json(doc: dict, path) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


@contextmanager
def _csv_out(args):
    """The --out file, or stdout, with the version and config header written."""
    fh = open(args.out, "w", newline="") if args.out is not None else sys.stdout
    try:
        fh.write(f"# spotindex {__version__}\n")
        fh.write(f"# config: {json.dumps(_effective_config(args), sort_keys=True)}\n")
        yield fh
    finally:
        if fh is not sys.stdout:
            fh.close()


def _write_traces(traces, out, manifest: dict) -> int:
    """Write each trace as canonical JSONL into the `out` directory, next to
    a manifest.json that lists them; returns how many were written. Two vm
    ids that map to one file name raise ConflictError before any write."""
    names = {}
    for vm_id in traces:
        name = f"{vm_id.replace('/', '_')}.jsonl"
        if name in names:
            raise ConflictError(
                f"vm ids {names[name]!r} and {vm_id!r} would both be written to {name}"
            )
        names[name] = vm_id
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for name, vm_id in names.items():
        trace = traces[vm_id]
        write_trace_jsonl(trace, out_dir / name)
        written[vm_id] = {"file": name, "points": len(trace)}
    manifest["traces"] = written
    _write_json(manifest, out_dir / "manifest.json")
    return len(written)


def _market_spec(path, i, entry) -> SynthMarketSpec:
    """Entry i of the market spec list in file path, whose keys are
    SynthMarketSpec's fields and are checked by it, so a value means here
    what it means to the library; a malformed entry or a bad value raises
    ValueError naming the file, the entry's index and its key."""
    where = f"market spec {path}: market {i}"
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be a JSON object, got {entry!r}")
    given = {}
    for f in fields(SynthMarketSpec):
        if f.name in entry:
            given[f.name] = entry[f.name]
        elif f.default is MISSING:
            raise ValueError(f"{where} has no {f.name!r}")
    try:
        return SynthMarketSpec(**given)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


# command handlers


def cmd_ingest(args, parser) -> int:
    _require(args, parser, "inputs", "catalog", "out")
    catalog = load_catalog(args.catalog)
    paths = []
    for raw in args.inputs:
        p = Path(raw)
        paths.extend(trace_files(p) if p.is_dir() else [p])
    traces = ingest_traces(paths, catalog, **_given(args, on_unknown="unknown"))
    written = _write_traces(traces, args.out, _provenance(args))
    log.info("ingested %d traces into %s", written, args.out)
    return 0


def cmd_index(args, parser) -> int:
    _require(args, parser, "traces", "catalog", "start", "end")
    catalog = load_catalog(args.catalog)
    traces = load_trace_dir(args.traces, catalog, **_given(args, on_unknown="unknown"))
    composition = _comma_list(args.composition) or sorted(traces)
    period = _given(args, period="period")
    series = index_series(traces, catalog, composition, args.start, args.end, **period)
    if series.gaps:
        log.warning("index has %d gap samples (first at %d)", len(series.gaps), series.gaps[0])
    with _csv_out(args) as fh:
        fh.write("timestamp,value,min,max,n_effective\n")
        for s in series.samples:
            fh.write(f"{s.timestamp},{s.value!r},{s.low!r},{s.high!r},{s.n_effective}\n")
    return 0


def cmd_synth(args, parser) -> int:
    _require(args, parser, "spec", "out")
    raw = _load_json(args.spec, "market spec")
    if isinstance(raw, dict):
        raw = raw.get("markets", raw)
    if not isinstance(raw, list):
        raise ValueError(f"market spec {args.spec} must hold a list of markets")
    specs = [_market_spec(args.spec, i, entry) for i, entry in enumerate(raw)]
    options = _given(args, seed="seed", start="start", warmup="warmup")
    # checked before the markets are, so that its error does not name the spec file
    options["seed"] = checked_seed(options.get("seed", DEFAULT_SEED))
    try:
        traces = generate_market_suite(specs, **options)
    except (ValueError, SpotIndexError) as exc:
        raise ValueError(f"market spec {args.spec}: {exc}") from exc
    manifest = _provenance(args, seed=options["seed"])
    written = _write_traces(traces, args.out, manifest)
    log.info("wrote %d synthetic traces into %s", written, args.out)
    return 0


def cmd_simulate(args, parser) -> int:
    _require(args, parser, "job", "policy", "traces", "catalog")
    options = _given(args, sufficiency="sufficiency", target_rule="target_rule")
    if options and args.policy != "balanced":
        parser.error("--sufficiency and --target-rule only apply to --policy balanced")
    policy = build_policy(args.policy, **options)
    catalog = load_catalog(args.catalog)
    traces = load_trace_dir(args.traces, catalog, **_given(args, on_unknown="unknown"))
    doc = _load_json(args.job, "job")
    try:
        job = JobSpec.from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"job {args.job}: {exc}") from exc
    composition = _comma_list(args.composition) or sorted(traces)
    migration = MigrationModel(
        **_given(
            args,
            rate="migration_rate",
            fixed_floor="migration_floor",
            revocation_restart="restart",
        )
    )
    params = RunParams(
        migration=migration,
        **_given(
            args,
            epoch="epoch",
            horizon="horizon",
            sigma_window="sigma_window",
            index_reference="index_reference",
            bsp_superstep="bsp_superstep",
            treat_cap_as_revocation="cap_as_revocation",
            max_wallclock="max_wallclock",
        ),
    )
    seed = _given(args, seed="seed")
    scope = Scope(region=args.region, zone=args.zone, family=args.family)
    report = run_simulation(
        job,
        policy,
        traces,
        catalog,
        composition,
        params=params,
        scope=scope,
        **seed,
    )
    normalize_report(report, on_demand_baseline(job, catalog, scope))
    if args.events is not None:
        with open(args.events, "w") as fh:
            for event in report.events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
    doc = _provenance(args, **seed)
    doc["report"] = report.to_dict()
    _write_json(doc, args.out)
    log.info(
        "policy=%s cost=%.6f availability=%.6f migrations=%d",
        report.policy,
        report.total_cost,
        report.availability,
        report.migrations,
    )
    return 0


def cmd_report(args, parser) -> int:
    _require(args, parser, "inputs")
    rows = []
    jobs = set()
    for raw in args.inputs:
        doc = _load_json(raw, "report")
        body = doc.get("report", doc) if isinstance(doc, dict) else doc
        if not isinstance(body, dict):
            raise ValueError(f"report {raw} must hold a JSON object, got {body!r}")
        job = body.get("job")
        if job is not None and not isinstance(job, str):
            raise ValueError(f"report {raw}: job must be a string, got {job!r}")
        jobs.add(job)
        rows.append(body)
    if len(jobs) > 1 and not args.force:
        raise ConflictError(
            f"reports cover different jobs {sorted(jobs, key=str)}; pass --force to tabulate anyway"
        )
    rows.sort(key=lambda r: (str(r.get("policy")), str(r.get("job"))))
    columns = (
        "policy",
        "job",
        "total_cost",
        "cost_vs_on_demand",
        "cost_vs_index",
        "availability",
        "migrations",
        "revocations",
        "net",
    )
    with _csv_out(args) as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for col in columns:
                value = row.get(col)
                cells.append("" if value is None else (f"{value!r}" if isinstance(value, float) else str(value)))
            fh.write(",".join(cells) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotindex",
        description="Spot-price indices and VM selection policy simulation.",
    )
    parser.add_argument("--version", action="version", version=f"spotindex {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize raw price traces to JSONL")
    p.add_argument("--in", dest="inputs", nargs="+", help="trace files or directories")
    p.add_argument("--catalog", help="VM catalog CSV or JSONL")
    p.add_argument("--out", help="output directory")
    p.add_argument("--unknown", choices=("warn", "error"), help="unknown-VM handling")
    p.add_argument("--config", help="JSON file of option defaults")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("index", help="sample an aggregate index to CSV")
    p.add_argument("--traces", help="directory of canonical traces")
    p.add_argument("--catalog", help="VM catalog CSV or JSONL")
    p.add_argument("--composition", help="comma-separated member vm ids")
    p.add_argument("--start", type=int, help="first sample timestamp")
    p.add_argument("--end", type=int, help="end of the sample range (exclusive)")
    p.add_argument("--period", type=int, help="sample period in seconds")
    p.add_argument("--unknown", choices=("warn", "error"), help="unknown-VM handling")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.add_argument("--config", help="JSON file of option defaults")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("synth", help="generate synthetic market traces")
    p.add_argument("--spec", help="JSON file listing market specs")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--start", type=int, help="first run timestamp")
    p.add_argument("--warmup", type=int, help="warmup seconds before start")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="JSON file of option defaults")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="run one job under one policy")
    p.add_argument("--job", help="job spec JSON file")
    p.add_argument("--policy", choices=sorted(POLICIES), help="selection policy")
    p.add_argument("--traces", help="directory of canonical traces")
    p.add_argument("--catalog", help="VM catalog CSV or JSONL")
    p.add_argument("--composition", help="comma-separated index members")
    p.add_argument("--epoch", type=int, help="decision period in seconds")
    p.add_argument("--horizon", type=int, help="cost policy payback horizon")
    p.add_argument("--sigma-window", type=int, help="volatility window in seconds")
    p.add_argument("--index-reference", choices=("window", "instant"), help="index reference mode")
    p.add_argument("--bsp-superstep", type=int, help="BSP superstep length in work seconds")
    p.add_argument("--migration-rate", type=float, help="seconds per GB migrated")
    p.add_argument("--migration-floor", type=float, help="minimum migration seconds")
    p.add_argument("--restart", type=int, help="revocation restart seconds")
    p.add_argument(
        "--cap-as-revocation",
        action="store_true",
        default=None,
        help="treat provider-capped prices as revocations",
    )
    p.add_argument("--max-wallclock", type=int, help="simulated-seconds safety limit")
    p.add_argument("--sufficiency", choices=("eq5", "off"), help="balanced migration guard")
    p.add_argument(
        "--target-rule", choices=("sharpe", "first_feasible"), help="balanced target choice"
    )
    p.add_argument("--region", help="restrict candidates to a region")
    p.add_argument("--zone", help="restrict candidates to a zone")
    p.add_argument("--family", help="restrict candidates to a family")
    p.add_argument("--unknown", choices=("warn", "error"), help="unknown-VM handling")
    p.add_argument("--seed", type=int, help="seed recorded in the report")
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.add_argument("--events", help="also write the event log as JSONL")
    p.add_argument("--config", help="JSON file of option defaults")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="tabulate simulation reports to CSV")
    p.add_argument("--in", dest="inputs", nargs="+", help="report JSON files")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.add_argument(
        "--force",
        action="store_true",
        default=None,
        help="tabulate reports of different jobs",
    )
    p.add_argument("--config", help="JSON file of option defaults")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        _merge_config(args, parser)
        return args.func(args, parser)
    except (SpotIndexError, OSError, ValueError, KeyError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
