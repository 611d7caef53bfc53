"""The four benchmark workloads: their inputs, their operations and the
checks each operation's outputs must pass.

Every workload builds its inputs in `setup` from a seed, with spotindex's own
writers (`generate_market_suite`, `write_trace_jsonl`), and then runs a fixed
rotation of operations over those inputs. The benchmark calls the package
only through its public functions, looked up on their modules at call time so
that the tracer's wrappers are seen when they are installed.

Why each workload exists is written next to its class and in README.md.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from spotindex import catalog as catalog_mod
from spotindex import cli, policies, prices, simulator, synth
from spotindex.catalog import Catalog, VmSpec
from spotindex.simulator import JobSpec, MigrationModel, Phase, RunParams
from spotindex.synth import SynthMarketSpec

# The reference study's four markets: (vm, family, cpu, mem, on-demand,
# spot mean, spot std). The same table as the test suite's fixtures.
MARKET_ROWS = (
    ("m4.large", "general", 2.0, 8.0, 10.0, 4.5, 0.5),
    ("m4.2xlarge", "general", 8.0, 32.0, 40.0, 8.5, 0.5),
    ("c4.2xlarge", "compute", 8.0, 16.0, 39.8, 6.5, 1.0),
    ("r4.xlarge", "memory", 4.0, 30.5, 26.6, 6.5, 1.1),
)
COMPOSITION = tuple(sorted(row[0] for row in MARKET_ROWS))
# A calm market priced below the bsp job's max_price at every instant, but
# dearer per unit used than the reference candidates: policies fall back to
# it only when the others are revoked. Without it all three reference
# candidates sometimes sit above max_price at once (trace seed 832 at
# t=3780), and the engine then ends the run with a selection error.
FALLBACK_ROW = ("m4.4xlarge", "general", 16.0, 64.0, 80.0, 7.9, 0.05)
ZONE = "us-east-1a"
WARMUP = 3600
HOUR = 3600
DAY = 86400
WEEK = 7 * DAY
# 2017-01-01T00:00:00Z: raw traces carry real epoch and ISO timestamps.
TRACE_EPOCH = 1483228800
INDEX_PERIOD = 300


def build_catalog(rows=MARKET_ROWS) -> Catalog:
    return Catalog(
        [
            VmSpec(
                id=vm,
                instance_type=vm,
                zone=ZONE,
                region="us-east-1",
                family=family,
                cpu_capacity=cpu,
                mem_capacity=mem,
                on_demand_price=od,
            )
            for vm, family, cpu, mem, od, _, _ in rows
        ]
    )


def market_specs(volatility_scale=1.0, duration=HOUR, rows=MARKET_ROWS, change_period=60):
    return [
        SynthMarketSpec(
            vm_id=vm,
            mean=mean,
            stddev=std,
            change_period=change_period,
            duration=duration,
            volatility_scale=volatility_scale,
        )
        for vm, _, _, _, _, mean, std in rows
    ]


def study_params() -> RunParams:
    return RunParams(
        epoch=60,
        horizon=60,
        sigma_window=3600,
        index_reference="window",
        migration=MigrationModel(rate=1.0, revocation_restart=90),
    )


def alternating_job(name, n_phases, phase_seconds, **extra) -> JobSpec:
    phases = tuple(
        Phase(phase_seconds, 4.0, 16.0) if i % 2 == 0 else Phase(phase_seconds, 2.0, 8.0)
        for i in range(n_phases)
    )
    return JobSpec(
        name=name,
        phases=phases,
        mem_footprint=4.0,
        reference_capacity=(8.0, 32.0),
        **extra,
    )


def trace_seeds(seed: int, count: int) -> list[int]:
    """Distinct trace seeds per benchmark seed; seed n never reuses seed m's."""
    return [seed * 64 + i for i in range(count)]


@dataclass
class OpResult:
    """What one operation produced, and whether its outputs checked out.

    Only numbers are kept, not the report itself, so that the benchmark's
    own bookkeeping does not grow the process's memory with every op.
    """

    mismatches: list[str] = field(default_factory=list)
    # the simulated outcome; None for ops that do not simulate
    cost_vs_index: float | None = None
    availability: float | None = None
    migrations: int = 0
    aborted_migrations: int = 0
    revocations: int = 0
    hold_events: int = 0
    task_seconds: int = 0
    sim_seconds: int = 0
    work_kept: int = 0
    work_lost: int = 0
    raw_records: int = 0
    points: int = 0
    samples: int = 0


@dataclass(frozen=True)
class Op:
    label: str
    run: object
    check: object


# simulator workloads


@dataclass(frozen=True)
class SimCase:
    label: str
    job: JobSpec
    policy: str
    traces_key: tuple


class SimulatorWorkload:
    """Shared body of `study`, `week` and `bsp`: one op is a full simulator
    run plus the replay, ledger and report text a researcher derives from it.
    """

    rows = MARKET_ROWS

    def __init__(self, seed: int, work_dir: Path, small: bool = False):
        self.seed = seed
        self.small = small
        self.catalog = build_catalog(self.rows)
        self.run_params = study_params()
        self.traces = {}

    def trace_specs(self) -> dict:
        """Map of traces_key to (market specs, synth seed)."""
        raise NotImplementedError

    def cases(self) -> list[SimCase]:
        raise NotImplementedError

    def setup(self):
        """Generate every trace set the rotation uses; returns points made."""
        traces = {}
        points = 0
        for key, (specs, synth_seed) in self.trace_specs().items():
            suite = synth.generate_market_suite(specs, seed=synth_seed, warmup=WARMUP)
            traces[key] = suite
            points += sum(len(t) for t in suite.values())
        self.traces = traces
        return points

    def ops(self, wrap_policy, span) -> list[Op]:
        baselines = {}
        ops = []
        for case in self.cases():
            if case.job.name not in baselines:
                baselines[case.job.name] = simulator.on_demand_baseline(case.job, self.catalog)
            ops.append(
                Op(
                    case.label,
                    self._runner(case, baselines[case.job.name], wrap_policy, span),
                    self._check,
                )
            )
        return ops

    def _runner(self, case, baseline, wrap_policy, span):
        def run():
            traces = self.traces[case.traces_key]
            policy = wrap_policy(policies.build_policy(case.policy))
            report = simulator.run_simulation(
                case.job,
                policy,
                traces,
                self.catalog,
                COMPOSITION,
                params=self.run_params,
                seed=self.seed,
            )
            simulator.normalize_report(report, baseline)
            totals = simulator.replay(report, traces, self.catalog)
            ledger = simulator.ledger_from_report(report, traces, self.catalog)
            with span("cli.report_json"):
                # the document `spotindex simulate` writes, minus its config echo
                text = json.dumps(
                    {"report": report.to_dict(), "seed": self.seed, "version": "bench"},
                    sort_keys=True,
                    indent=2,
                )
            return report, totals, ledger, text

        return run

    def _check(self, produced) -> OpResult:
        report, totals, ledger, text = produced
        result = OpResult(
            cost_vs_index=report.cost_vs_index,
            availability=report.availability,
            migrations=report.migrations,
            aborted_migrations=report.aborted_migrations,
            revocations=report.revocations,
            hold_events=sum(1 for e in report.events if e["event"] == "hold"),
        )
        for key, value in totals.items():
            if getattr(report, key) != value:
                result.mismatches.append(f"replay {key} {value!r} != report {getattr(report, key)!r}")
        if not math.isclose(ledger.net, report.net, rel_tol=1e-9, abs_tol=1e-9):
            result.mismatches.append(f"ledger net {ledger.net!r} != report net {report.net!r}")
        if not 0.0 <= report.availability <= 1.0:
            result.mismatches.append(f"availability {report.availability!r} outside [0, 1]")
        if report.cost_vs_index is None or not report.cost_vs_index > 0:
            result.mismatches.append(f"cost_vs_index {report.cost_vs_index!r} is not positive")
        if any(done < report.work_seconds for done in report.finish_times):
            result.mismatches.append("a task finished before doing its work")
        if not text:
            result.mismatches.append("empty report text")
        lost = sum(e["work_lost"] for e in report.events if e["event"] == "revoke")
        result.task_seconds = sum(report.finish_times)
        result.sim_seconds = report.wallclock_seconds
        result.work_kept = report.work_seconds * report.tasks
        result.work_lost = lost
        return result


class StudyWorkload(SimulatorWorkload):
    """The paper's reference study, in the acceptance battery's shape.

    Four markets, 1-hour jobs with 2 and 12 phases, volatility scales 1.0 and
    1.5, all four policies, rotating over trace seeds. Short runs, so the
    per-run fixed costs (index curve builds, billing three times, context
    builds at every epoch) weigh most here.
    """

    JOBS = (("v1", 2, 1800), ("v3", 12, 300))
    SCALES = (1.0, 1.5)
    POLICIES = ("static", "cost", "avail", "balanced")

    def trace_specs(self):
        seeds = trace_seeds(self.seed, 1 if self.small else 8)
        return {
            (s, scale): (market_specs(scale), s) for s in seeds for scale in self.SCALES
        }

    def cases(self):
        jobs = [alternating_job(*spec) for spec in self.JOBS]
        return [
            SimCase(f"{job.name}/{policy}/x{key[1]}/s{key[0]}", job, policy, key)
            for key in self.trace_specs()
            for job in jobs
            for policy in self.POLICIES
        ]


class WeekWorkload(SimulatorWorkload):
    """A one-week single-task job over week-long traces, alternating the
    `static` policy (one hold billed across ~10k price segments) with `cost`
    (thousands of short holds). The per-second engine loop and per-second
    price lookups dominate.
    """

    POLICIES = ("static", "cost")

    def duration(self):
        return 2 * HOUR if self.small else WEEK

    def trace_specs(self):
        return {"week": (market_specs(1.0, self.duration()), trace_seeds(self.seed, 1)[0])}

    def cases(self):
        phase = self.duration() // 14
        job = alternating_job("week", 14, phase)
        return [SimCase(f"week/{p}", job, p, "week") for p in self.POLICIES]


class BspWorkload(SimulatorWorkload):
    """An 8-task BSP job with one hour of work and `max_price` below the
    dearest candidate's mean, so revocations, rollbacks, aborted migrations
    and gang stalls all happen. The only multi-task workload. `avail` is left
    out: it can end a run with a selection error when no market is below
    the index during a revocation.
    """

    rows = MARKET_ROWS + (FALLBACK_ROW,)
    POLICIES = ("cost", "balanced", "static")
    MAX_PRICE = 8.2
    TRACE_HOURS = 4
    # Migrations start on 60 s decision epochs and last 4 s. Prices that
    # change every 60 s never move inside one, so no migration is ever
    # aborted; a 23 s period puts price changes inside some of them.
    CHANGE_PERIOD = 23

    def trace_specs(self):
        seeds = trace_seeds(self.seed, 1 if self.small else 8)
        specs = market_specs(1.0, self.TRACE_HOURS * HOUR, self.rows, self.CHANGE_PERIOD)
        return {s: (specs, s) for s in seeds}

    def cases(self):
        job = alternating_job(
            "bsp8", 2, 1800, kind="bsp", tasks=8, max_price=self.MAX_PRICE
        )
        return [
            SimCase(f"bsp8/{policy}/s{key}", job, policy, key)
            for key in self.trace_specs()
            for policy in self.POLICIES
        ]


# trace-file workload


class TracesWorkload:
    """Raw trace files for a week of the four markets, half as CSV with ISO
    timestamps and half as JSON lines, ingested and then sampled as an index
    at a 300 s period, both through the command line entry point in-process.
    The only path that never enters the simulator engine: the no-change
    control for engine work, and the one workload that reads and writes
    trace files.
    """

    CSV_MARKETS = ("c4.2xlarge", "m4.large")
    # 5040 points per market and week: about 0.6 s per op, so a run holds
    # enough ops for a steady median
    CHANGE_PERIOD = 120

    def __init__(self, seed: int, work_dir: Path, small: bool = False):
        self.seed = seed
        self.small = small
        self.work_dir = Path(work_dir)
        self.raw_dir = self.work_dir / "raw"
        self.out_dir = self.work_dir / "canonical"
        self.catalog_path = self.work_dir / "catalog.csv"
        self.index_path = self.work_dir / "index.csv"
        self.duration = DAY if small else WEEK
        self.expected_points = {}
        self.raw_records = 0

    def setup(self):
        if self.work_dir.exists():
            shutil.rmtree(self.work_dir)
        self.raw_dir.mkdir(parents=True)
        self._write_catalog()
        suite = synth.generate_market_suite(
            market_specs(1.0, self.duration, change_period=self.CHANGE_PERIOD),
            seed=trace_seeds(self.seed, 1)[0],
            start=TRACE_EPOCH,
        )
        for vm, trace in suite.items():
            if vm in self.CSV_MARKETS:
                self._write_iso_csv(trace, self.raw_dir / f"{vm}.csv")
            else:
                prices.write_trace_jsonl(trace, self.raw_dir / f"{vm}.jsonl")
        self.expected_points = {vm: len(trace) for vm, trace in suite.items()}
        self.raw_records = sum(self.expected_points.values())
        return self.raw_records

    def _write_catalog(self):
        fields = [
            "id",
            "instance_type",
            "zone",
            "region",
            "family",
            "cpu_capacity",
            "mem_capacity",
            "on_demand_price",
        ]
        with open(self.catalog_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            for spec in build_catalog():
                writer.writerow(
                    [
                        spec.id,
                        spec.instance_type,
                        spec.zone,
                        spec.region,
                        spec.family.value,
                        spec.cpu_capacity,
                        spec.mem_capacity,
                        spec.on_demand_price,
                    ]
                )

    @staticmethod
    def _write_iso_csv(trace, path):
        # raw provider form: ISO timestamps, VMs named by instance type + zone
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "instance_type", "zone", "price"])
            for ts, price in zip(trace.timestamps, trace.prices):
                stamp = datetime.fromtimestamp(int(ts), tz=timezone.utc)
                writer.writerow([stamp.strftime("%Y-%m-%dT%H:%M:%SZ"), trace.vm_id, ZONE, repr(float(price))])

    def expected_samples(self):
        return len(range(TRACE_EPOCH, TRACE_EPOCH + self.duration, INDEX_PERIOD))

    def ops(self, wrap_policy, span) -> list[Op]:
        return [Op("ingest+index", self._run, self._check)]

    def prepare(self):
        """Untimed: start every op from an empty output directory."""
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        if self.index_path.exists():
            self.index_path.unlink()

    def _run(self):
        ingest = cli.main(
            [
                "ingest",
                "--in",
                str(self.raw_dir),
                "--catalog",
                str(self.catalog_path),
                "--out",
                str(self.out_dir),
                "--unknown",
                "error",
            ]
        )
        index = cli.main(
            [
                "index",
                "--traces",
                str(self.out_dir),
                "--catalog",
                str(self.catalog_path),
                "--start",
                str(TRACE_EPOCH),
                "--end",
                str(TRACE_EPOCH + self.duration),
                "--period",
                str(INDEX_PERIOD),
                "--out",
                str(self.index_path),
            ]
        )
        return ingest, index

    def _check(self, produced) -> OpResult:
        ingest, index = produced
        result = OpResult(raw_records=self.raw_records)
        if ingest != 0 or index != 0:
            result.mismatches.append(f"cli exit codes ingest={ingest} index={index}")
            return result
        with open(self.out_dir / "manifest.json") as fh:
            manifest = json.load(fh)
        written = {vm: entry["points"] for vm, entry in manifest["traces"].items()}
        loaded = prices.load_trace_dir(
            self.out_dir, catalog_mod.load_catalog(self.catalog_path), on_unknown="error"
        )
        reloaded = {vm: len(trace) for vm, trace in loaded.items()}
        if written != self.expected_points or reloaded != self.expected_points:
            result.mismatches.append(
                f"points: expected {self.expected_points}, manifest {written}, reloaded {reloaded}"
            )
        with open(self.index_path) as fh:
            rows = [line for line in fh if not line.startswith("#")]
        samples = len(rows) - 1
        if rows[0].strip() != "timestamp,value,min,max,n_effective" or samples != self.expected_samples():
            result.mismatches.append(
                f"index csv has {samples} rows, expected {self.expected_samples()}"
            )
        result.points = sum(reloaded.values())
        result.samples = samples
        return result


WORKLOADS = {
    "study": StudyWorkload,
    "week": WeekWorkload,
    "bsp": BspWorkload,
    "traces": TracesWorkload,
}


def make_workload(name: str, seed: int, work_dir: Path, small: bool = False):
    """`work_dir` is where a workload may write files; only `traces` does."""
    return WORKLOADS[name](seed, work_dir, small=small)
