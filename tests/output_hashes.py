"""Print one SHA-256 per output of the package, to check that a change to the
source leaves every output's bytes as they were.

At seeds 0 and 7919, it hashes every case of the `study`, `week` and
`bsp` benchmark workloads (bench/workloads.py): the report document the
bench writes, the replay totals and the ledger, and the cases of the first
`study` trace set once more in reverse order, after emptying the caches
of the index curve and the opening epoch table, under labels that start with
"reversed" (reversed_lines), which must hash as the forward ones do; and
every file the `traces` case writes, with its work directory masked, once
as the bench writes its raw JSON lines, once with their keys in reverse
order, so that both paths of the JSON-lines reader run, and once from
one JSON-lines file in which the four markets take turns and one CSV file
of epoch-second text (mix_raw_traces), so that ingest codes blocks of
several VMs and reads timestamps that are not ISO text value by value,
where the bench's files take the whole-column checks; and a 3-task
`long_running` job of the acceptance battery's `v3` shape under each
policy, whose task 1 a scripted move puts on another VM than its peers, so
that the tasks ask with different contexts at one instant; and a job of
14 phases over three sizes, under each policy, alone and as a BSP gang,
whose phase boundaries fall off the epoch grid, several phases shorter
than an epoch, so that the engine looks across several boundaries between
two decisions (multi_phase_lines); and runs in
which a VM's price crossing onto its provider cap revokes it, shaped as the
`study` and `bsp` cases, under treat_cap_as_revocation (cap_lines); and
every `study`, `week` and `bsp` case again under a wrapper policy that
forwards select and decide but has no decision tables, so that the engine
asks decide on a context at every epoch tick, over tables of up to 1,024
ticks in `week` (ask_lines); and `balanced` with
its Eq. 5 gate on, under either target rule, on the battery's `v1` job
over traces whose index a dear m4.large, outside the candidates, lifts
until the gate passes and `balanced` moves (moving_eq5_lines); and the
same runs over traces in which c4.2xlarge, a candidate outside the index,
is priced 1e200 for ten minutes, where its scores are NaN and the gate
blocks every move (nan_score_lines); and the trace that
generate_market_suite makes of each valid case of the warmup oracle of
tests/test_synth.py, at the case's start and warmup (synth_lines), so
that every CI job compares the bits of synthesis. Once, it hashes each of the
acceptance battery's 750 reports, with their replays and ledgers, and the
runs in which `balanced` and `avail` move, which no bench case or battery
run makes: `balanced` with its Eq. 5 gate off, under either
target rule, on the battery's `v1` job at volatility 1.5 (and in the 3-task
case above at both seeds), and `avail` on the price-shock traces of
tests/test_simulator.py, whose VM the shock puts above the index. Last, it
hashes the error, type and message, that replay and ledger_from_report
give for each malformed event and each report key case of
tests/test_simulator.py, so that a change to a reader shows which of its
located messages it changed; the error of a `balanced` run whose every
score is NaN, every market priced 1e200; the error of the warmup
oracle's case whose warmup block leaves int64; the error of a run under each
policy whose candidate's floored utilization underflows to 0; and the
error of a run under each policy and index reference whose decision
ticks step over an index gap, where the window reference's trailing
window crosses it (window_gap_lines); and the error of ingest_traces for
a block whose columns each hold one type, failed by the block's last
line, once for each whole-column check (ingest_error_lines).

Save the output of the old source tree, then run it on the new one with
that file as its argument:

    PYTHONPATH=path/to/old/src python tests/output_hashes.py > old.txt
    PYTHONPATH=src python tests/output_hashes.py old.txt

With an argument it matches the lines of the two trees by their label, the
text after the hash, which is unique to each line. It prints how many labels
are equal, changed, missing from the new tree and new in it, and the first
changed or missing label, old and new; it exits 1 only on a changed or
missing label, so a case added since the old tree shows as new. Without an
argument it prints every line: 4,452 lines in about 10 s on a 2-core Xeon VM.

With --per-second, every run it hashes, the acceptance battery's 750
included, goes through run_per_second, the one-second reference engine of
tests/reference_engine.py, in place of run_simulation. That engine asks
`decide` at every epoch tick and `select` at every pick, and reads neither
a decision table nor a pick kept on a shared block, so its hashes checked
against the default engine's file check every answer the engine reads
from a table, or from a block that runs over one market share, against
the policies' own rules:

    PYTHONPATH=src python tests/output_hashes.py > default.txt
    PYTHONPATH=src python tests/output_hashes.py --per-second default.txt

Every label must then read equal but those of PER_SECOND_FAULTS, each a
known fault of the default engine, which must read changed: the comparison
prints them apart, and fails on any other changed or missing label, and on
a fault's label that reads equal. It takes 80-90 s on the same VM,
most of it the one-second loop over the `week` case's seven days.

It reads bench/workloads.py and changes nothing under bench/. Its name keeps
pytest from collecting it.
"""

import contextlib
import csv
import hashlib
import itertools
import json
import sys
import tempfile
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from spotindex import (  # noqa: E402
    BalancedPolicy,
    Catalog,
    JobSpec,
    Phase,
    PricePoint,
    PriceTrace,
    generate_market_suite,
    ingest_traces,
    ledger_from_report,
    replay,
    run_simulation,
)
from spotindex import index, simulator  # noqa: E402
from spotindex.policies import POLICIES  # noqa: E402

from conftest import COMPOSITION, build_catalog, priced_over, study_params, traces_for  # noqa: E402
import test_acceptance  # noqa: E402
from reference_engine import run_per_second  # noqa: E402
from test_acceptance import VARIANTS, run_battery  # noqa: E402
from test_synth import WARMUP_CASES, WARMUP_PAST_INT64  # noqa: E402
from test_simulator import (  # noqa: E402
    BOTH_READERS,
    Asking,
    CATALOG,
    MALFORMED_EVENTS,
    REPORT_KEY_CASES,
    REPORT_KEY_IDS,
    edit_event,
    located_run,
    price_shock,
)
from workloads import make_workload  # noqa: E402

SEEDS = (0, 7919)
# task 1 moves at t=1000 onto a VM that the policy does not pick for the
# tasks at t=0: avail picks m4.2xlarge at both seeds
MOVE_TARGETS = {"avail": "r4.xlarge"}
# balanced with its Eq. 5 gate off, which moves, under each target rule
MOVING_BALANCED = {
    f"balanced/{rule}/off": BalancedPolicy(target_rule=rule, sufficiency="off")
    for rule in ("sharpe", "first_feasible")
}


def sha(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def simulator_lines(name: str, seed: int, work_dir: Path, wrap_policy=None, tag: str = "", order=None):
    """Each case's report, replay and ledger, under its policy as
    wrap_policy wraps it, where given; tag starts each label. order, where
    given, maps the workload and its ops to the ops to run, in order."""
    workload = make_workload(name, seed, work_dir)
    workload.setup()
    ops = workload.ops(wrap_policy or (lambda policy: policy), lambda _: contextlib.nullcontext())
    for op in order(workload, ops) if order else ops:
        report, totals, ledger, text = op.run()
        label = f"{tag}{name} seed={seed} {op.label}"
        yield f"{sha(text.encode())}  {label} report"
        yield f"{sha(totals)}  {label} replay"
        yield f"{sha(ledger.to_dicts())}  {label} ledger"


def ask_lines(seed: int, work_dir: Path):
    """The `study`, `week` and `bsp` cases with each policy wrapped in
    Asking."""
    for name in ("study", "week", "bsp"):
        yield from simulator_lines(name, seed, work_dir / name, Asking, "ask ")


def first_set_reversed(workload, ops) -> list:
    """The ops of the workload's first trace set, in reverse order."""
    cases = workload.cases()
    return [op for case, op in zip(cases, ops) if case.traces_key == cases[0].traces_key][::-1]


def reversed_lines(seed: int, work_dir: Path):
    """The `study` cases of its first trace set, both jobs under every
    policy, in reverse order, after emptying the index curve and opening
    epoch table caches: each must hash as its forward-order case does,
    since a run may not depend on the runs before it over one market."""
    index._shared_curve.cache_clear()
    simulator._opening_block.cache_clear()
    yield from simulator_lines("study", seed, work_dir, tag="reversed ", order=first_set_reversed)


def mix_raw_traces(raw_dir: Path):
    """Rewrite the `traces` case's raw files as two: the first half of each
    market's records in one JSON-lines file, the four markets taking turns,
    and the second halves in one CSV file with epoch-second text for
    timestamps. Each record names its VM as its original file did."""
    markets = []
    for path in sorted(raw_dir.iterdir()):
        if path.suffix == ".jsonl":
            rows = [json.loads(line) for line in path.read_text().splitlines()]
        else:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                row["price"] = float(row["price"])
                row["timestamp"] = int(datetime.fromisoformat(row["timestamp"][:-1] + "+00:00").timestamp())
        markets.append(rows)
        path.unlink()
    halves = [(rows[: len(rows) // 2], rows[len(rows) // 2 :]) for rows in markets]
    turns = itertools.zip_longest(*(first for first, _ in halves))
    with open(raw_dir / "mixed.jsonl", "w") as fh:
        fh.writelines(json.dumps(row) + "\n" for turn in turns for row in turn if row)
    fields = ["timestamp", "vm_id", "instance_type", "zone", "price"]
    with open(raw_dir / "mixed.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        for _, second in halves:
            writer.writerows({**row, "timestamp": str(row["timestamp"]), "price": repr(row["price"])} for row in second)


def traces_lines(seed: int, work_dir: Path, variant: str = ""):
    """The `traces` case's outputs. Variant "reordered" reverses the keys of
    its raw JSON lines, so that ingest reads them line by line, not as
    canonical blocks; "mixed" rewrites them with mix_raw_traces, so that
    ingest codes blocks of several VMs and reads timestamps that are not
    ISO text value by value."""
    workload = make_workload("traces", seed, work_dir)
    workload.setup()
    name = f"traces {variant}".strip()
    if variant == "reordered":
        for path in sorted(workload.raw_dir.glob("*.jsonl")):
            records = map(json.loads, path.read_text().splitlines())
            path.write_text("".join(json.dumps(dict(reversed(r.items()))) + "\n" for r in records))
    elif variant == "mixed":
        mix_raw_traces(workload.raw_dir)
    workload.prepare()
    [op] = workload.ops(None, None)
    ingest, index = op.run()
    yield f"{sha([ingest, index])}  {name} seed={seed} exit codes"
    for path in sorted(workload.out_dir.iterdir()) + [workload.index_path]:
        # manifests and CSV headers echo the command line, paths included
        text = path.read_bytes().replace(str(work_dir).encode(), b"<work>")
        yield f"{sha(text)}  {name} seed={seed} {path.relative_to(work_dir)}"


def report_lines(report, traces, catalog, label):
    doc = report.to_dict()
    yield f"{sha(doc)}  {label} report"
    yield f"{sha(replay(doc, traces, catalog))}  {label} replay"
    yield f"{sha(ledger_from_report(doc, traces, catalog).to_dicts())}  {label} ledger"


def multi_task_lines(seed: int):
    catalog = build_catalog()
    traces = traces_for(seed)
    job = replace(VARIANTS["v3"], name="v3x3", tasks=3)
    for name, policy in [*((name, name) for name in sorted(POLICIES)), *MOVING_BALANCED.items()]:
        move = (1000, 1, MOVE_TARGETS.get(name, "m4.2xlarge"))
        report = run_simulation(
            job, policy, traces, catalog, COMPOSITION,
            params=study_params(), forced_migrations=[move], seed=seed,
        )
        yield from report_lines(report, traces, catalog, f"multi-task v3x3 {name} seed={seed}")


# 14 phases over three sizes, 3,055 s of work: boundaries off the 60 s
# epoch grid, five phases shorter than an epoch, and a size that recurs
MULTI_PHASES = (130, 20, 70, 45, 100, 15, 15, 200, 610, 35, 290, 500, 25, 1000)
MULTI_SIZES = ((4.0, 16.0), (2.0, 8.0), (3.0, 12.0))


def multi_phase_lines(seed: int):
    """A job of MULTI_PHASES, its sizes cycling through MULTI_SIZES, over
    traces_for(seed) under each policy: one task, and a 4-task BSP gang
    under max_price 9.0. cost moves in both at both seeds, and avail moves
    the gang after revocations."""
    catalog = build_catalog()
    traces = traces_for(seed)
    job = JobSpec(
        name="multi-phase",
        phases=tuple(Phase(d, *MULTI_SIZES[i % 3]) for i, d in enumerate(MULTI_PHASES)),
        mem_footprint=4.0,
        reference_capacity=(8.0, 32.0),
    )
    gang = replace(job, name="multi-phase-bsp4", kind="bsp", tasks=4, max_price=9.0)
    for run in (job, gang):
        for name in sorted(POLICIES):
            report = run_simulation(run, name, traces, catalog, COMPOSITION, params=study_params(), seed=seed)
            yield from report_lines(report, traces, catalog, f"{run.name} {name} seed={seed}")


def moving_lines():
    """The runs in which balanced and avail move, besides the 3-task case:
    balanced with its gate off on the v1 job at volatility 1.5, and avail,
    which a price shock moves under max_price 100."""
    catalog = build_catalog()
    for name, policy in MOVING_BALANCED.items():
        for seed in range(4):
            traces = traces_for(seed, 1.5)
            report = run_simulation(
                VARIANTS["v1"], policy, traces, catalog, COMPOSITION,
                params=study_params(), seed=seed,
            )
            yield from report_lines(report, traces, catalog, f"moving {name} v1/1.5 seed={seed}")
    job, traces, scope = price_shock("m4.2xlarge", 100.0)
    report = run_simulation(
        job, "avail", traces, catalog, COMPOSITION, params=study_params(), scope=scope
    )
    yield from report_lines(report, traces, catalog, "moving avail price shock m4.2xlarge")


def moving_eq5_lines(seed: int):
    """The v1 job under balanced with its Eq. 5 gate on, under each target
    rule, over traces_for(seed) with m4.large, which the index holds but
    the job's requirement leaves out, at 90 from t=600 on: the index then
    pays for moves between the candidates, and balanced makes them."""
    catalog = build_catalog()
    traces = priced_over(traces_for(seed), "m4.large", 600, 3600, 90.0)
    for rule in ("sharpe", "first_feasible"):
        report = run_simulation(
            VARIANTS["v1"], BalancedPolicy(target_rule=rule), traces, catalog, COMPOSITION,
            params=study_params(), seed=seed,
        )
        yield from report_lines(report, traces, catalog, f"moving balanced/{rule}/eq5 m4.large at 90 seed={seed}")


def nan_score_lines(seed: int):
    """The v1 job under balanced with its Eq. 5 gate on, under each target
    rule, over traces_for(seed) with c4.2xlarge, a candidate outside the
    index, at 1e200 over [600, 1200) under max_price 1e300: its scores are
    NaN there, where the gate blocks every move, so both rules stay."""
    catalog = build_catalog()
    traces = priced_over(traces_for(seed), "c4.2xlarge", 600, 1200, 1e200)
    composition = [vm for vm in COMPOSITION if vm != "c4.2xlarge"]
    job = replace(VARIANTS["v1"], max_price=1e300)
    for rule in ("sharpe", "first_feasible"):
        with np.errstate(all="ignore"):
            report = run_simulation(
                job, BalancedPolicy(target_rule=rule), traces, catalog, composition,
                params=study_params(), seed=seed,
            )
        yield from report_lines(report, traces, catalog, f"nan scores balanced/{rule}/eq5 c4.2xlarge at 1e200 seed={seed}")


def battery_lines():
    catalog = build_catalog()
    for key, cell in run_battery(catalog, study_params()).items():
        scale = key[1] if key[0] == "scale" else 1.0
        for report in cell["reports"]:
            traces = traces_for(report.seed, scale)
            label = f"battery {'/'.join(map(str, key))} seed={report.seed}"
            yield from report_lines(report, traces, catalog, label)


def on_cap(traces, catalog, first: int, gap: int, width: int = 37) -> dict:
    """traces with the i-th VM, in id order, on its provider cap over
    [first + i * gap, first + i * gap + width)."""
    capped = {}
    for i, (vm, trace) in enumerate(sorted(traces.items())):
        a = first + i * gap
        cap = 10.0 * catalog[vm].on_demand_price
        points = dict(zip(trace.timestamps.tolist(), trace.prices.tolist()))
        points[a + width] = trace.price_at(a + width)
        points.update({t: cap for t in [*points, a] if a <= t < a + width})
        capped[vm] = PriceTrace(vm, [PricePoint(t, p) for t, p in sorted(points.items())])
    return capped


def cap_lines(seed: int, work_dir: Path):
    """Runs under treat_cap_as_revocation whose markets each sit on their
    cap for 37 s in turn, off the 60 s epoch grid, with max_price 1000
    above every cap, so that only the cap revokes: the `study` case's v1
    job at volatility 1.0 under each policy, and the `bsp` case under each
    of its policies, on each case's first trace seed. At both seeds a cap
    crossing revokes the held VM in most of these runs, the whole gang's
    in the bsp runs."""
    for name, first, gap in (("study", 611, 700), ("bsp", 413, 500)):
        workload = make_workload(name, seed, work_dir / name, small=True)
        workload.setup()
        params = replace(workload.run_params, treat_cap_as_revocation=True)
        for case in workload.cases():
            if name == "study" and (case.job.name, case.traces_key[1]) != ("v1", 1.0):
                continue
            traces = on_cap(workload.traces[case.traces_key], workload.catalog, first, gap)
            report = run_simulation(
                replace(case.job, max_price=1000.0), case.policy, traces, workload.catalog,
                COMPOSITION, params=params, seed=seed,
            )
            label = f"cap {name} seed={seed} {case.label}"
            yield from report_lines(report, traces, workload.catalog, label)


def synth_lines(seed: int):
    """The trace generate_market_suite makes of each spec of
    tests/test_synth.py's warmup cases, at its start and warmup."""
    for name, (spec, start, warmup) in WARMUP_CASES.items():
        [trace] = generate_market_suite([spec], seed=seed, start=start, warmup=warmup).values()
        yield f"{sha(trace.timestamps.tobytes() + trace.prices.tobytes())}  synth {name} seed={seed}"


def error_text(call, *args, **kwargs) -> str:
    try:
        call(*args, **kwargs)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "no error"


def window_gap_lines():
    """The error of a run under each policy and index reference whose index
    has a gap, every member on its cap over [1300, 1360), which its
    decision ticks, 300 s apart, step over. Under "window", the trailing
    window of tick 1500, [1330, 1500), crosses the gap, so the market mask
    raises IndexCurve.integrate's GapError at 1330; under "instant", the
    run ends in billing's GapError at 1300. max_price 1000 keeps a capped
    VM held."""
    catalog = build_catalog()
    traces = {}
    for vm, trace in traces_for(3).items():
        cap = 10.0 * catalog[vm].on_demand_price
        points = dict(zip(trace.timestamps.tolist(), trace.prices.tolist()))
        points[1360] = trace.price_at(1360)
        points.update({t: cap for t in [*points, 1300] if 1300 <= t < 1360})
        traces[vm] = PriceTrace(vm, [PricePoint(t, p) for t, p in sorted(points.items())])
    job = replace(VARIANTS["v1"], name="gap", max_price=1000.0)
    for reference in ("window", "instant"):
        params = replace(study_params(), epoch=300, sigma_window=170, index_reference=reference)
        for name in sorted(POLICIES):
            text = error_text(run_simulation, job, name, traces, catalog, COMPOSITION, params)
            yield f"{sha(text)}  error window gap {name} {reference}"


def ingest_error_lines(work_dir: Path):
    """The error ingest_traces gives for a block of 1,024 canonical lines,
    or of CSV rows with strict ISO timestamps, whose columns each hold one
    type, where the last line's value fails the column's check."""
    lines = [f'{{"price": {1.0 + k / 8!r}, "timestamp": {60 * k}, "vm_id": "m4.large"}}' for k in range(1024)]
    faults = {
        "timestamp past int64": ("jsonl", lines[:-1] + [lines[-1].replace("61380", str(2**63))]),
        "price 1e999": ("jsonl", lines[:-1] + [lines[-1].replace("128.875", "1e999")]),
        "empty vm id": ("jsonl", lines[:-1] + [lines[-1].replace('"m4.large"', '""')]),
        "ISO Feb 30": (
            "csv",
            ["timestamp,vm_id,price"]
            + [f"2017-01-01T{k // 60:02d}:{k % 60:02d}:00Z,m4.large,{1.0 + k / 8!r}" for k in range(1023)]
            + ["2017-02-30T00:00:00Z,m4.large,1.5"],
        ),
    }
    work_dir.mkdir()
    for name, (suffix, text) in faults.items():
        path = work_dir / f"raw.{suffix}"
        path.write_text("".join(line + "\n" for line in text))
        message = error_text(ingest_traces, [path], build_catalog()).replace(str(work_dir), "<work>")
        yield f"{sha(message)}  error ingest {name} at a block's last line"


def error_lines():
    # every market at 1e200 under a max_price above it: every balanced
    # score is NaN
    traces = {vm: PriceTrace(vm, [PricePoint(0, 1e200)]) for vm in COMPOSITION}
    job = replace(VARIANTS["v1"], max_price=1e300)
    with np.errstate(all="ignore"):
        text = error_text(run_simulation, job, "balanced", traces, build_catalog(), COMPOSITION, study_params())
    yield f"{sha(text)}  error balanced scores NaN"
    spec, start, warmup = WARMUP_PAST_INT64
    text = error_text(generate_market_suite, [spec], start=start, warmup=warmup)
    yield f"{sha(text)}  error synth warmup past int64"
    # a candidate whose floored utilization's cpu * mem underflows to 0.0
    tiny = replace(CATALOG["r4.xlarge"], id="tiny", cpu_capacity=5e-324)
    traces = {vm: PriceTrace(vm, [PricePoint(0, 6.0)]) for vm in [*COMPOSITION, "tiny"]}
    job = JobSpec(name="tiny", phases=(Phase(600, 5e-324, 0.01),), mem_footprint=4.0)
    for name in sorted(POLICIES):
        text = error_text(run_simulation, job, name, traces, Catalog([*CATALOG, tiny]), COMPOSITION, study_params())
        yield f"{sha(text)}  error floored utilization underflows {name}"
    traces, report = located_run()
    for n, (kind, key, value) in enumerate(MALFORMED_EVENTS):
        edited, _ = edit_event(report, kind, key, value)
        for reader in BOTH_READERS:
            yield f"{sha(error_text(reader, edited, traces, CATALOG))}  error event case {n} {reader.__name__}"
    for (key, value, _, readers), name in zip(REPORT_KEY_CASES, REPORT_KEY_IDS):
        edited = {k: v for k, v in report.items() if k != key}
        if value is not ...:
            edited[key] = value
        for reader in readers:
            yield f"{sha(error_text(reader, edited, traces, CATALOG))}  error report {name} {reader.__name__}"


def output_lines():
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for name in ("study", "week", "bsp"):
                yield from simulator_lines(name, seed, Path(tmp) / name)
            yield from reversed_lines(seed, Path(tmp) / "reversed")
            yield from traces_lines(seed, Path(tmp) / "traces")
            yield from traces_lines(seed, Path(tmp) / "traces", "reordered")
            yield from traces_lines(seed, Path(tmp) / "traces", "mixed")
            yield from multi_task_lines(seed)
            yield from multi_phase_lines(seed)
            yield from moving_eq5_lines(seed)
            yield from nan_score_lines(seed)
            yield from cap_lines(seed, Path(tmp) / "cap")
            yield from ask_lines(seed, Path(tmp) / "ask")
            yield from synth_lines(seed)
    yield from battery_lines()
    yield from moving_lines()
    yield from error_lines()
    with tempfile.TemporaryDirectory() as tmp:
        yield from ingest_error_lines(Path(tmp) / "ingest")
    yield from window_gap_lines()


# labels whose hash the one-second reference engine changes, by a known
# fault of the default engine, and the fault
PER_SECOND_FAULTS = {
    "error balanced scores NaN": (
        "at t=0 every window is empty, where simulator._window_moments gives a 1e200 "
        "price the std sqrt(inf - inf), NaN, and window_stats 0.0: the engine's balanced "
        "select raises on NaN scores, and the reference's runs to the end"
    ),
}


def use_per_second_engine():
    """Send every run below through run_per_second: the bench workloads
    look run_simulation up on the simulator module, the battery on
    test_acceptance, and the rest of this script on its own globals."""
    for namespace in (vars(simulator), vars(test_acceptance), globals()):
        namespace["run_simulation"] = run_per_second


def by_label(lines) -> dict:
    """Each line keyed by its label, the text after its hash."""
    return {line.partition("  ")[2]: line for line in lines}


def main(argv):
    faults = {}
    if argv[:1] == ["--per-second"]:
        use_per_second_engine()
        faults = PER_SECOND_FAULTS
        argv = argv[1:]
    if not argv:
        for line in output_lines():
            print(line)
        return 0
    if len(argv) > 1:
        raise SystemExit("usage: output_hashes.py [--per-second] [OLD.txt]")
    [old_path] = argv
    old = by_label(Path(old_path).read_text().splitlines())
    new = by_label(output_lines())
    fixed = 0
    for label, fault in faults.items():
        if label in old and label in new:
            equal = old.pop(label) == new.pop(label)
            fixed += equal
            print(f"known fault, {'now equal' if equal else 'changed'}: {label}: {fault}")
    changed = sum(label in new and new[label] != line for label, line in old.items())
    missing = sum(label not in new for label in old)
    print(
        f"against {old_path}: {len(old) - changed - missing} labels equal, {changed} changed, "
        f"{missing} missing, {len(new.keys() - old.keys())} new"
    )
    first = next((label for label, line in old.items() if new.get(label) != line), None)
    if first is None:
        return int(fixed > 0)
    print(f"first changed or missing label: {first}\n  old: {old[first]}\n  new: {new.get(first)}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
