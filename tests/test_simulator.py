import json
import math

import pytest

from spotindex import (
    GapError,
    JobSpec,
    MigrationModel,
    Phase,
    POLICIES,
    Policy,
    PolicyDecision,
    PricePoint,
    PriceTrace,
    ResourceRequirement,
    RunParams,
    Scope,
    SelectionError,
    SimReport,
    SimulationError,
    aggregate_reports,
    ledger_from_report,
    normalize_report,
    on_demand_baseline,
    replay,
    run_simulation,
    run_trials,
)
from spotindex.simulator import MAX_TASKS, interval_cost, window_stats

from conftest import COMPOSITION, build_catalog, study_params, traces_for
from reference_engine import run_per_second

CATALOG = build_catalog()


def flat_traces(price=6.0):
    return {vm: PriceTrace(vm, [PricePoint(0, price)]) for vm in COMPOSITION}


def one_phase_job(**kw):
    fields = dict(
        name="unit",
        phases=(Phase(600, 4.0, 16.0),),
        mem_footprint=30.0,
    )
    fields.update(kw)
    return JobSpec(**fields)


def unit_params(**kw):
    fields = dict(
        epoch=60,
        horizon=60,
        sigma_window=600,
        migration=MigrationModel(rate=1.0, revocation_restart=90),
    )
    fields.update(kw)
    return RunParams(**fields)


def test_job_spec_defaults_and_round_trip():
    job = JobSpec(name="j", phases=(Phase(100, 2.0, 8.0), Phase(50, 4.0, 16.0)))
    assert job.requirement == ResourceRequirement(4.0, 16.0)
    assert job.total_work == 150
    assert job.phase_at(0).cpu == 2.0
    assert job.phase_at(99).cpu == 2.0
    assert job.phase_at(100).cpu == 4.0
    assert job.phase_at(10_000).cpu == 4.0
    assert job.phase_boundaries() == [0, 100, 150]
    assert JobSpec.from_dict(job.to_dict()) == job

    explicit = JobSpec(
        name="j2",
        kind="bsp",
        tasks=3,
        phases=(Phase(100, 2.0, 8.0),),
        requirement=ResourceRequirement(8.0, 32.0),
        max_price=12.5,
        reference_capacity=(8, 32),
    )
    assert explicit.requirement.min_cpu == 8.0
    assert explicit.reference_capacity == (8.0, 32.0)
    assert JobSpec.from_dict(explicit.to_dict()) == explicit


def test_job_spec_validation():
    with pytest.raises(ValueError):
        JobSpec(name="", phases=(Phase(10, 1.0, 1.0),))
    with pytest.raises(ValueError):
        JobSpec(name="j", phases=())
    with pytest.raises(ValueError):
        JobSpec(name="j", phases=(Phase(10, 1.0, 1.0),), kind="gang")
    with pytest.raises(ValueError):
        JobSpec(name="j", phases=(Phase(10, 1.0, 1.0),), tasks=0)
    # the engine builds one task per task: a huge count would exhaust memory
    with pytest.raises(ValueError, match=f"^tasks must be at most {MAX_TASKS}, got {MAX_TASKS + 1}$"):
        JobSpec(name="j", phases=(Phase(10, 1.0, 1.0),), tasks=MAX_TASKS + 1)
    assert JobSpec(name="j", phases=(Phase(10, 1.0, 1.0),), tasks=MAX_TASKS).tasks == MAX_TASKS
    with pytest.raises(ValueError):
        JobSpec(name="j", phases=(Phase(10, 1.0, 1.0),), mem_footprint=0.0)
    with pytest.raises(ValueError):
        JobSpec(name="j", phases=(Phase(10, 1.0, 1.0),), max_price=-1.0)
    with pytest.raises(ValueError):
        Phase(0, 1.0, 1.0)


def test_migration_model_seconds():
    model = MigrationModel(rate=1.0, fixed_floor=0.0)
    assert model.seconds(30.0) == 30
    assert model.seconds(30.5) == 31
    assert MigrationModel(rate=0.5, fixed_floor=20.0).seconds(30.0) == 20
    assert MigrationModel(rate=2.0, fixed_floor=10.0).seconds(30.0) == 60
    assert MigrationModel(rate=0.0, fixed_floor=4.0).seconds(999.0) == 4
    with pytest.raises(ValueError):
        MigrationModel(rate=-1.0)


# stands for a key left out of the job dict
ABSENT = object()


@pytest.mark.parametrize(
    "key, value",
    [
        ("phases", [[600.5, 4, 16]]),
        ("phases", [[600, True, 16]]),
        ("tasks", 2.5),
        ("tasks", True),
        ("mem_footprint", "4"),
        ("reference_capacity", [8, True]),
        ("name", ["a"]),
        ("name", 5),
        ("kind", 5),
        ("name", ABSENT),
        ("phases", ABSENT),
    ],
)
def test_job_from_dict_rejects_values_a_cast_would_change(key, value):
    raw = one_phase_job().to_dict()
    raw[key] = value
    if value is ABSENT:
        del raw[key]
    with pytest.raises(ValueError, match=f"^{key} must be"):
        JobSpec.from_dict(raw)


def one_phase(**fields):
    return JobSpec(name="j", phases=(Phase(10, 1.0, 1.0),), **fields)


# each numeric field of Phase, JobSpec and MigrationModel, by the name its
# error gives, and a constructor that sets it to a value
NUMERIC_FIELDS = {
    "phase duration": lambda v: Phase(v, 1.0, 1.0),
    "phase cpu": lambda v: Phase(10, v, 1.0),
    "phase mem": lambda v: Phase(10, 1.0, v),
    "tasks": lambda v: one_phase(tasks=v),
    "mem_footprint": lambda v: one_phase(mem_footprint=v),
    "max_price": lambda v: one_phase(max_price=v),
    "reference_capacity cpu": lambda v: one_phase(reference_capacity=(v, 1.0)),
    "reference_capacity mem": lambda v: one_phase(reference_capacity=(1.0, v)),
    "migration rate": lambda v: MigrationModel(rate=v),
    "migration fixed_floor": lambda v: MigrationModel(fixed_floor=v),
    "migration revocation_restart": lambda v: MigrationModel(revocation_restart=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", list(NUMERIC_FIELDS))
def test_non_finite_numbers_are_rejected_naming_the_field(field, value):
    # NaN passes a `<= 0` check, and an infinity overflows int() later on
    with pytest.raises(ValueError, match=f"^{field} must be finite and >=? [01], got -?(nan|inf)$"):
        NUMERIC_FIELDS[field](value)
    NUMERIC_FIELDS[field](1)


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"requirement": [4]}, "requirement must be a list of two numbers, got [4]"),
        ({"reference_capacity": 8}, "reference_capacity must be a list of two numbers, got 8"),
        ({"phases": 5}, "phases must be a list of [seconds, cpu, mem] lists, got 5"),
        ({"phases": [{"seconds": 600}]}, "phases[0] must be a [seconds, cpu, mem] list, got {'seconds': 600}"),
        ({"phases": [[600, 4, 16], "abc"]}, "phases[1] must be a [seconds, cpu, mem] list, got 'abc'"),
        ([1], "job spec must be a JSON object, got [1]"),
    ],
)
def test_job_from_dict_names_the_key_of_a_malformed_shape(raw, message):
    if isinstance(raw, dict):
        raw = {**one_phase_job().to_dict(), **raw}
    with pytest.raises(ValueError) as err:
        JobSpec.from_dict(raw)
    assert str(err.value) == message


def test_job_from_dict_takes_whole_floats_for_integers():
    raw = one_phase_job().to_dict()
    raw.update(phases=[[600.0, 4, 16]], tasks=2.0)
    job = JobSpec.from_dict(raw)
    assert job == one_phase_job(tasks=2)
    assert type(job.phases[0].duration) is int and type(job.tasks) is int


def test_run_params_validation():
    with pytest.raises(ValueError):
        RunParams(epoch=0)
    with pytest.raises(ValueError):
        RunParams(index_reference="yesterday")
    with pytest.raises(ValueError):
        RunParams(bsp_superstep=0)
    # no run can meet a limit below one second, and 0 must not read as
    # "no limit given"
    for limit in (0, -5, 0.0, float("nan")):
        with pytest.raises(ValueError, match="max_wallclock must be finite and > 0"):
            RunParams(max_wallclock=limit)
    # NaN passes a `<= 0` check
    for field in ("epoch", "horizon", "sigma_window", "bsp_superstep", "max_wallclock"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{field} must be finite and > 0, got -?(nan|inf)$"):
                RunParams(**{field: value})


def test_interval_cost_value():
    trace = PriceTrace("x", [PricePoint(0, 3.6)])
    assert interval_cost(trace, 0, 100) == pytest.approx(0.1, rel=1e-15)
    stepped = PriceTrace("x", [PricePoint(0, 3.6), PricePoint(50, 7.2)])
    assert interval_cost(stepped, 0, 100) == pytest.approx(0.15, rel=1e-15)


def test_window_stats():
    trace = PriceTrace("x", [PricePoint(0, 2.0), PricePoint(100, 4.0)])
    mean, std = window_stats(trace, 200, 200)
    assert mean == pytest.approx(3.0)
    assert std == pytest.approx(1.0)
    assert window_stats(trace, 0, 100) == (2.0, 0.0)
    mean, std = window_stats(trace, 50, 600)
    assert (mean, std) == (2.0, 0.0)


def test_flat_hold_run():
    report = run_simulation(
        one_phase_job(), "static", flat_traces(), CATALOG, COMPOSITION,
        params=unit_params(),
    )
    assert report.total_cost == pytest.approx(1.0, rel=1e-12)
    assert report.availability == 1.0
    assert report.downtime_seconds == 0
    assert report.wallclock_seconds == 600
    assert report.migrations == 0 and report.revocations == 0
    # equal flat prices tie-break to the lexicographically first candidate
    assert report.final_vms == ["c4.2xlarge"]
    assert report.candidates == ["c4.2xlarge", "m4.2xlarge", "r4.xlarge"]
    kinds = [e["event"] for e in report.events]
    assert kinds.count("acquire") == 1
    assert kinds.count("finish") == 1
    assert report.params["max_price"] == 26.6
    assert report.finish_times == [600]


def test_forced_migration_accounting():
    report = run_simulation(
        one_phase_job(), "static", flat_traces(), CATALOG, COMPOSITION,
        params=unit_params(),
        forced_migrations=[(300, 0, "r4.xlarge")],
    )
    # 30s stall: source and destination both billed during the copy
    assert report.total_cost == pytest.approx(1.1, rel=1e-12)
    assert report.productive_cost == pytest.approx(1.0, rel=1e-12)
    assert report.loss == pytest.approx(0.1, rel=1e-12)
    assert report.downtime_seconds == 30
    assert report.wallclock_seconds == 630
    assert report.migrations == 1
    assert report.final_vms == ["r4.xlarge"]
    migrate = [e for e in report.events if e["event"] == "migrate"][0]
    assert migrate["forced"] is True
    assert migrate["loss"] == pytest.approx(0.1, rel=1e-12)
    assert migrate["src"] == "c4.2xlarge" and migrate["dst"] == "r4.xlarge"


def test_forced_migration_validation():
    with pytest.raises(SimulationError):
        run_simulation(
            one_phase_job(), "static", flat_traces(), CATALOG, COMPOSITION,
            params=unit_params(),
            forced_migrations=[(300, 0, "m4.large")],  # fails the requirement
        )


def test_forced_migration_negative_time_rejected():
    # a negative time used to leave every later scripted move unvisited
    with pytest.raises(SimulationError, match="negative time"):
        run_simulation(
            one_phase_job(), "static", flat_traces(), CATALOG, COMPOSITION,
            params=unit_params(),
            forced_migrations=[(-5, 0, "r4.xlarge"), (300, 0, "r4.xlarge")],
        )


@pytest.mark.parametrize("runner", [run_simulation, run_per_second])
def test_forced_migration_target_checked_up_front(runner):
    # the move is scripted long after the 600 s job ends, so only a check
    # made before the run starts can see its target
    with pytest.raises(SimulationError, match="target 'nope' not a candidate"):
        runner(
            one_phase_job(), "static", flat_traces(), CATALOG, COMPOSITION,
            params=unit_params(),
            forced_migrations=[(10**6, 0, "nope")],
        )


@pytest.mark.parametrize("runner", [run_simulation, run_per_second])
@pytest.mark.parametrize("tasks", [1, 2])
def test_forced_migration_the_run_never_reaches_is_rejected(runner, tasks):
    # every task of the 600 s job is done at t=600, before the scripted move
    with pytest.raises(
        SimulationError,
        match=r"^forced migration \(900, 0, 'r4.xlarge'\) is never reached: the run ends at t=600$",
    ):
        runner(
            one_phase_job(tasks=tasks), "static", flat_traces(), CATALOG, COMPOSITION,
            params=unit_params(),
            forced_migrations=[(900, 0, "r4.xlarge"), (1200, 0, "m4.2xlarge")],
        )


@pytest.mark.parametrize("idx", [1, -1])
def test_forced_migration_task_out_of_range_rejected(idx):
    with pytest.raises(SimulationError, match=f"names task {idx}"):
        run_simulation(
            one_phase_job(), "static", flat_traces(), CATALOG, COMPOSITION,
            params=unit_params(),
            forced_migrations=[(300, idx, "r4.xlarge")],
        )


def test_revocation_rolls_back_to_phase_boundary():
    traces = flat_traces()
    traces["c4.2xlarge"] = PriceTrace(
        "c4.2xlarge", [PricePoint(0, 6.0), PricePoint(300, 30.0)]
    )
    report = run_simulation(
        one_phase_job(), "static", traces, CATALOG, COMPOSITION, params=unit_params()
    )
    assert report.revocations == 1
    assert report.migrations == 0
    revoke = [e for e in report.events if e["event"] == "revoke"][0]
    assert revoke["t"] == 300
    assert revoke["vm"] == "c4.2xlarge"
    assert revoke["new_vm"] == "m4.2xlarge"
    assert revoke["work_lost"] == 300
    # 90s restart, then the whole 600s phase again
    assert report.wallclock_seconds == 990
    assert report.downtime_seconds == 90
    assert report.availability == pytest.approx(1.0 - 90.0 / 990.0, rel=1e-12)
    expected = 6.0 * (300 + 90 + 600) / 3600.0
    assert report.total_cost == pytest.approx(expected, rel=1e-12)


def test_destination_spike_aborts_migration():
    traces = flat_traces()
    traces["r4.xlarge"] = PriceTrace(
        "r4.xlarge", [PricePoint(0, 6.0), PricePoint(310, 30.0)]
    )
    report = run_simulation(
        one_phase_job(), "static", traces, CATALOG, COMPOSITION,
        params=unit_params(),
        forced_migrations=[(300, 0, "r4.xlarge")],
    )
    assert report.aborted_migrations == 1
    assert report.migrations == 0
    assert report.revocations == 0
    assert report.final_vms == ["c4.2xlarge"]
    assert report.downtime_seconds == 10
    assert report.wallclock_seconds == 610
    abort = [e for e in report.events if e["event"] == "abort_migration"][0]
    assert abort["cause"] == "dst_price"


def test_source_spike_mid_migration_revokes():
    traces = flat_traces()
    traces["c4.2xlarge"] = PriceTrace(
        "c4.2xlarge", [PricePoint(0, 6.0), PricePoint(310, 30.0)]
    )
    report = run_simulation(
        one_phase_job(), "static", traces, CATALOG, COMPOSITION,
        params=unit_params(),
        forced_migrations=[(300, 0, "r4.xlarge")],
    )
    assert report.aborted_migrations == 1
    assert report.revocations == 1
    assert report.migrations == 0
    abort = [e for e in report.events if e["event"] == "abort_migration"][0]
    assert abort["cause"] == "src_price"
    revoke = [e for e in report.events if e["event"] == "revoke"][0]
    assert revoke["t"] == 310
    assert revoke["work_lost"] == 300


def test_cap_as_revocation_flag():
    traces = flat_traces()
    cap_price = 10.0 * CATALOG["c4.2xlarge"].on_demand_price
    traces["c4.2xlarge"] = PriceTrace(
        "c4.2xlarge", [PricePoint(0, 6.0), PricePoint(300, cap_price)]
    )
    job = one_phase_job(max_price=cap_price * 2)
    lenient = run_simulation(
        job, "static", traces, CATALOG, COMPOSITION, params=unit_params()
    )
    assert lenient.revocations == 0
    strict = run_simulation(
        job, "static", traces, CATALOG, COMPOSITION,
        params=unit_params(treat_cap_as_revocation=True),
    )
    assert strict.revocations == 1


def test_bsp_peer_stall():
    job = one_phase_job(kind="bsp", tasks=2)
    report = run_simulation(
        job, "static", flat_traces(), CATALOG, COMPOSITION,
        params=unit_params(),
        forced_migrations=[(300, 0, "r4.xlarge")],
    )
    # the non-migrating task pauses too, so both finish together
    assert report.finish_times == [630, 630]
    assert report.downtime_seconds == 30
    # peer billed but unproductive during the stall
    peer_idle = [
        e
        for e in report.events
        if e["event"] == "hold" and e["task"] == 1 and not e["working"]
    ]
    assert sum(e["t1"] - e["t0"] for e in peer_idle) == 30


def test_all_candidates_priced_out():
    job = one_phase_job(max_price=1.0)
    with pytest.raises(SimulationError):
        run_simulation(
            job, "static", flat_traces(6.0), CATALOG, COMPOSITION, params=unit_params()
        )


class Refusing(Policy):
    """Starts on the first candidate; raises SelectionError from `refuses`."""

    name = "refusing"

    def __init__(self, refuses):
        self.refuses = refuses

    def select(self, ctx):
        if self.refuses == "select":
            raise SelectionError("no pick")
        return ctx.candidates[0].spec.id

    def decide(self, ctx):
        raise SelectionError("no pick")


@pytest.mark.parametrize("runner", [run_simulation, run_per_second])
@pytest.mark.parametrize("refuses, t", [("select", 0), ("decide", 60)])
def test_policy_selection_error_names_time_and_task(runner, refuses, t):
    with pytest.raises(SimulationError, match=rf"at t={t} for task 0: no pick$"):
        runner(
            one_phase_job(), Refusing(refuses), flat_traces(), CATALOG, COMPOSITION,
            params=unit_params(),
        )


class Choosing(Policy):
    """`select` answers `pick` when `asked` is "select", else the first
    candidate; `decide` always moves to `pick`."""

    name = "choosing"

    def __init__(self, asked, pick):
        self.asked = asked
        self.pick = pick

    def select(self, ctx):
        return self.pick if self.asked == "select" else ctx.candidates[0].spec.id

    def decide(self, ctx):
        return PolicyDecision(PolicyDecision.MIGRATE, self.pick, reason="told")


@pytest.mark.parametrize("runner", [run_simulation, run_per_second])
@pytest.mark.parametrize(
    "asked, pick, t",
    [
        ("select", "nope", 0),  # no such VM
        ("select", "m4.large", 0),  # below the job's (4, 16) requirement
        ("select", "r4.xlarge", 0),  # above max_price
        ("decide", "nope", 60),
        ("decide", "r4.xlarge", 60),
    ],
)
def test_policy_pick_outside_its_candidates_is_rejected(runner, asked, pick, t):
    traces = flat_traces()
    traces["r4.xlarge"] = PriceTrace("r4.xlarge", [PricePoint(0, 30.0)])
    with pytest.raises(
        SimulationError,
        match=rf"policy chose '{pick}' at t={t} for task 0, which is not among its candidates",
    ):
        runner(
            one_phase_job(), Choosing(asked, pick), traces, CATALOG, COMPOSITION,
            params=unit_params(),
        )


# (shocked vm, max_price) -> policy -> (migrations, revocations,
# cost/index, availability)
SHOCK_OUTCOMES = {
    ("m4.2xlarge", None): {
        "static": (0, 0, 1.275055089585943, 1.0),
        "cost": (0, 0, 1.275055089585943, 1.0),
        "avail": (0, 1, 1.5404874294733104, 0.9815950920245399),
        "balanced": (0, 0, 1.275055089585943, 1.0),
    },
    ("m4.2xlarge", 100.0): {
        "static": (0, 0, 1.275055089585943, 1.0),
        "cost": (0, 0, 1.275055089585943, 1.0),
        "avail": (1, 0, 1.777648608665368, 0.9988901220865705),
        "balanced": (0, 0, 1.275055089585943, 1.0),
    },
    ("m4.large", None): {
        "static": (0, 1, 1.6505860348299481, 0.9815950920245399),
        "cost": (0, 1, 1.6505860348299481, 0.9815950920245399),
        "avail": (0, 0, 1.9571864545745432, 1.0),
        "balanced": (0, 1, 1.6505860348299481, 0.9815950920245399),
    },
    ("m4.large", 100.0): {
        "static": (0, 0, 2.4395406655578866, 1.0),
        "cost": (1, 0, 1.6457361734796494, 0.9988901220865705),
        "avail": (0, 0, 1.9571864545745432, 1.0),
        "balanced": (0, 0, 2.4395406655578866, 1.0),
    },
}


@pytest.mark.parametrize("shocked, max_price", list(SHOCK_OUTCOMES))
def test_price_shock_outcomes(shocked, max_price):
    """One general-purpose market's price triples from t=1200 on. Pins what
    each policy does, on both engines. `avail` starts on m4.2xlarge: once
    the shock leaves no candidate below the index it falls back to the
    calmest candidate, by revocation under the default max_price and by
    migration under max_price 100. `balanced` holds the shocked m4.large at
    static's cost while `cost` moves off it: the Eq. 5 gate never passes
    for a source priced above the index."""
    traces = traces_for(3)
    before = traces[shocked]
    traces[shocked] = PriceTrace(
        shocked,
        [
            PricePoint(t, 3 * p if t >= 1200 else p)
            for t, p in zip(before.timestamps.tolist(), before.prices.tolist())
        ],
    )
    job = JobSpec(name="shock", phases=(Phase(3600, 2.0, 8.0),), max_price=max_price)
    scope = Scope(family="general")
    baseline = on_demand_baseline(job, CATALOG, scope)
    for name, expected in SHOCK_OUTCOMES[shocked, max_price].items():
        report = run_simulation(
            job, name, traces, CATALOG, COMPOSITION, params=study_params(), scope=scope
        )
        reference = run_per_second(
            job, name, traces, CATALOG, COMPOSITION, params=study_params(), scope=scope
        )
        assert reference.to_dict() == report.to_dict(), name
        normalize_report(report, baseline)
        outcome = (
            report.migrations,
            report.revocations,
            report.cost_vs_index,
            report.availability,
        )
        assert outcome == pytest.approx(expected, rel=1e-12), name


def test_missing_candidate_trace():
    traces = flat_traces()
    del traces["r4.xlarge"]
    # candidate without a trace, with the composition still covered
    with pytest.raises(SimulationError) as err:
        run_simulation(
            one_phase_job(), "static", traces, CATALOG, ["m4.large"],
            params=unit_params(),
        )
    assert "r4.xlarge" in str(err.value)
    # composition member without a trace is an index gap
    with pytest.raises(GapError):
        run_simulation(
            one_phase_job(), "static", traces, CATALOG, COMPOSITION,
            params=unit_params(),
        )


def test_replay_is_bitwise_and_survives_json():
    traces = flat_traces()
    traces["c4.2xlarge"] = PriceTrace(
        "c4.2xlarge", [PricePoint(0, 5.0), PricePoint(200, 7.0), PricePoint(400, 30.0)]
    )
    report = run_simulation(
        one_phase_job(), "cost", traces, CATALOG, COMPOSITION, params=unit_params()
    )
    direct = replay(report, traces, CATALOG)
    assert direct["total_cost"] == report.total_cost
    assert direct["net"] == report.net
    round_tripped = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    again = replay(round_tripped, traces, CATALOG)
    # the log alone gives back the run's shape as well as its money
    assert {
        "finish_times",
        "wallclock_seconds",
        "final_vms",
        "migrations",
        "aborted_migrations",
        "revocations",
        "downtime_seconds",
        "availability",
    } <= again.keys()
    for key, value in again.items():
        assert value == getattr(report, key), key
    assert SimReport.from_dict(round_tripped).total_cost == report.total_cost


def test_replay_names_a_task_the_log_never_finishes():
    traces = flat_traces()
    report = run_simulation(
        one_phase_job(kind="bsp", tasks=2), "static", traces, CATALOG, COMPOSITION,
        params=unit_params(),
    )
    events = report.to_dict()["events"]
    edited = [e for e in events if e != {"event": "finish", "t": 600, "task": 1}]
    truncated = events[: events.index({"event": "finish", "t": 600, "task": 0})]
    for log, task in ((edited, 1), (truncated, 0)):
        assert len(log) < len(events)
        with pytest.raises(SimulationError, match=f"^event log has no finish event for task {task}$"):
            replay({**report.to_dict(), "events": log}, traces, CATALOG)


def test_net_equals_index_cost_minus_total_cost():
    report = run_simulation(
        one_phase_job(), "static", flat_traces(), CATALOG, COMPOSITION,
        params=unit_params(),
        forced_migrations=[(300, 0, "r4.xlarge")],
    )
    assert report.net == pytest.approx(
        report.index_cost_held - report.total_cost, abs=1e-12
    )
    ledger = ledger_from_report(report, flat_traces(), CATALOG)
    assert ledger.total_gain == pytest.approx(report.gain, abs=1e-12)
    assert ledger.total_loss == pytest.approx(report.loss, abs=1e-12)


def test_on_demand_baseline_and_normalize():
    job = one_phase_job()
    baseline = on_demand_baseline(job, CATALOG)
    assert baseline == pytest.approx(26.6 * 600 / 3600.0, rel=1e-12)
    report = run_simulation(
        job, "static", flat_traces(), CATALOG, COMPOSITION, params=unit_params()
    )
    assert report.cost_vs_on_demand is None
    normalize_report(report, baseline)
    assert report.cost_vs_on_demand == pytest.approx(report.total_cost / baseline)
    assert report.cost_vs_index == pytest.approx(
        report.total_cost / report.index_cost_reference
    )
    with pytest.raises(ValueError):
        normalize_report(report, 0.0)


def test_monotone_harm_on_constant_equal_prices():
    # with every candidate at the same flat price, a forced move can only
    # add cost and downtime
    base = run_simulation(
        one_phase_job(), "static", flat_traces(), CATALOG, COMPOSITION,
        params=unit_params(),
    )
    for t in (60, 240, 480):
        moved = run_simulation(
            one_phase_job(), "static", flat_traces(), CATALOG, COMPOSITION,
            params=unit_params(),
            forced_migrations=[(t, 0, "r4.xlarge")],
        )
        assert moved.total_cost >= base.total_cost
        assert moved.availability <= base.availability


def test_deterministic_reports():
    kwargs = dict(params=unit_params(), forced_migrations=[(120, 0, "m4.2xlarge")])
    a = run_simulation(
        one_phase_job(), "cost", flat_traces(), CATALOG, COMPOSITION, **kwargs
    )
    b = run_simulation(
        one_phase_job(), "cost", flat_traces(), CATALOG, COMPOSITION, **kwargs
    )
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )


def test_run_trials_and_aggregate():
    trace_sets = [flat_traces(p) for p in (4.0, 6.0, 8.0)]
    result = run_trials(
        one_phase_job(), "static", trace_sets, CATALOG, COMPOSITION,
        params=unit_params(), seeds=[0, 1, 2],
    )
    assert len(result["trials"]) == 3
    assert result["total_cost"]["min"] == pytest.approx(4.0 * 600 / 3600)
    assert result["total_cost"]["max"] == pytest.approx(8.0 * 600 / 3600)
    assert result["total_cost"]["mean"] == pytest.approx(1.0)
    assert result["availability"]["mean"] == 1.0
    assert [r.seed for r in result["trials"]] == [0, 1, 2]

    summary = aggregate_reports(result["trials"])
    assert summary["n_runs"] == 3
    assert summary["total_cost"]["mean"] == pytest.approx(1.0)
    assert summary["policy"] == ["static"]

    with pytest.raises(ValueError):
        run_trials(
            one_phase_job(), "static", trace_sets, CATALOG, COMPOSITION,
            params=unit_params(), seeds=[0],
        )
    with pytest.raises(ValueError):
        run_trials(one_phase_job(), "static", [], CATALOG, COMPOSITION)


def test_run_trials_wraps_errors_with_trial_id():
    broken = flat_traces()
    del broken["m4.2xlarge"]
    with pytest.raises(SimulationError) as err:
        run_trials(
            one_phase_job(), "static", [flat_traces(), broken], CATALOG, COMPOSITION,
            params=unit_params(),
        )
    assert "trial 1" in str(err.value)
