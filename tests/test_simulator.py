import dataclasses
import functools
import gc
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spotindex import (
    AvailabilityAwarePolicy,
    CandidateView,
    Catalog,
    GapError,
    IndexCurve,
    InvariantError,
    JobSpec,
    MigrationModel,
    OutOfRangeError,
    Phase,
    POLICIES,
    Policy,
    PolicyContext,
    PolicyDecision,
    PricePoint,
    PriceTrace,
    ResourceRequirement,
    RunParams,
    Scope,
    SelectionError,
    SimReport,
    SimulationError,
    SpotIndexError,
    SynthMarketSpec,
    aggregate_reports,
    generate_market_suite,
    ledger_from_report,
    normalize_report,
    on_demand_baseline,
    replay,
    run_simulation,
    run_trials,
)
from spotindex import billing, index, policies, prices, simulator
from spotindex.billing import interval_cost
from spotindex.errors import exact
from spotindex.policies import ASK, STAY, BalancedPolicy, sharpe
from spotindex.prices import window_sums
from spotindex.simulator import MAX_TASKS, window_stats
from spotindex.tracking import should_migrate

from conftest import (
    BIG,
    COMPOSITION,
    HOSTILE,
    MARKET_ROWS,
    baseline_job,
    build_catalog,
    priced_over,
    study_params,
    traces_for,
)
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
    assert job.phase_ends == (100, 150)
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
# the key path an error names, where it is not the key itself
NAMED = {repr([[600.5, 4, 16]]): "phases[0] duration", repr([[600, True, 16]]): "phases[0] cpu"}


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
    named = NAMED.get(repr(value), key)
    with pytest.raises(ValueError, match=f"^{re.escape(named)} must be"):
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
        # each used to name "phase duration" and "phases" alone
        ({"phases": [[10**400, 4, 16]]}, f"phases[0] duration must be finite and > 0, got {10**400}"),
        ({"phases": [[600, 4, 16], [600, 10**400, 16]]}, f"phases[1] cpu must be float, got {10**400}"),
        ({"phases": []}, "phases must not be empty"),
        ({"requirement": [math.nan, 16]}, "requirement cpu must be finite and >= 0, got nan"),
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


# each int field of a dataclass, by its name in messages: a constructor
# that puts a value in it, and the field
INT_FIELDS = {
    "phase duration": (lambda v: Phase(v, 1.0, 1.0), "duration"),
    "tasks": (lambda v: one_phase_job(tasks=v), "tasks"),
    "migration revocation_restart": (lambda v: MigrationModel(revocation_restart=v), "revocation_restart"),
    "epoch": (lambda v: RunParams(epoch=v), "epoch"),
    "horizon": (lambda v: RunParams(horizon=v), "horizon"),
    "sigma_window": (lambda v: RunParams(sigma_window=v), "sigma_window"),
    "bsp_superstep": (lambda v: RunParams(bsp_superstep=v), "bsp_superstep"),
    "max_wallclock": (lambda v: RunParams(max_wallclock=v), "max_wallclock"),
}


@pytest.mark.parametrize("name", list(INT_FIELDS))
def test_int_fields_take_whole_numbers_only(name):
    # a fraction used to run and fail later: an epoch inside the market
    # block, a phase duration as a bad hold time in the log
    make, field = INT_FIELDS[name]
    with pytest.raises(InvariantError, match=f"^{name} must be int, got 2.5$"):
        make(2.5)
    value = getattr(make(2.0), field)
    assert value == 2 and type(value) is int


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


@pytest.mark.parametrize("value", ["no", 1, 0, None, np.True_])
def test_treat_cap_as_revocation_must_be_a_bool(value):
    # "no" ran with caps treated as revocations, and the report's params
    # echoed "no"
    with pytest.raises(InvariantError, match=f"^treat_cap_as_revocation must be bool, got {re.escape(repr(value))}$"):
        RunParams(treat_cap_as_revocation=value)
    assert RunParams(treat_cap_as_revocation=True).treat_cap_as_revocation is True


@pytest.mark.parametrize("value", [None, 90, {"rate": 1.0}])
def test_migration_must_be_a_migration_model(value):
    # None ended in a raw AttributeError where the run first priced a copy
    with pytest.raises(InvariantError, match=f"^migration must be a MigrationModel, got {re.escape(repr(value))}$"):
        RunParams(migration=value)


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


@pytest.mark.parametrize(
    "entry, message",
    [
        ((60.5, 0, "c4.2xlarge"), r"^forced migration \(60\.5, 0, 'c4\.2xlarge'\): t must be int, got 60\.5$"),
        (("60", 0, "c4.2xlarge"), r"^forced migration \('60', 0, 'c4\.2xlarge'\): t must be int, got '60'$"),
        ((60, True, "c4.2xlarge"), r"^forced migration \(60, True, 'c4\.2xlarge'\): task must be int, got True$"),
        ((60, 0), r"^forced migration \(60, 0\) is not a \(t, task, vm\) triple$"),
        ("60 0 x", r"^forced migration '60 0 x' is not a \(t, task, vm\) triple$"),
        ((60, 0, ["c4.2xlarge"]), r"^forced migration target \['c4\.2xlarge'\] not a candidate$"),
    ],
    ids=["fraction-t", "text-t", "bool-task", "two-items", "text", "list-target"],
)
def test_forced_migration_entry_is_checked(entry, message):
    # each of these ended in a raw TypeError or ValueError, or ran a bool
    # as task 0 or 1
    with pytest.raises(SimulationError, match=message):
        run_simulation(
            baseline_job(), "static", traces_for(0), CATALOG, COMPOSITION,
            params=study_params(), forced_migrations=[entry],
        )


@pytest.mark.parametrize(
    "forced, shown",
    [(5, "5"), ("abc", "'abc'"), ({(60, 0, "r4.xlarge"): 1}, "{(60, 0, 'r4.xlarge'): 1}")],
    ids=["int", "str", "dict"],
)
def test_forced_migrations_must_be_a_list_or_tuple(forced, shown):
    # an int ended in a raw TypeError, a str was read one character at a
    # time and a dict by its keys
    message = rf"^forced migrations must be a list or tuple of \(t, task, vm\) triples, got {re.escape(shown)}$"
    with pytest.raises(SimulationError, match=message):
        run_simulation(
            baseline_job(), "static", traces_for(0), CATALOG, COMPOSITION,
            params=study_params(), forced_migrations=forced,
        )


def test_forced_migration_at_a_whole_float_time_is_an_int():
    report = run_simulation(
        baseline_job(), "static", traces_for(0), CATALOG, COMPOSITION,
        params=study_params(), forced_migrations=[[60.0, 0.0, "r4.xlarge"]],
    )
    [migrate] = [event for event in report.events if event["event"] == "migrate"]
    assert (migrate["t"], migrate["task"]) == (60, 0)
    assert type(migrate["t"]) is int and type(migrate["task"]) is int


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
    candidate; `decide` always moves to `pick`, and when `asked` is "table"
    so do its decision tables, at every tick."""

    name = "choosing"

    def __init__(self, asked, pick):
        self.asked = asked
        self.pick = pick

    def select(self, ctx):
        return self.pick if self.asked == "select" else ctx.candidates[0].spec.id

    def decide(self, ctx):
        return PolicyDecision(PolicyDecision.MIGRATE, self.pick, reason="told")

    def decisions(self, block, current, cpu_used, mem_used):
        # imported here, not at the top: tests/output_hashes.py imports this
        # module on source trees older than decision tables too
        from spotindex.policies import DecisionTable

        if self.asked != "table":
            return super().decisions(block, current, cpu_used, mem_used)
        row = [spec.id for spec in block.specs].index(self.pick)
        return DecisionTable(np.full(len(block), row), lambda k: "told")


@pytest.mark.parametrize("runner", [run_simulation, run_per_second])
@pytest.mark.parametrize(
    "asked, pick, t",
    [
        ("select", "nope", 0),  # no such VM
        ("select", "m4.large", 0),  # below the job's (4, 16) requirement
        ("select", "r4.xlarge", 0),  # above max_price
        ("decide", "nope", 60),
        ("decide", "r4.xlarge", 60),
        # a decision table's move to a candidate over max_price
        ("table", "r4.xlarge", 60),
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


def test_policy_decision_table_of_the_wrong_shape_is_rejected():
    # a bare STAY would answer every tick of the table by broadcasting; a
    # row past the candidates names none, and a float is no row
    from spotindex.policies import STAY, DecisionTable

    class Answering(Choosing):
        def decisions(self, block, current, cpu_used, mem_used):
            return DecisionTable(self.answers, None)

    # the 600 s job's table holds 10 ticks of 60 s, over 3 candidates
    for answers in (np.int64(STAY), np.full(10, 3), np.full(10, -3), np.full(10, float(STAY))):
        policy = Answering("decide", "m4.2xlarge")
        policy.answers = answers
        with pytest.raises(
            SimulationError,
            match=r"^policy 'choosing' returned a decision table that is not 10 answers "
            r"from -2 to 2$",
        ):
            run_simulation(
                one_phase_job(), policy, flat_traces(), CATALOG, COMPOSITION, params=unit_params(),
            )


def test_a_table_row_where_the_market_is_undefined_ends_the_run_as_asking_there_does():
    # the index's one member, outside the candidates, sits on its cap over
    # [120, 180), so the market is undefined at the epoch tick 120 while the
    # held VM is still a candidate. decide's move to the held VM is none,
    # so both runs reach t=120, where a table that answers a row ends the
    # run in the domain error that asking decide there ends it in, before
    # billing, whose index integral would raise the same
    traces = flat_traces()
    traces["m4.large"] = PriceTrace("m4.large", [PricePoint(0, 6.0), PricePoint(120, 100.0), PricePoint(180, 6.0)])
    messages = []
    for asked in ("decide", "table"):
        with pytest.raises(GapError) as err, mock.patch.object(
            simulator, "compute_totals", side_effect=AssertionError("the run reached billing")
        ):
            run_simulation(
                one_phase_job(), Choosing(asked, "c4.2xlarge"), traces, CATALOG, ["m4.large"],
                params=unit_params(),
            )
        messages.append(str(err.value))
    assert messages == ["no effective composition members at 120"] * 2


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


def price_shock(shocked: str, max_price):
    """The job, traces and scope of a price-shock run: traces_for(3), with
    the price of market `shocked` tripled from t=1200 on."""
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
    return job, traces, Scope(family="general")


@pytest.mark.parametrize("shocked, max_price", list(SHOCK_OUTCOMES))
def test_price_shock_outcomes(shocked, max_price):
    """One general-purpose market's price triples from t=1200 on. Pins what
    each policy does, on both engines. `avail` starts on m4.2xlarge: once
    the shock leaves no candidate below the index it falls back to the
    calmest candidate, by revocation under the default max_price and by
    migration under max_price 100. `balanced` holds the shocked m4.large at
    static's cost while `cost` moves off it: the Eq. 5 gate never passes
    for a source priced above the index."""
    job, traces, scope = price_shock(shocked, max_price)
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


BOTH_READERS = (replay, ledger_from_report)
# the kinds of event the engine writes
KINDS = ("acquire", "hold", "migrate", "abort_migration", "revoke", "finish")

# (kind of the event edited, key, value); None stands for a missing key
MALFORMED_EVENTS = [
    ("hold", "vm", "zz"),
    ("hold", "t1", "x"),
    ("hold", "t0", None),
    ("hold", "task", 5),
    ("hold", "event", None),
    # a float or bool time used to bill as if it were a number of seconds
    ("hold", "t1", 299.5),
    ("hold", "t0", True),
    # a task out of range or a working flag that is not a bool used to
    # read silently, and working 0 billed the hold as a stall
    ("hold", "task", -1),
    ("hold", "working", 1),
    ("hold", "working", 0),
    # a float t used to replay as the wall-clock
    ("finish", "t", 600.5),
    ("finish", "t", True),
    ("finish", "t", None),
    ("finish", "task", 1),
    ("finish", "task", 0.0),
    # an event kind that is not a str, and a vm that cannot be hashed
    ("hold", "event", 5),
    ("hold", "vm", ["m4.large"]),
    # a str kind the engine never writes used to read as no event at all,
    # so a hold was not billed and a move not counted; and a finish read as
    # another kind used to leave the ledger a log with no finish
    ("hold", "event", "hodl"),
    ("migrate", "event", "migrat"),
    ("finish", "event", "acquire"),
]


def located_run():
    """A static run's traces and report dict, moved once, so its log holds
    working and stalled holds; event 2 is its first hold."""
    traces = flat_traces()
    report = run_simulation(
        one_phase_job(), "static", traces, CATALOG, COMPOSITION,
        params=unit_params(),
        forced_migrations=[(300, 0, "r4.xlarge")],
    ).to_dict()
    return traces, report


def edit_event(report, kind, key, value, i=None):
    """A copy of report with key of event i (by default the first event of
    that kind) set to value, or dropped for None; and i."""
    events = [dict(event) for event in report["events"]]
    if i is None:
        i = [e["event"] for e in events].index(kind)
    assert events[i]["event"] == kind
    if value is None:
        del events[i][key]
    else:
        events[i][key] = value
    return {**report, "events": events}, i


def assert_located(kind, key, value, traces=None, report=None, i=None):
    """Edit event i as edit_event does, and check that both readers name it."""
    if report is None:
        traces, report = located_run()
    edited, i = edit_event(report, kind, key, value, i)
    if (kind, key) == ("finish", "event") and value in KINDS:  # so the log lacks this finish
        message = f"^event log has no finish event for task {report['events'][i]['task']}$"
    elif key == "event":
        message = f"^event {i} has no 'event' kind"
    else:
        message = f"^event {i} \\({kind}\\) has a bad '{key}': {re.escape(repr(value))}$"
    for reader in BOTH_READERS:
        with pytest.raises(SimulationError, match=message):
            reader(edited, traces, CATALOG)


# each id keeps the name its case had when a third column listed the
# readers that ran it
@pytest.mark.parametrize(
    "kind, key, value",
    MALFORMED_EVENTS,
    ids=[f"{key}-{value}-readers{i}" for i, (_, key, value) in enumerate(MALFORMED_EVENTS)],
)
def test_replay_and_ledger_locate_a_malformed_event(kind, key, value):
    assert_located(kind, key, value)


@pytest.mark.parametrize(
    "kind, key, value",
    [("hold", "t0", -(2**63) - 1), ("hold", "t1", 2**63), ("finish", "t", 2**63)],
)
def test_a_time_outside_int64_is_located(kind, key, value):
    # these escaped as a raw OverflowError from numpy
    assert_located(kind, key, value)


def test_a_hold_whose_span_overflows_int64_is_located():
    # each time fits an int64 but their difference does not: the hold used
    # to bill about -1e16 with no error
    traces = {vm: PriceTrace(vm, [PricePoint(-3600, 6.0)]) for vm in COMPOSITION}
    report = run_simulation(
        one_phase_job(), "static", traces, CATALOG, COMPOSITION, params=unit_params()
    ).to_dict()
    [hold] = [e for e in report["events"] if e["event"] == "hold"]
    hold["t0"] = -3600
    assert_located("hold", "t1", 2**63 - 1, traces, report)


def test_a_span_that_overflows_int64_raises_out_of_range():
    # each time fits an int64 but their difference does not: interval_cost
    # used to bill -1.537e16 and integrate to return -5.53e19
    trace = PriceTrace("m4.large", [PricePoint(-3600, 6.0)])
    curve = IndexCurve({vm: trace for vm in COMPOSITION}, CATALOG, COMPOSITION)
    message = f"^span \\[-3600, {2**63 - 1}\\) does not fit in int64 seconds$"
    stamps, values = trace.timestamps, trace.prices
    for priced in (
        lambda: interval_cost(trace, -3600, 2**63 - 1),
        lambda: curve.integrate(-3600, 2**63 - 1),
        # the lone-window path, and the multi-window path, which used to
        # sum [-5.53e19, 60.0]
        lambda: window_sums(stamps, values, [-3600], [2**63 - 1]),
        lambda: window_sums(stamps, values, [0, -3600], [10, 2**63 - 1]),
        lambda: curve.integrals([0, -3600], [10, 2**63 - 1]),
    ):
        with pytest.raises(OutOfRangeError, match=message):
            priced()
    assert interval_cost(trace, -3600, 2**63 - 3601) == 6.0 * (2**63 - 1) / 3600.0
    widest = window_sums(stamps, values, [0, -3600], [10, 2**63 - 3601])
    assert widest.tolist() == [60.0, 6.0 * (2**63 - 1)]
    with pytest.raises(OutOfRangeError, match="^span \\[10, 5\\) ends before it starts$"):
        window_sums(stamps, values, [0, 10], [10, 5])


def test_a_run_its_replay_and_its_ledger_build_one_index_curve(monkeypatch):
    build = IndexCurve.__init__
    builds = []

    def counted(self, *args):
        builds.append(args)
        build(self, *args)

    monkeypatch.setattr(IndexCurve, "__init__", counted)
    traces = traces_for(5)
    report = run_simulation(baseline_job(), "balanced", traces, CATALOG, COMPOSITION, params=study_params())
    assert replay(report, traces, CATALOG)["total_cost"] == report.total_cost
    assert ledger_from_report(report.to_dict(), traces, CATALOG).net == pytest.approx(report.net, abs=1e-9)
    assert len(builds) == 1


def test_runs_replays_and_ledgers_leave_no_reference_cycle():
    # a cycle through the engine, such as a market block's moments closing
    # over it, keeps the engine and its event log alive until the cyclic
    # collector runs
    traces = traces_for(5)
    gc.collect()
    gc.disable()
    try:
        for policy in POLICIES:
            report = run_simulation(baseline_job(), policy, traces, CATALOG, COMPOSITION, params=study_params())
            replay(report, traces, CATALOG)
            ledger_from_report(report, traces, CATALOG)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_negative_finish_time_is_located():
    # it used to replay to a wall-clock of -5
    assert_located("finish", "t", -5)


def test_a_finish_before_its_tasks_holds_end_is_located():
    traces, report = located_run()
    end = max(e["t1"] for e in report["events"] if e["event"] == "hold")
    finish = [e for e in report["events"] if e["event"] == "finish"]
    assert [e["t"] for e in finish] == [end]
    assert_located("finish", "t", end - 1, traces, report)


def test_a_finish_is_checked_against_its_own_tasks_holds():
    traces = flat_traces()
    report = run_simulation(
        one_phase_job(kind="bsp", tasks=2), "static", traces, CATALOG, COMPOSITION,
        params=unit_params(),
    ).to_dict()
    events = report["events"]
    # with task 0's holds cut to end at 500, task 0 may finish at 500 while
    # task 1's holds run to 600, and task 1 may not finish at 599
    i = events.index({"event": "finish", "t": 600, "task": 1})
    edited = [dict(e) for e in events]
    for e in edited:
        if e["event"] == "hold" and e["task"] == 0:
            e["t1"] = min(e["t1"], 500)
    edited[events.index({"event": "finish", "t": 600, "task": 0})]["t"] = 500
    assert replay({**report, "events": edited}, traces, CATALOG)["finish_times"] == [500, 600]
    assert_located("finish", "t", 599, traces, {**report, "events": edited}, i)


@pytest.mark.parametrize("append", ["second finish", "hold after the finish"])
def test_an_event_of_a_finished_task_is_located(append):
    # a second finish at t=1,000,000 used to replay to that wall-clock
    # instead of 630, and a hold over [630, 5000) after the finish to raise
    # total_cost from 1.1 to 8.38
    traces, report = located_run()
    events = report["events"]
    assert replay(report, traces, CATALOG)["wallclock_seconds"] == events[-1]["t"] == 630
    if append == "second finish":
        extra = {**events[-1], "t": 1_000_000}
    else:
        extra = {**[e for e in events if e["event"] == "hold"][-1], "t0": 630, "t1": 5000}
    edited = {**report, "events": events + [extra]}
    message = f"^event {len(events)} \\({extra['event']}\\) has a bad 'task': 0$"
    for reader in BOTH_READERS:
        with pytest.raises(SimulationError, match=message):
            reader(edited, traces, CATALOG)


@pytest.mark.parametrize(
    "key, value, i, index_start",
    [("t1", -5, 2, 0), ("t1", 0, 2, 0), ("t0", -5, 3, 0), ("t0", 0, 2, 100)],
    ids=["reversed", "empty", "stall-before-its-trace", "working-before-the-index"],
)
def test_a_hold_that_cannot_be_priced_is_located(key, value, i, index_start):
    # event 2 is a working hold over [0, 300) and event 3 a stall over
    # [300, 330), both on c4.2xlarge, whose trace starts at 0. A reversed or
    # empty hold used to bill 0 with no error; the stall raised its trace's
    # OutOfRangeError, and the working hold, once a member's trace starts
    # the index at 100, the curve's
    traces, report = located_run()
    traces["m4.large"] = PriceTrace("m4.large", [PricePoint(index_start, 6.0)])
    assert {report["events"][k]["vm"] for k in (2, 3)} == {"c4.2xlarge"}
    assert_located("hold", key, value, traces, report, i)


def test_a_hold_on_a_vm_without_a_catalog_row_is_located_even_when_stalled():
    traces, report = located_run()
    traces["zz"] = PriceTrace("zz", [PricePoint(0, 6.0)])
    stalled = [e["working"] for e in report["events"] if e["event"] == "hold"].index(False)
    i = [k for k, e in enumerate(report["events"]) if e["event"] == "hold"][stalled]
    assert_located("hold", "vm", "zz", traces, report, i)


# (key, value, message, readers): ... stands for a missing key; the
# ledger does not read params
REPORT_KEY_CASES = [
    ("events", ..., "report has no 'events'", BOTH_READERS),
    ("events", None, "report events must be a list, got None", BOTH_READERS),
    ("composition", ..., "report has no 'composition'", BOTH_READERS),
    ("composition", "abc", "report composition must be a list of str, got 'abc'", BOTH_READERS),
    ("tasks", ..., "report has no 'tasks'", BOTH_READERS),
    ("tasks", "1", "report tasks must be finite and >= 1, got '1'", BOTH_READERS),
    ("tasks", 1.5, "report tasks must be int, got 1.5", BOTH_READERS),
    ("params", ..., "report has no 'params.reference_capacity'", (replay,)),
    (
        "params", {"reference_capacity": "x"},
        "report params.reference_capacity must be a list of two numbers, got 'x'", (replay,),
    ),
    (
        "params", {"reference_capacity": [8.0, True]},
        "report params.reference_capacity must be float, got True", (replay,),
    ),
]
REPORT_KEY_IDS = [
    "events-missing", "events-null", "composition-missing", "composition-str", "tasks-missing",
    "tasks-str", "tasks-fraction", "params-missing", "reference_capacity-str", "reference_capacity-bool",
]


@pytest.mark.parametrize("key, value, message, readers", REPORT_KEY_CASES, ids=REPORT_KEY_IDS)
def test_replay_and_ledger_name_a_missing_or_malformed_report_key(key, value, message, readers):
    traces, report = located_run()
    edited = {k: v for k, v in report.items() if k != key}
    if value is not ...:
        edited[key] = value
    for reader in readers:
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            reader(edited, traces, CATALOG)


def test_replay_and_ledger_name_an_empty_composition():
    # it raised the index curve's bare ValueError
    traces, report = located_run()
    for reader in BOTH_READERS:
        with pytest.raises(SimulationError, match="^report composition is empty$"):
            reader({**report, "composition": []}, traces, CATALOG)


def read_edited(reader, key, value):
    traces, report = located_run()
    return reader({**report, key: value}, traces, CATALOG)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: RunParams(epoch=BIG), InvariantError, f"epoch must be finite and > 0, got {BIG}"),
        (lambda: Phase(BIG, 1.0, 1.0), InvariantError, f"phase duration must be finite and > 0, got {BIG}"),
        (lambda: MigrationModel(rate=BIG), InvariantError, f"migration rate must be finite and >= 0, got {BIG}"),
        (
            lambda: dataclasses.replace(CATALOG["m4.large"], cpu_capacity=BIG),
            InvariantError, f"cpu_capacity must be finite and > 0, got {BIG}",
        ),
        (lambda: exact(float, BIG, "k"), InvariantError, f"k must be float, got {BIG}"),
        (lambda: exact(float, -BIG, "k"), InvariantError, f"k must be float, got {-BIG}"),
        (
            lambda: read_edited(replay, "tasks", BIG),
            SimulationError, f"report tasks must be finite and >= 1, got {BIG}",
        ),
        (
            lambda: read_edited(ledger_from_report, "tasks", BIG),
            SimulationError, f"report tasks must be finite and >= 1, got {BIG}",
        ),
        (
            lambda: read_edited(replay, "params", {"reference_capacity": [8.0, BIG]}),
            SimulationError, f"report params.reference_capacity must be float, got {BIG}",
        ),
    ],
    ids=[
        "RunParams-epoch", "Phase-duration", "MigrationModel-rate", "VmSpec-cpu_capacity", "exact", "exact-negative",
        "replay-tasks", "ledger-tasks", "replay-reference_capacity",
    ],
)
def test_a_whole_number_beyond_the_float_range_fails_the_number_checks(call, error, message):
    # each escaped as a raw OverflowError
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


READ_PATHS = ("events", "tasks", "composition", "params.reference_capacity")


@functools.cache
def located_readings():
    """located_run's traces and report, and what each reader gives for it."""
    traces, report = located_run()
    return traces, report, replay(report, traces, CATALOG), ledger_from_report(report, traces, CATALOG).to_dicts()


@st.composite
def hostile_edits(draw):
    """A key path of located_run's report, as (event index, key) or one of
    READ_PATHS, and a HOSTILE value."""
    events = located_readings()[1]["events"]
    value = draw(st.sampled_from(HOSTILE))
    if draw(st.booleans()):
        return draw(st.sampled_from(READ_PATHS)), value
    i = draw(st.integers(0, len(events) - 1))
    return (i, draw(st.sampled_from(sorted(events[i])))), value


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hostile_edits())
def test_replay_and_ledger_name_a_hostile_value_or_read_what_it_means(edit):
    # each reader raises a SimulationError naming the event and key, or the
    # report key; or, where the value means what the original did, gives
    # what the unedited report gives
    path, value = edit
    traces, report, totals, ledger = located_readings()
    edited = json.loads(json.dumps(report))
    if isinstance(path, tuple):
        i, key = path
        event = edited["events"][i]
        kind, original = event["event"], event[key]
        event[key] = value
        # a flipped working flag is another well-formed log
        assume(not (key == "working" and type(value) is bool and value != original))
        if key == "event":
            message = f"event {i} has no 'event' kind: {event!r}"
        elif kind in ("hold", "finish") and value is not original:
            message = f"event {i} ({kind}) has a bad {key!r}: {value!r}"
        else:  # the readers count every kind, but read no other key of other events
            message = None
        pattern = message and f"^{re.escape(message)}$"
        raising = BOTH_READERS if message else ()
    else:
        *parents, key = path.split(".")
        reached = edited
        for parent in parents:
            reached = reached[parent]
        reached[key] = value
        pattern = f"^report {re.escape(path)} "
        if path == "events" and value == []:  # a list of events, none a finish
            pattern = "^event log has no finish event for task 0$"
        elif path == "events" and isinstance(value, list):  # whose first is not an object
            pattern = f"^event 0 has no 'event' kind: {re.escape(repr(value[0]))}$"
        raising = (replay,) if parents else BOTH_READERS  # the ledger does not read params
    for reader in BOTH_READERS:
        if reader in raising:
            with pytest.raises(SimulationError, match=pattern):
                reader(edited, traces, CATALOG)
        elif reader is replay:
            assert replay(edited, traces, CATALOG) == totals
        else:
            assert ledger_from_report(edited, traces, CATALOG).to_dicts() == ledger


def test_replay_and_ledger_locate_an_event_that_is_not_an_object():
    traces = flat_traces()
    report = run_simulation(
        one_phase_job(), "static", traces, CATALOG, COMPOSITION, params=unit_params()
    ).to_dict()
    events = [*report["events"][:2], 5, *report["events"][2:]]
    for reader in BOTH_READERS:
        with pytest.raises(SimulationError, match="^event 2 has no 'event' kind: 5$"):
            reader({**report, "events": events}, traces, CATALOG)


def test_billing_prices_each_vm_in_at_most_two_batches():
    # a static run scripted back and forth between two VMs: several holds,
    # working and not, on each of three VMs
    traces = traces_for(3)
    moves = [(t, 0, ("r4.xlarge", "m4.2xlarge")[k % 2]) for k, t in enumerate(range(300, 3300, 300))]
    report = run_simulation(
        baseline_job(), "static", traces, CATALOG, COMPOSITION,
        params=study_params(), forced_migrations=moves,
    )
    holds = [e for e in report.events if e["event"] == "hold"]
    vms = {e["vm"] for e in holds}
    assert len(holds) > 2 * len(vms) and any(e["working"] for e in holds)
    calls = []

    def counted(*args):
        calls.append(len(args[2]))
        return window_sums(*args)

    curve = IndexCurve(traces, CATALOG, COMPOSITION)
    with mock.patch.object(billing, "window_sums", counted), \
            mock.patch.object(index, "window_sums", counted):
        totals = simulator.compute_totals(
            report.events, traces, CATALOG, curve, (8.0, 32.0), report.tasks
        )
    assert totals["total_cost"] == report.total_cost
    assert len(calls) <= 2 * len(vms)
    assert sum(calls) >= len(holds)


def test_market_block_gathers_each_candidate_once():
    # building a block, or a context of it, makes no window_sums call. The
    # first read of the candidates' moments, by a context's view as by a
    # decision table, computes them for the whole block: one call per
    # candidate, whose prices' and their squares' sums cover every tick;
    # the first read of the index reference, by a context or the block, the
    # index's one. Once the arrays exist, no read through any context of
    # the block adds a call
    engine = simulator._Engine(
        baseline_job(), POLICIES["cost"](), traces_for(3), CATALOG, COMPOSITION,
        study_params(), None, None, None,
    )
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return window_sums(*args, **kwargs)

    candidates = len(engine.candidates)
    with mock.patch.object(prices, "window_sums", counted):
        for ticks in (60 * np.arange(1, 65), np.array([90])):
            whole = [len(ticks)] * candidates

            def context(block, k=len(ticks) - 1):
                return block.context(k, int(ticks[k]), 4.0, 16.0, None)

            for through_context in (False, True):
                calls.clear()
                block = engine._block(ticks)
                ctx = context(block)
                assert block.ok.all()
                assert calls == []
                if through_context:
                    ctx.candidates[-1].window_std
                    assert calls == whole
                    context(block, 0).candidates[0].window_mean
                    assert calls == whole
                    ctx.index_reference
                else:
                    block.means
                    assert calls == whole
                    block.index_reference
                assert calls == [*whole, len(ticks)]
                block.stds, block.means, block.index_reference
                for read in (ctx, context(block), context(block, 0)):
                    read.index_reference
                    for view in read.candidates:
                        view.window_mean, view.window_std
                assert calls == [*whole, len(ticks)]


def test_a_market_view_is_the_view_its_four_fields_build():
    # a view that reads its moments from its block on first use keeps the
    # dataclass's constructor, fields, equality, hash and immutability, and
    # so does a context that reads its index reference from its block: a
    # fresh one equals, hashes and reprs as the one built from its fields
    engine = simulator._Engine(
        baseline_job(), POLICIES["cost"](), traces_for(3), CATALOG, COMPOSITION,
        study_params(), None, None, None,
    )
    names = ["spec", "price", "window_mean", "window_std"]
    assert [f.name for f in dataclasses.fields(CandidateView)] == names
    with pytest.raises(TypeError):
        CandidateView(CATALOG["m4.large"], 6.0)
    block = engine._block(60 * np.arange(1, 5))
    current = block.context(1, 120, 4.0, 16.0, None).candidates[-1].spec.id

    def context():
        return block.context(1, 120, 4.0, 16.0, current)

    def build(view):
        return CandidateView(*(getattr(view, name) for name in names))

    for view in context().candidates:
        with pytest.raises(dataclasses.FrozenInstanceError):
            view.window_mean = 0.0
        built = build(view)
        assert (view, hash(view), repr(view)) == (built, hash(built), repr(built))
    fields = [f.name for f in dataclasses.fields(PolicyContext)]
    assert fields == [
        "t", "candidates", "cpu_used", "mem_used", "index_now", "index_reference",
        "horizon", "migration_seconds", "current",
    ]
    values = {name: getattr(context(), name) for name in fields}
    with pytest.raises(TypeError):
        PolicyContext(**{name: value for name, value in values.items() if name != "index_reference"})
    built = PolicyContext(**{**values, "candidates": tuple(map(build, values["candidates"]))})
    assert context() == built
    assert hash(context()) == hash(built)
    assert repr(context()) == repr(built)
    with pytest.raises(dataclasses.FrozenInstanceError):
        context().index_reference = 0.0
    # the checks of a context built directly run on one the block builds
    with pytest.raises(SelectionError, match="'m3.large' is not among candidates at t=120"):
        block.context(1, 120, 4.0, 16.0, "m3.large")


def test_a_view_whose_moments_fail_raises_their_error_on_each_read():
    # a failed first read leaves the view holding its block, so the next
    # read raises the same error, not a bare AttributeError; so does a
    # context's failed read of its index reference
    engine = simulator._Engine(
        baseline_job(), POLICIES["cost"](), traces_for(3), CATALOG, COMPOSITION,
        study_params(), None, None, None,
    )
    block = engine._block(60 * np.arange(1, 5))

    def failing(compute, what):
        failures = [RuntimeError(f"{what} first"), RuntimeError(f"{what} second")]

        def read():
            if failures:
                raise failures.pop(0)
            return compute()

        return read

    ctx = dataclasses.replace(
        block,
        window_moments=failing(block.window_moments, "moments"),
        window_reference=failing(block.window_reference, "reference"),
    ).context(1, 120, 4.0, 16.0, None)
    view = ctx.candidates[0]
    for attempt in ("first", "second"):
        with pytest.raises(RuntimeError, match=f"moments {attempt}"):
            view.window_std
        with pytest.raises(RuntimeError, match=f"reference {attempt}"):
            ctx.index_reference
    expected = block.context(1, 120, 4.0, 16.0, None)
    assert (view.window_mean, view.window_std, ctx.index_reference) == (
        expected.candidates[0].window_mean,
        expected.candidates[0].window_std,
        expected.index_reference,
    )


@st.composite
def block_markets(draw):
    """Traces of random steps from t=0 for the four markets, run params and
    a tick count."""
    price = st.floats(0.5, 60.0)
    traces = {}
    for vm in COMPOSITION:
        steps = draw(st.lists(st.tuples(st.integers(1, 4000), price), max_size=30, unique_by=lambda s: s[0]))
        traces[vm] = PriceTrace(vm, [PricePoint(0, draw(price)), *(PricePoint(*step) for step in steps)])
    params = RunParams(
        epoch=draw(st.sampled_from((7, 60, 300))),
        sigma_window=draw(st.sampled_from((1, 45, 600, 3600))),
        index_reference=draw(st.sampled_from(("window", "instant"))),
    )
    return traces, params, draw(st.integers(1, 40))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(block_markets())
def test_a_one_tick_block_reads_the_bits_of_the_table_column(market):
    # a pick reads the one-tick block of its instant, whose moments and
    # index reference are each a lone window, and a decision reads its
    # column of the epoch table: a lone window sums as a table's windows
    # do, so both give the table arrays' bits
    traces, params, count = market
    job = dataclasses.replace(baseline_job(), max_price=1000.0)
    engine = simulator._Engine(
        job, POLICIES["cost"](), traces, CATALOG, COMPOSITION, params, None, None, None
    )
    ticks = params.epoch * np.arange(count)
    block = engine._block(ticks)

    def read(ctx):
        """ctx's index reference and views' moments, as exact text."""
        assert len(ctx.candidates) == len(block.specs)
        return repr([ctx.index_reference, *((v.window_mean, v.window_std) for v in ctx.candidates)])

    for k, t in enumerate(ticks.tolist()):
        column = [block.index_reference.item(k), *zip(block.means[:, k].tolist(), block.stds[:, k].tolist())]
        assert read(block.context(k, t, 4.0, 16.0, None)) == repr(column)
        assert read(engine._block(np.array([t])).context(0, t, 4.0, 16.0, None)) == repr(column)


def test_a_balanced_run_whose_scores_are_nan_is_a_located_error():
    # every market at 1e200, under a max_price above it: the squares of a
    # window's prices overflow, so every std, and so every score, is NaN.
    # balanced's select has no highest score and says so, where it ended in
    # min()'s raw ValueError; the other policies read no score that is NaN
    traces = {vm: PriceTrace(vm, [PricePoint(0, 1e200)]) for vm in COMPOSITION}
    job = dataclasses.replace(baseline_job(), max_price=1e300)
    with np.errstate(all="ignore"):
        for name in ("static", "cost", "avail"):
            run_simulation(job, name, traces, CATALOG, COMPOSITION, params=study_params())
        with pytest.raises(SimulationError) as err:
            run_simulation(job, "balanced", traces, CATALOG, COMPOSITION, params=study_params())
    assert str(err.value) == (
        "selection failed at t=0 for task 0: no highest score among "
        "['c4.2xlarge', 'm4.2xlarge', 'r4.xlarge']: a score is NaN"
    )


def test_a_gate_blocked_block_stays_where_a_score_is_nan():
    # c4.2xlarge, a candidate outside the index, at 1e200 over [600, 1200):
    # its windows' squares overflow there, so its score is NaN wherever its
    # window holds that price. The Eq. 5 gate blocks every move of the
    # block, and decide asks it before picking a target, so decide stays at
    # every tick and balanced's table answers STAY everywhere under either
    # target rule without reading the moments or the index reference
    traces = priced_over(traces_for(0), "c4.2xlarge", 600, 1200, 1e200)
    composition = [vm for vm in COMPOSITION if vm != "c4.2xlarge"]
    job = dataclasses.replace(baseline_job(), max_price=1e300)
    engine = simulator._Engine(
        job, POLICIES["balanced"](), traces, CATALOG, composition, study_params(), None, None, None,
    )
    ticks = 60 * np.arange(1, 61)
    block = engine._block(ticks)
    current = "r4.xlarge"
    i = [spec.id for spec in block.specs].index(current)
    normalized = block.normalized()
    others = ~block.over
    others[i] = False
    assert not (should_migrate(block.index_now, normalized[i], normalized) & others).any()
    rules = [BalancedPolicy(target_rule=rule) for rule in ("sharpe", "first_feasible")]
    with np.errstate(all="ignore"):
        for policy in rules:
            assert (policy.decisions(block, current, 4.0, 16.0).answers == STAY).all()
        assert {"_moments", "index_reference"}.isdisjoint(block.__dict__)
        score = sharpe(
            block.index_reference,
            block.utilized(block.means, 4.0, 16.0),
            block.utilized(block.stds, 4.0, 16.0),
        )
        nan = np.isnan(score).any(axis=0)
        assert nan.any() and not nan.all()
        for policy in rules:
            for k, t in enumerate(ticks.tolist()):
                decision = policy.decide(block.context(k, t, 4.0, 16.0, current))
                assert decision.action == PolicyDecision.STAY, (policy, t)


UNDERFLOWING_JOBS = {
    0: {"phases": (Phase(600, 5e-324, 0.01),)},
    # the size first asked for at phases[2], and again at phases[4]; the
    # sizes before it pass
    2: {
        "phases": tuple(
            Phase(100, cpu, mem)
            for cpu, mem in ((1.0, 1.0), (2.0, 1.0), (5e-324, 0.01), (1.0, 1.0), (5e-324, 0.01))
        ),
        "requirement": ResourceRequirement(min_cpu=5e-324, min_mem=0.01),
    },
}


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_a_candidate_whose_floored_utilization_underflows_is_a_located_error(name):
    # a VM of 5e-324 cpus, asked at 5e-324 cpus and 0.01 GB: the floored
    # utilization's cpu * mem underflows to 0.0, so its utilized price
    # would divide by zero. The run says so before it starts, under every
    # policy, naming the first phase at that size, where it ended in a raw
    # ZeroDivisionError at its first select
    tiny = dataclasses.replace(CATALOG["r4.xlarge"], id="tiny", cpu_capacity=5e-324)
    traces = {**flat_traces(), "tiny": PriceTrace("tiny", [PricePoint(0, 6.0)])}
    for n, fields in UNDERFLOWING_JOBS.items():
        with pytest.raises(SimulationError) as err:
            run_simulation(
                one_phase_job(**fields), name, traces, Catalog([*CATALOG, tiny]), COMPOSITION, params=unit_params()
            )
        assert str(err.value) == (
            f"candidate 'tiny' at phases[{n}] (cpu 5e-324, mem 0.01): "
            "floored utilization 5e-324 * 0.05 is not above 0"
        )
    with pytest.raises(ValueError, match="utilization must be positive"):
        policies.utilized_price(6.0, *policies.floored_utilization(tiny, 5e-324, 0.01))


def week_traces():
    return generate_market_suite(
        [
            SynthMarketSpec(vm, mean, std, duration=7 * 86400)
            for vm, _, _, _, _, mean, std in MARKET_ROWS
        ],
        seed=0,
        warmup=3600,
    )


def week_job():
    """A week of 12-hour phases, alternating between two sizes."""
    phases = tuple(Phase(43200, 4.0, 16.0) if i % 2 == 0 else Phase(43200, 2.0, 8.0) for i in range(14))
    return JobSpec(name="week", phases=phases, reference_capacity=(8.0, 32.0))


@pytest.mark.parametrize("policy, computed", [("cost", 0), ("static", 1)])
def test_a_week_run_computes_the_moments_of_the_blocks_its_policy_reads(policy, computed):
    # cost reads prices alone; static reads the moments only in its first
    # select, whose block holds t=0 alone, and its tables read none
    blocks, moments = [], []
    block, window_moments = simulator._market_block, simulator._window_moments

    def built(*market_and_ticks):
        blocks.append(len(market_and_ticks[-1]))
        return block(*market_and_ticks)

    def read(traces, clipped, window, prices):
        # how many ticks the call computes
        moments.append(len(clipped[0]))
        return window_moments(traces, clipped, window, prices)

    with mock.patch.object(simulator, "_market_block", built), mock.patch.object(
        simulator, "_window_moments", read
    ):
        run_simulation(week_job(), policy, week_traces(), CATALOG, COMPOSITION, params=study_params())
    # the week's 10,080 ticks take ten tables at least
    assert len(blocks) >= 10
    assert moments == [1] * computed


@pytest.mark.parametrize("policy", ["cost", "static", "avail", "balanced"])
def test_a_week_run_computes_the_index_reference_of_the_blocks_its_policy_reads(policy):
    # a block computes the window reference where it is first read: cost
    # and static read it nowhere, so compute none; the select of avail and
    # balanced at t=0 reads the one-tick block that follows the opening
    # table, and avail's table reads it in every epoch table, which
    # computes each table's once. balanced's table asks Eq. 5 first, which
    # passes at no tick of the week, so it reads no reference
    blocks, references = [], []
    block, trailing_means = simulator._market_block, simulator.trailing_means

    def built(*market_and_ticks):
        blocks.append(len(market_and_ticks[-1]))
        return block(*market_and_ticks)

    def read(timestamps, values, start, t1, window, now, squares=False):
        # the candidates' moments ask for squares; the index's means do not
        if not squares:
            references.append(len(t1))
        return trailing_means(timestamps, values, start, t1, window, now, squares=squares)

    with mock.patch.object(simulator, "_market_block", built), mock.patch.object(
        simulator, "trailing_means", read
    ):
        run_simulation(week_job(), policy, week_traces(), CATALOG, COMPOSITION, params=study_params())
    assert len(blocks) >= 10 and blocks[1] == 1
    opening, pick, *refills = blocks
    assert references == {"avail": [pick, opening, *refills], "balanced": [pick]}.get(policy, [])


def counted_windows(job, policy, traces, calls=None):
    """The tick counts of the blocks a run builds, in order, and the window
    counts of its window_sums calls, each as (windows, squares), appended
    to calls: a candidate's moments ask for squares, the index's means do
    not."""
    blocks, calls = [], [] if calls is None else calls
    block = simulator._market_block

    def built(*market_and_ticks):
        blocks.append(len(market_and_ticks[-1]))
        return block(*market_and_ticks)

    def counted(timestamps, values, t0, t1, squares=False):
        calls.append((len(t0), squares))
        return window_sums(timestamps, values, t0, t1, squares=squares)

    with mock.patch.object(simulator, "_market_block", built), mock.patch.object(
        prices, "window_sums", counted
    ):
        run_simulation(job, policy, traces, CATALOG, COMPOSITION, params=study_params())
    return blocks, calls


class PickCounted(AvailabilityAwarePolicy):
    """avail, which keeps the window_sums calls each select makes."""

    def __init__(self, calls):
        super().__init__()
        self.calls = calls
        self.picks = []

    def select(self, ctx):
        before = len(self.calls)
        answer = super().select(ctx)
        self.picks.append(self.calls[before:])
        return answer


def test_a_pick_at_t0_computes_one_window_per_candidate_not_the_opening_table():
    # the bsp shape: an 8-task gang whose 1-hour job opens a 60-tick table.
    # The gang's one select at t=0 reads every candidate's moments and the
    # index reference from the one-tick block that follows the opening
    # table: one lone window each, where a read of the opening table would
    # compute all 60 ticks of each. avail's decision tables read the
    # opening table's index reference, which is computed once, for all 60
    job = dataclasses.replace(baseline_job(), kind="bsp", tasks=8)
    calls = []
    policy = PickCounted(calls)
    blocks, _ = counted_windows(job, policy, traces_for(3), calls)
    candidates = len(simulator._candidates(job, CATALOG, None)[0])
    assert blocks[:2] == [60, 1]
    [pick] = policy.picks
    assert sorted(pick) == [(1, False)] + [(1, True)] * candidates
    assert calls[len(pick):] == [(60, False)]


class Asking(Policy):
    """Another policy's select and decide, with no decision tables of its
    own: the default's answer ASK everywhere, so the engine asks decide, on
    a context, at every epoch tick."""

    def __init__(self, inner: Policy):
        self.inner = inner
        self.name = inner.name

    def select(self, ctx):
        return self.inner.select(ctx)

    def decide(self, ctx):
        return self.inner.decide(ctx)


def test_a_week_of_decisions_computes_each_tables_moments_once():
    # a decision reads its column of the epoch table, so the first of a
    # table's 1,024 decisions computes the table's moments, one window_sums
    # call per candidate over all its ticks, and the other decisions none;
    # the t=0 pick, before them, computes its one-tick block's
    blocks, calls = counted_windows(week_job(), Asking(AvailabilityAwarePolicy()), week_traces())
    candidates = len(simulator._candidates(week_job(), CATALOG, None)[0])
    assert len(blocks) >= 10
    opening, pick, *refills = blocks
    assert (opening, pick) == (simulator.TABLE_TICKS, 1)
    computed = [n for n, squares in calls if squares]
    assert computed == [n for n in (pick, opening, *refills) for _ in range(candidates)]


SIZES = {"big": (4.0, 16.0), "small": (2.0, 8.0), "mid": (3.0, 12.0)}


def sized_job(phases, **fields):
    """A job of (duration, size name) phases, sized as SIZES names them."""
    return JobSpec(
        name="sized",
        phases=tuple(Phase(duration, *SIZES[size]) for duration, size in phases),
        mem_footprint=4.0,
        reference_capacity=(8.0, 32.0),
        **fields,
    )


# 12 phases of 300 s, alternating between two sizes
TWELVE = [(300, "small" if i % 2 else "big") for i in range(12)]
# boundaries off the 60 s epoch grid, five phases shorter than an epoch
OFF_GRID = [(130, "big"), (20, "small"), (70, "mid"), (45, "small"), (100, "big"), (15, "mid"), (15, "small"), (200, "big")]
GANGS = {"single": {}, "bsp3": {"kind": "bsp", "tasks": 3}}


def counted_run(job, policy, traces, table_ticks=simulator.TABLE_TICKS):
    """The seconds a run under unit_params steps (_Engine._step), and the
    (vm, cpu, mem) keys its policy's decisions is asked for, in order, with
    each epoch table at most table_ticks ticks long."""
    steps, keys = [], []
    step = simulator._Engine._step
    policy = policies.build_policy(policy)
    decisions = policy.decisions

    def stepped(engine, t, forced_queue):
        steps.append(t)
        return step(engine, t, forced_queue)

    def asked(block, current, cpu_used, mem_used):
        keys.append((current, (cpu_used, mem_used)))
        return decisions(block, current, cpu_used, mem_used)

    policy.decisions = asked
    with mock.patch.object(simulator._Engine, "_step", stepped), mock.patch.object(
        simulator, "TABLE_TICKS", table_ticks
    ):
        run_simulation(job, policy, traces, CATALOG, COMPOSITION, params=unit_params())
    return steps, keys


@pytest.mark.parametrize("gang", sorted(GANGS))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_a_never_moving_multi_phase_run_steps_at_its_first_and_last_second(policy, gang):
    # over flat prices every table answers STAY, so the engine looks across
    # all 11 phase boundaries and steps only at t=0 and at the second that
    # completes the work, where a loop that steps at each boundary's tick
    # takes 13 steps; and it asks for the tables that loop asks for
    steps, keys = counted_run(sized_job(TWELVE, **GANGS[gang]), policy, flat_traces())
    assert steps == [0, 3599]
    assert keys == [("c4.2xlarge", SIZES["big"]), ("c4.2xlarge", SIZES["small"])]


# (phases, traces, table ticks, gangs, the seconds stepped, the keys
# asked for, as (vm, size name) pairs), where the keys are those that a
# loop stepping at each phase boundary's tick asks for
ASKED = {
    # tables of 3 ticks, refilled at 180, 360 and 540, where that loop also
    # steps at 240, 300 and 420; the mid and small phases over [365, 395)
    # hold no tick, and no table is asked for them
    "off-grid": (
        OFF_GRID,
        flat_traces(),
        3,
        sorted(GANGS),
        [0, 180, 360, 540, 594],
        [("c4.2xlarge", size) for size in ("big", "mid", "small", "big", "big", "big")],
    ),
    # c4.2xlarge, over max_price over [450, 900), is revoked at 450,
    # inside the phase that starts at 300, and the task restarts on
    # m4.2xlarge at 540, rolled back to work 300; the table ends at 3600.
    # That loop takes 16 steps
    "crossing": (
        TWELVE,
        priced_over(flat_traces(), "c4.2xlarge", 450, 900, 100.0),
        simulator.TABLE_TICKS,
        ["single"],
        [0, 450, 540, 3600, 3839],
        [("c4.2xlarge", "big"), ("c4.2xlarge", "small"), *(("m4.2xlarge", s) for s in ("small", "big", "small"))],
    ),
}


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("case, gang", [(case, gang) for case, spec in ASKED.items() for gang in spec[3]])
def test_a_run_asks_for_the_tables_a_loop_stepping_at_each_phase_boundary_asks_for(case, gang, policy):
    # a custom policy may raise on a key it is never asked for, so looking
    # across phase boundaries asks for no key, and in no order, that a loop
    # stepping at each boundary's tick does not
    phases, traces, table_ticks, _, steps, keys = ASKED[case]
    asked = counted_run(sized_job(phases, **GANGS[gang]), policy, traces, table_ticks)
    assert asked == (steps, [(vm, SIZES[size]) for vm, size in keys])


def test_a_table_move_is_quoted_at_the_prices_and_index_of_its_tick():
    # cost answers its move at t=300 from its decision table, whose prices
    # and index the engine hands to the move: the same bits as price_at and
    # value_at, which the reference engine's asked move looks up. The Eq. 5
    # check passes for this move (index 1.98 > 1.0 + 2 * 0.09, normalized),
    # and would fail with source and target prices swapped
    points = {
        "m4.large": [(0, 20.0)],
        "m4.2xlarge": [(0, 16.0)],
        "c4.2xlarge": [(0, 20.0), (300, 1.0)],
        "r4.xlarge": [(0, 20.0)],
    }
    traces = {vm: PriceTrace(vm, [PricePoint(*p) for p in steps]) for vm, steps in points.items()}
    reports = [
        run(one_phase_job(), "cost", traces, CATALOG, COMPOSITION, params=unit_params()).to_dict()
        for run in (run_simulation, run_per_second)
    ]
    assert reports[0] == reports[1]
    [move] = [event for event in reports[0]["events"] if event["event"] == "migrate"]
    assert (move["t"], move["src"], move["dst"]) == (300, "m4.2xlarge", "c4.2xlarge")
    assert move["sufficiency_ok"] is True
    assert move["loss"] == (16.0 + 1.0) * 30 / 3600.0


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
    with pytest.raises(ValueError, match="^no reports to aggregate$"):
        aggregate_reports([])


def test_a_job_that_no_candidate_fits_is_named():
    job = one_phase_job(phases=(Phase(600, 64.0, 16.0),))
    message = "^no candidate VM satisfies job 'unit'$"
    with pytest.raises(SimulationError, match=message):
        run_simulation(job, "static", flat_traces(), CATALOG, COMPOSITION, params=unit_params())
    with pytest.raises(SimulationError, match=message):
        on_demand_baseline(job, CATALOG)


def test_run_trials_wraps_errors_with_trial_id():
    broken = flat_traces()
    del broken["m4.2xlarge"]
    with pytest.raises(SimulationError) as err:
        run_trials(
            one_phase_job(), "static", [flat_traces(), broken], CATALOG, COMPOSITION,
            params=unit_params(),
        )
    assert "trial 1" in str(err.value)


# power-of-two price scaling: a metamorphic property of the whole run

MONEY = (
    "total_cost", "productive_cost", "gain", "loss", "net", "index_cost_reference", "index_cost_held"
)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def study_run(job, policy, traces, catalog):
    """The study setup's report of job under policy, normalized against the
    on-demand baseline."""
    report = run_simulation(job, policy, traces, catalog, COMPOSITION, params=study_params())
    return normalize_report(report, on_demand_baseline(job, catalog))


def price_scaled(job, traces, catalog, factor):
    """job, traces and catalog with every price in them times factor: each
    trace price, each on-demand price and max_price where it is set."""
    traces = {
        vm: PriceTrace.from_arrays(vm, trace.timestamps.copy(), trace.prices * factor)
        for vm, trace in traces.items()
    }
    catalog = Catalog(
        [dataclasses.replace(spec, on_demand_price=spec.on_demand_price * factor) for spec in catalog]
    )
    if job.max_price is not None:
        job = dataclasses.replace(job, max_price=job.max_price * factor)
    return job, traces, catalog


def check_scaled_reason(reason, scaled, factor):
    """scaled is reason with each number in it times factor, to the six
    significant digits a reason prints."""
    assert NUMBER.split(scaled) == NUMBER.split(reason)
    for a, b in zip(NUMBER.findall(reason), NUMBER.findall(scaled)):
        assert math.isclose(float(a) * factor, float(b), rel_tol=1e-5), (reason, scaled)


def check_scaled_report(report, scaled, factor):
    """scaled is report but for its prices: every event is the same but for
    its price, loss and reason, which scale by factor, every money total is
    exactly factor times report's, and every ratio and count is the same."""
    doc, other = report.to_dict(), scaled.to_dict()
    events, scaled_events = doc.pop("events"), other.pop("events")
    assert len(scaled_events) == len(events)
    for event, moved in zip(events, scaled_events):
        assert moved.keys() == event.keys()
        for key, value in event.items():
            if key in ("price", "loss"):
                assert moved[key] == value * factor, (event, moved)
            elif key == "reason":
                check_scaled_reason(value, moved[key], factor)
            else:
                assert moved[key] == value, (event, moved)
    for key in MONEY:
        assert other.pop(key) == doc.pop(key) * factor, key
    for params in (doc["params"], doc["params"]["job"]):
        if params["max_price"] is not None:
            params["max_price"] *= factor
    assert other == doc


@settings(max_examples=160, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 19),
    volatility=st.sampled_from((1.0, 1.5)),
    policy=st.sampled_from(sorted(POLICIES)),
    k=st.sampled_from((1, -10, 20)),
    max_price=st.sampled_from((None, 9.5)),
)
def test_scaling_every_price_by_a_power_of_two_scales_every_money_output(
    seed, volatility, policy, k, max_price
):
    # The study setup's run, at volatility 1.0 and 1.5, with every price
    # times 2**k. This checks k = -10, 1 and 20 only: scaling by a power of
    # two is exact in binary floating point, so every comparison and every
    # sum comes out the same, scaled. It stops holding for small enough k,
    # since SIGMA_FLOOR and TIE_TOLERANCE are absolute: from k = -28 down,
    # balanced's scores reach the floor and its picks change.
    job = dataclasses.replace(baseline_job(), max_price=max_price)
    traces, factor = traces_for(seed, volatility), 2.0**k
    report = study_run(job, policy, traces, CATALOG)
    job, traces, catalog = price_scaled(job, traces, CATALOG, factor)
    check_scaled_report(report, study_run(job, policy, traces, catalog), factor)


def run_or_error(job, policy, traces, catalog) -> dict | str:
    """The study setup's report of job under policy as a dict, or the
    error that ends the run, as its type and message."""
    try:
        report = run_simulation(job, policy, traces, catalog, COMPOSITION, params=study_params())
    except SpotIndexError as exc:
        return f"{type(exc).__name__}: {exc}"
    return report.to_dict()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 19),
    volatility=st.sampled_from((1.0, 1.5)),
    policy=st.sampled_from(sorted(POLICIES)),
    max_price=st.sampled_from((8.0, 9.5)),
    vm=st.sampled_from(("a1.xlarge", "m4.4xlarge", "z1.xlarge")),
    capacity=st.sampled_from(((4.0, 16.0), (8.0, 32.0), (64.0, 256.0))),
    on_demand=st.sampled_from((0.5, 40.0)),
    above=st.lists(st.floats(2.0**-40, 100.0), min_size=1, max_size=80),
)
def test_a_candidate_always_over_max_price_changes_nothing_but_the_candidates(
    seed, volatility, policy, max_price, vm, capacity, on_demand, above
):
    # A VM outside the composition that fits the job, priced over max_price
    # at every second of its trace from the first of the index's, is never
    # in a context's candidates, so each policy answers as without it, the
    # index is the same, and every output but the candidate list is the
    # same bits. It sorts first, among or last of the others by id. Its
    # on-demand price is no input of a run that sets max_price. Under
    # max_price 8.0 a quarter of the runs end in an error, which must be
    # the same too, and the rest migrate or are revoked.
    job = dataclasses.replace(baseline_job(), max_price=max_price)
    traces = traces_for(seed, volatility)
    spec = dataclasses.replace(
        CATALOG["m4.2xlarge"], id=vm, instance_type=vm, cpu_capacity=capacity[0],
        mem_capacity=capacity[1], on_demand_price=on_demand,
    )
    start = int(traces["m4.large"].timestamps[0])
    stamps = start + 60 * np.arange(len(above), dtype=np.int64)
    extra = PriceTrace.from_arrays(vm, stamps, max_price + np.array(above))
    without = run_or_error(job, policy, traces, CATALOG)
    with_it = run_or_error(job, policy, {**traces, vm: extra}, Catalog([*CATALOG, spec]))
    if isinstance(without, str):
        assert with_it == without
        return
    assert with_it.pop("candidates") == sorted([*without.pop("candidates"), vm])
    assert with_it == without


# order-preserving renaming of VM ids: a metamorphic property of the whole run


def renamed_market(job, traces, catalog, composition, new_id):
    """The inputs with every VM id, and each VM's instance type, which is
    its id here, renamed by new_id."""
    traces = {new_id(vm): PriceTrace.from_arrays(new_id(vm), t.timestamps, t.prices) for vm, t in traces.items()}
    catalog = Catalog(
        [dataclasses.replace(spec, id=new_id(spec.id), instance_type=new_id(spec.id)) for spec in catalog]
    )
    return job, traces, catalog, [new_id(vm) for vm in composition]


def renamed_text(doc, names: dict) -> str:
    """doc as JSON text with each name in it replaced by names[name], in
    one pass."""
    pattern = re.compile("|".join(map(re.escape, sorted(names, key=len, reverse=True))))
    return pattern.sub(lambda m: names[m.group()], json.dumps(doc, sort_keys=True))


@st.composite
def order_preserving_names(draw):
    """A map of COMPOSITION's ids that keeps their sort order: a prefix on
    each, or each one's rank after a prefix."""
    prefix = draw(st.text(alphabet="aqz0-_.~", min_size=1, max_size=3))
    ranked = draw(st.booleans())
    return {vm: f"{prefix}{k:02d}" if ranked else prefix + vm for k, vm in enumerate(COMPOSITION)}


@settings(max_examples=160, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 9),
    volatility=st.sampled_from((1.0, 1.5)),
    policy=st.sampled_from(sorted(POLICIES)),
    max_price=st.sampled_from((None, 9.5)),
    names=order_preserving_names(),
)
def test_renaming_vm_ids_in_their_order_renames_every_output(seed, volatility, policy, max_price, names):
    # ties go to the smallest id, so a renaming that keeps the ids' order
    # keeps every tie, and each output is the same up to the names: the
    # report, its replay and its ledger
    assert sorted(names.values()) == [names[vm] for vm in COMPOSITION]
    job = dataclasses.replace(baseline_job(), max_price=max_price)
    inputs = (job, traces_for(seed, volatility), CATALOG, COMPOSITION)
    outputs = []
    for job, traces, catalog, composition in (inputs, renamed_market(*inputs, names.get)):
        try:
            report = run_simulation(job, policy, traces, catalog, composition, params=study_params())
        except SpotIndexError as exc:
            outputs.append(f"{type(exc).__name__}: {exc}")
            continue
        doc = report.to_dict()
        outputs.append([doc, replay(doc, traces, catalog), ledger_from_report(doc, traces, catalog).to_dicts()])
    assert renamed_text(outputs[0], names) == json.dumps(outputs[1], sort_keys=True)


# splitting a phase in two: a metamorphic property of the whole run


def split_outputs(job, policy, traces) -> str:
    """The study setup's report of job under policy, less its job echo,
    with its replay and ledger, as JSON text; or the error that ends the
    run, as its type and message."""
    try:
        report = study_run(job, policy, traces, CATALOG)
    except SpotIndexError as exc:
        return f"{type(exc).__name__}: {exc}"
    doc = report.to_dict()
    outputs = [replay(doc, traces, CATALOG), ledger_from_report(doc, traces, CATALOG).to_dicts()]
    del doc["params"]["job"]
    return json.dumps([doc, *outputs], sort_keys=True)


@st.composite
def split_jobs(draw):
    """A job of up to four phases sized from SIZES, one task or a 3-task
    BSP gang, and the same job with one of its phases cut in two at a
    second inside it."""
    phases = draw(
        st.lists(st.tuples(st.integers(2, 1200), st.sampled_from(sorted(SIZES))), min_size=1, max_size=4)
    )
    i = draw(st.integers(0, len(phases) - 1))
    duration, size = phases[i]
    cut = draw(st.integers(1, duration - 1))
    split = [*phases[:i], (cut, size), (duration - cut, size), *phases[i + 1:]]
    fields = {"max_price": draw(st.sampled_from((None, 9.5)))}
    if draw(st.booleans()):
        fields.update(kind="bsp", tasks=3)
    return sized_job(phases, **fields), sized_job(split, **fields)


@settings(max_examples=160, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 9),
    volatility=st.sampled_from((1.0, 1.5)),
    policy=st.sampled_from([*sorted(POLICIES), BalancedPolicy(sufficiency="off")]),
    jobs=split_jobs(),
    shock=st.tuples(st.sampled_from(COMPOSITION), st.integers(0, 3000), st.integers(1, 600)),
)
def test_splitting_a_phase_in_two_changes_no_output_but_the_job_echo(seed, volatility, policy, jobs, shock):
    # Two consecutive phases of one cpu and mem ask for the decision tables
    # of the phase they split, so the engine, which looks for decision
    # ticks across phase boundaries, must step, move and bill the same:
    # every output but the job echo keeps its bits. That holds for a BSP
    # gang, which rolls back to its superstep barrier, where a split does
    # not move it. A revoked long_running task rolls back to the start of
    # its phase, which the split may move, so its work lost and all that
    # follows may change: such runs are left out. One VM is priced over
    # every max_price for a while, which revokes it where it is held.
    job, split = jobs
    vm, start, width = shock
    traces = priced_over(traces_for(seed, volatility), vm, start, start + width, 1000.0)
    whole = split_outputs(job, policy, traces)
    if job.kind != "bsp" and '"event": "revoke"' in whole:
        return
    assert split_outputs(split, policy, traces) == whole
