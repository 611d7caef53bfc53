"""The next-event engine against the one-second reference engine.

Random small markets go through both engines, which must produce the same
report JSON, or raise the same error, after asking their policies on the
same contexts, bit for bit, except for the decide calls that the policy's
decision table answers for the next-event engine, which check_decisions
holds to decide's own answers, and the asks that repeat the one before
them, whose answer the engine shares. The same runs check the engine's
invariants:
hold segments tile each task's lifetime, replay reproduces the totals,
availability lies in [0, 1], and downtime counts the seconds in which some
unfinished task did not work.
"""

import dataclasses
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spotindex import (
    Catalog,
    GapError,
    IndexCurve,
    JobSpec,
    MigrationModel,
    Phase,
    PricePoint,
    Policy,
    PriceTrace,
    RunParams,
    SelectionError,
    SimulationError,
    SpotIndexError,
    VmSpec,
    replay,
    run_simulation,
)

from spotindex.policies import (
    ASK,
    STAY,
    CostCentricPolicy,
    DecisionTable,
    PolicyDecision,
    build_policy,
)
from spotindex import billing, policies, simulator
from spotindex.billing import billed_holds, interval_cost
from spotindex.index import denormalize
from spotindex.prices import WINDOW_CELLS, left_sum, step_slice, window_sums
from spotindex.simulator import DONE, _Engine, window_stats
from spotindex.tracking import should_migrate

from conftest import COMPOSITION, baseline_job, build_catalog, priced_over, study_params, traces_for
from reference_engine import PerSecondEngine, run_per_second
from test_simulator import Choosing, flat_traces, one_phase_job, unit_params

CATALOG = build_catalog()
POLICIES = ("static", "cost", "avail", "balanced")
# (name, options) for build_policy: every built-in policy and both of
# balanced's non-default rules
POLICY_CHOICES = (
    *((name, {}) for name in POLICIES),
    ("balanced", {"target_rule": "first_feasible"}),
    ("balanced", {"sufficiency": "off"}),
)
CHOICE_PARAMS = [
    pytest.param(*choice, id="-".join([choice[0], *choice[1].values()])) for choice in POLICY_CHOICES
]
TARGETS = ("c4.2xlarge", "m4.2xlarge", "r4.xlarge")


@st.composite
def random_markets(draw, duration, periods):
    """One step-function trace per market. Periods are drawn independently,
    so they rarely divide the decision epoch, and a few steps jump to a
    price far above any max_price or onto the provider cap. Some markets
    also put every index member on the cap at once over one span, where
    the index is undefined, so ticks and revocations can land in it. Some
    give one market another's trace, at the same prices or one ulp above
    them: the two candidates then tie on utilized price and on score, or
    miss a tie by one ulp."""
    traces = {}
    gap = None
    if draw(st.booleans()):
        gap = draw(st.integers(0, duration // 3))
        gap = (gap, gap + draw(st.integers(1, 20)))
    for vm in COMPOSITION:
        spec = CATALOG[vm]
        period = draw(periods)
        spikes = (40.0, 10.0 * spec.on_demand_price)
        levels = draw(
            st.lists(
                st.tuples(st.integers(0, 19), st.floats(2.0, 10.0)).map(
                    lambda drawn: spikes[drawn[0]] if drawn[0] < len(spikes) else drawn[1]
                ),
                min_size=1,
                max_size=max(1, duration // period),
            )
        )
        points = [PricePoint(i * period, price) for i, price in enumerate(levels)]
        if gap is not None:
            a, b = gap
            after = PriceTrace(vm, points).price_at(b)
            points = [
                *(p for p in points if p.timestamp < a),
                PricePoint(a, spikes[1]),
                PricePoint(b, after),
                *(p for p in points if p.timestamp > b),
            ]
        traces[vm] = PriceTrace(vm, points)
    tie = draw(st.sampled_from((None, None, "equal", "ulp")))
    if tie is not None:
        a, b = draw(st.permutations(COMPOSITION))[:2]
        prices = traces[a].prices
        if tie == "ulp":
            prices = np.nextafter(prices, np.inf)
        traces[b] = PriceTrace.from_arrays(b, traces[a].timestamps.copy(), prices.copy())
    return traces


def spiked(trace, a, b):
    """trace, priced at 1000.0, over every max_price, over [a, b)."""
    stamps, prices = trace.timestamps.tolist(), trace.prices.tolist()
    return PriceTrace(
        trace.vm_id,
        [
            *(PricePoint(t, p) for t, p in zip(stamps, prices) if t < a),
            PricePoint(a, 1000.0),
            PricePoint(b, trace.price_at(b)),
            *(PricePoint(t, p) for t, p in zip(stamps, prices) if t > b),
        ],
    )


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(("long_running", "bsp")))
    tasks = draw(st.integers(2, 4) if kind == "bsp" else st.integers(1, 3))
    # Some BSP runs script one task alone onto a market that goes over every
    # max_price once the move is done, and so revoke that task alone. Their
    # epochs and price periods are longer than a superstep, so the revoked
    # task's catch-up, which is shorter, ends between other stops rather
    # than on one. Their max_price stays above the ordinary price levels and
    # they have no wall-clock limit, so most of them get that far.
    alone = kind == "bsp" and draw(st.booleans())
    superstep = draw(st.integers(10, 90))
    slow = st.integers(superstep + 1, 2 * superstep)
    # up to 6 phases of two sizes, some shorter than an epoch: the engine
    # then looks across several phase boundaries, and repeated sizes,
    # between two decisions, some of them between two ticks
    phases = tuple(
        Phase(draw(st.integers(20, 150)), cpu, mem)
        for cpu, mem in draw(
            st.lists(st.sampled_from(((2.0, 8.0), (4.0, 16.0))), min_size=1, max_size=6)
        )
    )
    job = JobSpec(
        name="random",
        kind=kind,
        tasks=tasks,
        phases=phases,
        mem_footprint=draw(st.sampled_from((1.0, 4.0, 12.5, 30.0))),
        max_price=draw(st.sampled_from((None, 100.0, 500.0, *(() if alone else (8.0, 9.5))))),
        reference_capacity=(8.0, 32.0),
    )
    migration = MigrationModel(
        rate=draw(st.sampled_from((1.0, 0.0))),
        fixed_floor=draw(st.sampled_from((0, 1, 5))),
        revocation_restart=draw(st.sampled_from((0, 1, 7, 30))),
    )
    params = RunParams(
        epoch=draw(slow if alone else st.integers(3, 45)),
        horizon=draw(st.sampled_from((15, 60, 600))),
        sigma_window=draw(st.integers(5, 240)),
        index_reference=draw(st.sampled_from(("window", "instant"))),
        bsp_superstep=superstep,
        treat_cap_as_revocation=draw(st.booleans()),
        migration=migration,
        max_wallclock=None if alone else draw(st.sampled_from((None, None, None, 150, 400))),
    )
    traces = draw(random_markets(3 * job.total_work, slow if alone else st.integers(3, 97)))
    # no task is done before total_work, so every scripted move is reached
    move = st.tuples(
        st.integers(0, job.total_work // 2 if alone else job.total_work - 1),
        st.integers(0, tasks - 1),
        st.sampled_from(TARGETS),
    )
    if alone:
        t, idx, target = draw(move)
        done = t + migration.seconds(job.mem_footprint)
        spike = draw(st.integers(done + 1, done + 2 * superstep))
        trace = traces[target]
        stamps, prices = trace.timestamps.tolist(), trace.prices.tolist()
        points = [PricePoint(t, p) for t, p in zip(stamps, prices) if t < spike]
        traces[target] = PriceTrace(target, [*points, PricePoint(spike, 1000.0)])
        forced = [(t, idx, target)]
    else:
        forced = draw(st.lists(move, max_size=3))
        # Some runs price the earliest scripted move's destination over
        # every max_price for a while that starts strictly inside the copy,
        # so that where the move gets that far, it aborts on it.
        copy = migration.seconds(job.mem_footprint)
        if forced and copy > 1 and draw(st.booleans()):
            t, _, target = min(forced)
            spike = draw(st.integers(t + 1, t + copy - 1))
            traces[target] = spiked(traces[target], spike, spike + draw(st.integers(1, 30)))
    return {
        "job": job,
        "policy": draw(st.sampled_from(POLICY_CHOICES)),
        "traces": traces,
        "params": params,
        "forced_migrations": forced,
    }


class Recording(Policy):
    """Another policy, logging the context of each select and decide call
    with every float as float.hex, and the pick or the action it returned.
    Its decision tables are the other policy's."""

    def __init__(self, inner: Policy):
        self.inner = inner
        self.name = inner.name
        self.asked = []

    def _log(self, call, ask, ctx):
        views = [(v.spec.id, *bits(v.price, v.window_mean, v.window_std)) for v in ctx.candidates]
        entry = [
            call,
            ctx.t,
            ctx.current,
            *bits(ctx.cpu_used, ctx.mem_used, ctx.index_now, ctx.index_reference),
            views,
        ]
        self.asked.append(entry)
        answer = ask(ctx)
        entry.append(answer.action if call == "decide" else answer)
        return answer

    def select(self, ctx):
        return self._log("select", self.inner.select, ctx)

    def decide(self, ctx):
        return self._log("decide", self.inner.decide, ctx)

    def decisions(self, block, current, cpu_used, mem_used):
        return self.inner.decisions(block, current, cpu_used, mem_used)


def outcome(run, scenario):
    """The report, its JSON or the error's text, and the policy's log."""
    name, options = scenario["policy"]
    policy = Recording(build_policy(name, **options))
    try:
        report = run(
            scenario["job"],
            policy,
            scenario["traces"],
            CATALOG,
            COMPOSITION,
            params=scenario["params"],
            forced_migrations=scenario["forced_migrations"],
        )
    except SpotIndexError as exc:
        return None, f"{type(exc).__name__}: {exc}", policy.asked
    return report, json.dumps(report.to_dict(), sort_keys=True), policy.asked


def check_invariants(report, traces):
    holds = [e for e in report.events if e["event"] == "hold"]
    t_end = report.wallclock_seconds
    down = np.zeros(t_end, dtype=bool)
    for task, done_at in enumerate(report.finish_times):
        mine = [e for e in holds if e["task"] == task]
        covered = np.zeros(done_at, dtype=np.int64)
        working = np.zeros(done_at, dtype=np.int64)
        for vm in {e["vm"] for e in mine}:
            on_vm = np.zeros(done_at, dtype=np.int64)
            for e in mine:
                if e["vm"] == vm:
                    assert 0 <= e["t0"] < e["t1"] <= done_at
                    on_vm[e["t0"]:e["t1"]] += 1
            # one VM is never held twice at once by the same task
            assert on_vm.max() <= 1
            covered += on_vm
        for e in mine:
            if e["working"]:
                working[e["t0"]:e["t1"]] += 1
        # the holds tile [0, done_at): always a VM, at most two during a
        # move, and never two working at once
        assert covered.min() >= 1 and covered.max() <= 2
        assert working.max() <= 1
        revokes = [e for e in report.events if e["event"] == "revoke" and e["task"] == task]
        lost = sum(e["work_lost"] for e in revokes)
        assert working.sum() == report.work_seconds + lost
        down[:done_at] |= working == 0
    assert report.downtime_seconds == int(down.sum())
    assert 0.0 <= report.availability <= 1.0
    totals = replay(report, traces, CATALOG)
    for key, value in totals.items():
        assert getattr(report, key) == value, key


def check_asked(asked, reference_asked):
    """asked is reference_asked less some decide calls (the ones a decision
    table answered, which check_decisions and the equality of the reports
    check) and less some asks equal to the reference's ask before them, at
    the same t (the ones whose answer the engine shares)."""
    matched = 0
    previous = None
    for entry in reference_asked:
        if matched < len(asked) and asked[matched] == entry:
            matched += 1
        else:
            assert entry[0] == "decide" or entry == previous, entry
        previous = entry
    assert matched == len(asked)


def check_scenario(scenario):
    report, text, asked = outcome(run_simulation, scenario)
    _, reference, reference_asked = outcome(run_per_second, scenario)
    assert text == reference
    check_asked(asked, reference_asked)
    if report is not None:
        check_invariants(report, scenario["traces"])


@settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenarios())
def test_next_event_engine_matches_per_second_engine(scenario):
    check_scenario(scenario)


def aborted_moves_in_a_partly_revoked_gang():
    """The scenario of test_aborted_moves_in_a_partly_revoked_gang: task 1's
    move's destination crosses over max_price mid-copy at t=110, then task
    0's move's source at t=215."""
    traces = flat_traces()
    traces["r4.xlarge"] = PriceTrace(
        "r4.xlarge", [PricePoint(0, 6.0), PricePoint(110, 30.0), PricePoint(150, 6.0)]
    )
    traces["m4.2xlarge"] = PriceTrace(
        "m4.2xlarge", [PricePoint(0, 6.0), PricePoint(215, 30.0), PricePoint(300, 6.0)]
    )
    return {
        "job": one_phase_job(kind="bsp", tasks=3, mem_footprint=20.0),
        "policy": ("static", {}),
        "traces": traces,
        "params": unit_params(bsp_superstep=50),
        "forced_migrations": [(50, 0, "m4.2xlarge"), (100, 1, "r4.xlarge"), (200, 0, "r4.xlarge")],
    }


class CheckedCrossings(_Engine):
    """The engine, checking as each second's steps begin that every VM a
    task holds is found over max_price or on the cap by the crossing cache
    (_held_crossed) exactly where its price at t is (_crossed)."""

    def _step(self, t, forced_queue):
        for task in self.tasks:
            for vm in task.holds:
                assert self._held_crossed(vm, t) == self._crossed(vm, t), (t, task.idx, vm)
        return super()._step(t, forced_queue)


def run_checked(*args, **kwargs):
    """run_simulation, on CheckedCrossings."""
    with mock.patch("spotindex.simulator._Engine", CheckedCrossings):
        return run_simulation(*args, **kwargs)


@settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenarios())
@example(aborted_moves_in_a_partly_revoked_gang())
def test_a_held_vm_is_dropped_at_a_step_where_its_crossing_is(scenario):
    # every acquisition takes a VM that is not dropped, and the engine
    # steps at every held VM's crossing, where the check lets go of it: so
    # the crossing cache answers each step's check as a price lookup does,
    # caps, partial BSP revocations, aborted moves and forced moves among
    # the scenarios; the example adds a move aborted by its destination
    outcome(run_checked, scenario)


# the decision tables against the scalar decide


def check_decisions(scenario, policy):
    """At every epoch tick of the reference engine's scalar market, for each
    candidate held at each phase's utilization, policy's decision table
    answers as decide does: STAY where decide stays, and where it moves the
    row of its target, with reason(k) decide's reason; and the table
    answers ASK where no context can hold the candidate and, where one can,
    only where a live score is NaN, which decide then reports or raises as
    a SelectionError. The index is over the scenario's "composition",
    where given."""
    job, params = scenario["job"], scenario["params"]
    composition = scenario.get("composition", COMPOSITION)
    args = (job, policy, scenario["traces"], CATALOG, composition, params, None, None, None)
    engine = _Engine(*args)
    reference = PerSecondEngine(*args)
    ticks = params.epoch * np.arange(1, 3 * job.total_work // params.epoch + 1)
    block = engine._block(ticks)
    rows = {spec.id: row for row, spec in enumerate(block.specs)}
    # each tick's context with no VM held; its market is the same at every
    # utilization and held VM
    contexts = {}
    for t in ticks.tolist():
        try:
            contexts[t] = reference._context(t, job.phases[0], None)
        except SpotIndexError:
            contexts[t] = None
    for spec in engine.candidates:
        for phase in set(job.phases):
            table = policy.decisions(block, spec.id, phase.cpu, phase.mem)
            for k, (t, answer) in enumerate(zip(ticks.tolist(), table.answers.tolist())):
                ctx = contexts[t]
                held = ctx is not None and any(v.spec.id == spec.id for v in ctx.candidates)
                if not held:
                    assert answer == ASK, (t, spec.id, phase)
                    continue
                ctx = dataclasses.replace(
                    ctx, cpu_used=phase.cpu, mem_used=phase.mem, current=spec.id
                )
                try:
                    decision = policy.decide(ctx)
                except SelectionError as exc:
                    assert answer == ASK and "a score is NaN" in str(exc), (t, spec.id, phase)
                    continue
                if answer == ASK:
                    # a held tick is left to decide only where a live score is NaN
                    assert any(math.isnan(score) for _, score in decision.scores), (t, spec.id, phase)
                    continue
                moved = decision.action == PolicyDecision.MIGRATE
                assert answer == (rows[decision.target] if moved else STAY), (t, spec.id, phase)
                if moved:
                    assert table.reason(k) == decision.reason, (t, spec.id, phase)


@pytest.mark.parametrize("name, options", CHOICE_PARAMS)
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario=scenarios())
def test_stays_mask_covers_only_ticks_that_stay(name, options, scenario):
    # a table's STAY answers are its stays mask, and cover exactly the
    # ticks where decide stays
    check_decisions(scenario, build_policy(name, **options))


def test_balanced_tables_score_where_the_eq5_gate_passes_at_one_tick():
    # m4.large, which the job's requirement keeps out of the candidates but
    # the index holds, priced 90 over [1200, 1260): the index at tick 1200
    # alone pays for a move between any two candidates (Eq. 5). So
    # balanced's table scores the block, where it reads no moments without
    # the spike, and answers as decide does at every tick; the run moves
    # at t=1200, on both engines
    traces = priced_over(traces_for(0), "m4.large", 1200, 1260, 90.0)
    job, params = baseline_job(), study_params()
    ticks = params.epoch * np.arange(1, 3 * job.total_work // params.epoch + 1)

    def block_of(traces):
        args = (job, build_policy("balanced"), traces, CATALOG, COMPOSITION, params, None, None, None)
        return _Engine(*args)._block(ticks)

    block, plain = block_of(traces), block_of(traces_for(0))
    normalized = block.normalized()
    for i in range(len(block.specs)):
        others = ~block.over
        others[i] = False
        gate = should_migrate(block.index_now, normalized[i], normalized)
        passes = block.ok & ~block.over[i] & (gate & others).any(axis=0)
        assert ticks[passes].tolist() == [1200]
    for read in (plain, block):
        build_policy("balanced").decisions(read, "r4.xlarge", 4.0, 16.0)
    assert ("_moments" in plain.__dict__, "_moments" in block.__dict__) == (False, True)
    scenario = {"job": job, "traces": traces, "params": params, "forced_migrations": []}
    for rule in ("sharpe", "first_feasible"):
        policy = build_policy("balanced", target_rule=rule)
        check_decisions(scenario, policy)
        reports = [
            run(job, policy, traces, CATALOG, COMPOSITION, params=params).to_dict()
            for run in (run_simulation, run_per_second)
        ]
        assert reports[0] == reports[1]
        moves = [(e["t"], e["src"], e["dst"]) for e in reports[0]["events"] if e["event"] == "migrate"]
        assert moves == [(1200, "r4.xlarge", "c4.2xlarge")]


@pytest.mark.parametrize("seed", (0, 7919))
@pytest.mark.parametrize("name, options", CHOICE_PARAMS)
def test_tables_and_engines_agree_where_a_candidate_outside_the_index_has_nan_scores(
    name, options, seed
):
    # c4.2xlarge, a candidate outside the index, at 1e200 over [600, 1200)
    # under max_price 1e300: its windows' squares overflow, so its std, and
    # every score that reads it, is NaN there. Each table answers as decide
    # does, leaving to decide the held ticks where a live score is NaN, and
    # both engines end the run alike. balanced's Eq. 5 gate blocks every
    # move there, so its sharpe rule runs to first_feasible's report; with
    # the gate off, decide meets the NaN score and the run ends in its error
    composition = [vm for vm in COMPOSITION if vm != "c4.2xlarge"]
    job, params = dataclasses.replace(baseline_job(), max_price=1e300), study_params()
    traces = priced_over(traces_for(seed), "c4.2xlarge", 600, 1200, 1e200)

    def ending(run, policy):
        try:
            report = run(job, policy, traces, CATALOG, composition, params=params, seed=seed)
        except SpotIndexError as exc:
            return f"{type(exc).__name__}: {exc}"
        return report.to_dict()

    policy = build_policy(name, **options)
    with np.errstate(all="ignore"):
        scenario = {"job": job, "traces": traces, "params": params, "composition": composition}
        check_decisions(scenario, policy)
        report = ending(run_simulation, policy)
        assert report == ending(run_per_second, policy)
        if (name, options) == ("balanced", {}):
            assert report == ending(run_simulation, build_policy(name, target_rule="first_feasible"))


def test_a_study_run_never_asks_decide():
    # a study run asks decide at every epoch tick on the reference engine;
    # with the decision tables, the next-event engine asks it at none
    scenario = {
        "job": baseline_job(),
        "traces": traces_for(0),
        "params": study_params(),
        "forced_migrations": [],
    }
    for name in POLICIES:
        scenario["policy"] = (name, {})
        report, text, asked = outcome(run_simulation, scenario)
        _, reference, reference_asked = outcome(run_per_second, scenario)
        assert text == reference
        check_asked(asked, reference_asked)
        assert not any(entry[0] == "decide" for entry in asked), name
        assert any(entry[0] == "decide" for entry in reference_asked), name


# pinned mutants: each breaks one of the engine's shortcuts, on a scenario
# the oracle above found, and must change the report


def literal_traces(steps):
    return {vm: PriceTrace(vm, [PricePoint(t, p) for t, p in points]) for vm, points in steps.items()}


def reports_of_both(scenario):
    return [outcome(run, scenario)[1] for run in (run_simulation, run_per_second)]


def check_mutant_changes_report(scenario, patch):
    engine, reference = reports_of_both(scenario)
    assert engine == reference
    with patch:
        mutant, unchanged = reports_of_both(scenario)
    assert unchanged == reference
    assert mutant != reference


def cost_moves_at_tick_12():
    """c4.2xlarge and r4.xlarge tie at 2.0 until c4.2xlarge, which both
    tasks hold, rises to 3.0 at t=11: cost stays at ticks 3, 6 and 9, where
    the move saves nothing, and moves to r4.xlarge at tick 12. m4.large, at
    2.5, is a candidate throughout that cost never picks."""
    return {
        "job": JobSpec(
            name="random",
            phases=(Phase(20, 2.0, 8.0),),
            tasks=2,
            mem_footprint=1.0,
            reference_capacity=(8.0, 32.0),
        ),
        "policy": ("cost", {}),
        "traces": literal_traces(
            {
                "c4.2xlarge": [(0, 2.0), (11, 3.0)],
                "m4.2xlarge": [(0, 40.0)],
                "m4.large": [(0, 2.5)],
                "r4.xlarge": [(0, 2.0)],
            }
        ),
        "params": RunParams(
            epoch=3,
            horizon=15,
            sigma_window=5,
            migration=MigrationModel(rate=1.0, revocation_restart=0),
        ),
        "forced_migrations": [],
    }


def check_table_mutant_changes_report(edit):
    """check_mutant_changes_report, with cost's decision tables' answers
    changed by edit(answers, block) in place."""
    answering = CostCentricPolicy.decisions

    def mutant(self, block, current, cpu_used, mem_used):
        table = answering(self, block, current, cpu_used, mem_used)
        answers = table.answers.copy()
        edit(answers, block)
        return DecisionTable(answers, table.reason)

    check_mutant_changes_report(
        cost_moves_at_tick_12(), mock.patch.object(CostCentricPolicy, "decisions", mutant)
    )


def test_mutant_mask_one_tick_too_wide_changes_the_report():
    # STAY answers that also cover the tick after each one skip the move
    def wider(answers, block):
        answers[1:][answers[:-1] == STAY] = STAY

    check_table_mutant_changes_report(wider)


def test_mutant_move_to_another_candidate_changes_the_report():
    # a move answered with m4.large's row moves there, not to r4.xlarge
    def elsewhere(answers, block):
        answers[answers >= 0] = [spec.id for spec in block.specs].index("m4.large")

    check_table_mutant_changes_report(elsewhere)


def test_mutant_crossing_lookup_blind_to_the_cap_changes_the_report():
    # Every market sits on its cap for the one second t=11, below max_price
    # 500, and under treat_cap_as_revocation that revokes the gang there. A
    # crossing lookup that sees only the steps over max_price does not stop
    # at t=11, so the run never revokes it.
    def over_max_price_only(self, vm):
        trace = self.traces[vm]
        return trace.timestamps[trace.prices > self.max_price]

    scenario = {
        "job": JobSpec(
            name="random",
            kind="bsp",
            phases=(Phase(20, 2.0, 8.0),),
            tasks=2,
            mem_footprint=1.0,
            max_price=500.0,
            reference_capacity=(8.0, 32.0),
        ),
        "policy": ("static", {}),
        "traces": literal_traces(
            {
                "c4.2xlarge": [(0, 40.0), (2, 1000.0)],
                "m4.2xlarge": [(0, 40.0), (11, 400.0), (12, 40.0)],
                "m4.large": [(0, 40.0), (11, 100.0), (12, 40.0)],
                "r4.xlarge": [(0, 40.0), (11, 266.0), (12, 40.0)],
            }
        ),
        "params": RunParams(
            epoch=22,
            horizon=15,
            sigma_window=5,
            bsp_superstep=21,
            treat_cap_as_revocation=True,
            migration=MigrationModel(rate=1.0, revocation_restart=0),
        ),
        "forced_migrations": [(0, 0, "c4.2xlarge")],
    }
    check_mutant_changes_report(
        scenario, mock.patch.object(_Engine, "_over_starts", over_max_price_only)
    )


def one_second_late(self, vm, t):
    # whether the price crossed at t - 1, which the engine did not step
    return self._next_crossing(vm, t - 1) == t - 1


def blind_to_the_destination(self, vm, t):
    if any(task.mig_dst == vm for task in self.tasks):
        return False
    return self._next_crossing(vm, t) == t


@pytest.mark.parametrize("mutant", [one_second_late, blind_to_the_destination])
def test_mutant_held_vm_check_changes_the_report(mutant):
    # the engine's check of a held VM that reads its crossing cache a
    # second late never revokes it or aborts a move; one that skips a
    # move's destination completes task 1's move onto r4.xlarge
    check_mutant_changes_report(
        aborted_moves_in_a_partly_revoked_gang(),
        mock.patch.object(_Engine, "_held_crossed", mutant),
    )


# the decision tables read the formulas decide reads: a changed formula
# changes both, so the engine still matches the reference


def gate_that_always_passes(index_value, src_normalized, dst_normalized):
    return np.ones(np.broadcast(index_value, src_normalized, dst_normalized).shape, dtype=bool)


def sharpe_floored_at_one(index_reference, utilized_mean, sigma):
    return (index_reference - utilized_mean) / np.maximum(sigma, 1.0)


def free_migration(price_src, price_dst, t_m):
    return 0.0 * (price_src + price_dst)


def saving_over_a_day(price_src, price_dst, horizon):
    return (price_src - price_dst) * 86400 / 3600.0


@pytest.mark.parametrize(
    "policy, formula, patched",
    [
        (("balanced", {}), "should_migrate", gate_that_always_passes),
        (("balanced", {"sufficiency": "off"}), "sharpe", sharpe_floored_at_one),
        (("cost", {}), "migration_loss", free_migration),
        (("cost", {}), "horizon_saving", saving_over_a_day),
    ],
    ids=["should_migrate", "sharpe", "migration_loss", "horizon_saving"],
)
def test_stays_masks_follow_a_changed_formula(policy, formula, patched):
    changed = False
    for seed in range(4):
        scenario = {
            "job": baseline_job(),
            "policy": policy,
            "traces": traces_for(seed, 1.5),
            "params": study_params(),
            "forced_migrations": [],
        }
        unpatched = outcome(run_simulation, scenario)[1]
        with mock.patch.object(policies, formula, patched):
            engine, reference = reports_of_both(scenario)
        assert engine == reference, seed
        changed |= engine != unpatched
    assert changed


# edge cases of the next-event rules


def both_engines(*args, **kwargs):
    report = run_simulation(*args, **kwargs)
    reference = run_per_second(*args, **kwargs)
    assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
        reference.to_dict(), sort_keys=True
    )
    return report


def test_max_wallclock_bounds_the_run():
    # the 600 s job's last second of work is second 599
    report = both_engines(
        one_phase_job(), "static", flat_traces(), CATALOG, COMPOSITION,
        params=unit_params(max_wallclock=599),
    )
    assert report.wallclock_seconds == 600
    for run in (run_simulation, run_per_second):
        with pytest.raises(SimulationError, match="no convergence after 598 simulated seconds"):
            run(
                one_phase_job(), "static", flat_traces(), CATALOG, COMPOSITION,
                params=unit_params(max_wallclock=598),
            )


def test_forced_move_onto_capped_target_is_rejected():
    # the cap is below max_price, but under treat_cap_as_revocation a capped
    # target is as priced out as one above max_price
    traces = flat_traces()
    cap = 10.0 * CATALOG["r4.xlarge"].on_demand_price
    traces["r4.xlarge"] = PriceTrace("r4.xlarge", [PricePoint(0, 6.0), PricePoint(200, cap)])
    for run in (run_simulation, run_per_second):
        with pytest.raises(SimulationError, match="'r4.xlarge' is above max price or on the cap at t=300"):
            run(
                one_phase_job(max_price=2 * cap), "static", traces, CATALOG, COMPOSITION,
                params=unit_params(treat_cap_as_revocation=True),
                forced_migrations=[(300, 0, "r4.xlarge")],
            )


def test_bsp_lockstep_holds_after_partial_revocation():
    # task 0 is revoked alone and catches up alone; the gang then works in
    # lockstep again and finishes together
    traces = flat_traces()
    traces["r4.xlarge"] = PriceTrace("r4.xlarge", [PricePoint(0, 6.0), PricePoint(400, 30.0)])
    report = both_engines(
        one_phase_job(kind="bsp", tasks=3, phases=(Phase(1200, 4.0, 16.0),)),
        "static", traces, CATALOG, COMPOSITION,
        params=unit_params(),
        forced_migrations=[(150, 0, "r4.xlarge")],
    )
    assert report.revocations == 1
    assert report.finish_times == [1390, 1390, 1390]


def test_bsp_gang_catches_up_after_partial_revocations():
    # tasks 0 and 2 are each revoked alone, in different supersteps; each
    # time the gang stalls through the restart, waits while the revoked task
    # redoes its lost work, then works in lockstep again
    traces = flat_traces()
    traces["r4.xlarge"] = PriceTrace("r4.xlarge", [PricePoint(0, 6.0), PricePoint(470, 30.0)])
    traces["m4.2xlarge"] = PriceTrace(
        "m4.2xlarge", [PricePoint(0, 6.0), PricePoint(1010, 30.0)]
    )
    report = both_engines(
        one_phase_job(kind="bsp", tasks=3, phases=(Phase(1500, 4.0, 16.0),)),
        "static", traces, CATALOG, COMPOSITION,
        params=unit_params(bsp_superstep=100),
        forced_migrations=[(150, 0, "r4.xlarge"), (700, 2, "m4.2xlarge")],
    )
    revokes = [e for e in report.events if e["event"] == "revoke"]
    assert [(e["task"], e["work_lost"]) for e in revokes] == [(0, 40), (2, 20)]
    migration = unit_params().migration
    stalls = report.migrations * migration.seconds(30.0) + sum(
        migration.revocation_restart + e["work_lost"] for e in revokes
    )
    assert report.migrations == 2
    assert report.downtime_seconds == stalls
    assert report.finish_times == [1500 + stalls] * 3


def test_aborted_moves_in_a_partly_revoked_gang():
    # task 0 moves off the shared VM; task 1's destination spikes mid-copy;
    # then task 0's source spikes mid-copy, which revokes task 0 alone
    scenario = aborted_moves_in_a_partly_revoked_gang()
    report = both_engines(
        scenario["job"], "static", scenario["traces"], CATALOG, COMPOSITION,
        params=scenario["params"], forced_migrations=scenario["forced_migrations"],
    )
    aborts = [(e["task"], e["cause"]) for e in report.events if e["event"] == "abort_migration"]
    assert aborts == [(1, "dst_price"), (0, "src_price")]
    assert [e["task"] for e in report.events if e["event"] == "revoke"] == [0]


# the step order, which both engines share (_Engine._step), so the oracle
# above cannot see it


def test_step_order_stall_end_before_revocation_check():
    # the 30 s move onto r4.xlarge ends at t=330, the second r4.xlarge goes
    # over max_price: the move completes, then the new VM is revoked (checking
    # first would abort the move instead)
    traces = flat_traces()
    traces["r4.xlarge"] = PriceTrace("r4.xlarge", [PricePoint(0, 6.0), PricePoint(330, 30.0)])
    report = both_engines(
        one_phase_job(), "static", traces, CATALOG, COMPOSITION,
        params=unit_params(),
        forced_migrations=[(300, 0, "r4.xlarge")],
    )
    assert (report.migrations, report.aborted_migrations, report.revocations) == (1, 0, 1)
    revoke = [e for e in report.events if e["event"] == "revoke"]
    assert [(e["t"], e["vm"], e["work_lost"]) for e in revoke] == [(330, "r4.xlarge", 300)]


def test_step_order_scripted_move_before_decision_tick():
    # at the epoch tick t=60 the scripted move starts first, so the policy,
    # which would move to m4.2xlarge, is not asked until the next tick (asking
    # first would leave the scripted move a migrating task)
    report = both_engines(
        one_phase_job(), Choosing("decide", "m4.2xlarge"), flat_traces(), CATALOG, COMPOSITION,
        params=unit_params(),
        forced_migrations=[(60, 0, "r4.xlarge")],
    )
    moves = [(e["t"], e["dst"], e["forced"]) for e in report.events if e["event"] == "migrate"]
    assert moves == [(60, "r4.xlarge", True), (120, "m4.2xlarge", False)]
    assert report.final_vms == ["m4.2xlarge"]


# the answers the engine shares among the tasks that ask with one context


class ByPhase(Policy):
    """Starts on c4.2xlarge; moves to m4.2xlarge once its phase uses 4
    cpus. It has no decision table, so it is asked at every epoch tick."""

    name = "by-phase"

    def select(self, ctx):
        return "c4.2xlarge"

    def decide(self, ctx):
        if ctx.cpu_used == 4.0 and ctx.current != "m4.2xlarge":
            return PolicyDecision(PolicyDecision.MIGRATE, "m4.2xlarge", reason="phase")
        return PolicyDecision(PolicyDecision.STAY)


def test_tasks_in_different_phases_or_on_different_vms_get_their_own_answers():
    # Task 1 moves onto r4.xlarge at t=100, which is revoked at t=150: task
    # 1 rolls back to work 0 and restarts on c4.2xlarge until t=240. At the
    # tick t=240 both tasks hold c4.2xlarge, task 0 in the second phase and
    # task 1 in the first, so only task 0 moves. At t=480 both are in the
    # second phase, task 0 on m4.2xlarge, which it keeps, and task 1 on
    # c4.2xlarge, which it leaves. Before t=100, both tasks ask with one
    # context at each tick, and the engine asks once for both.
    traces = flat_traces()
    traces["r4.xlarge"] = PriceTrace("r4.xlarge", [PricePoint(0, 6.0), PricePoint(150, 30.0)])
    job = one_phase_job(tasks=2, phases=(Phase(200, 2.0, 8.0), Phase(400, 4.0, 16.0)))
    asked = {}
    reports = []
    for run in (run_simulation, run_per_second):
        policy = Recording(ByPhase())
        report = run(
            job, policy, traces, CATALOG, COMPOSITION,
            params=unit_params(), forced_migrations=[(100, 1, "r4.xlarge")],
        )
        asked[run] = policy.asked
        reports.append(json.dumps(report.to_dict(), sort_keys=True))
    assert reports[0] == reports[1]
    check_asked(asked[run_simulation], asked[run_per_second])
    moves = [(e["t"], e["task"], e["dst"]) for e in report.events if e["event"] == "migrate"]
    assert moves == [(100, 1, "r4.xlarge"), (240, 0, "m4.2xlarge"), (480, 1, "m4.2xlarge")]

    def ticks(log, t):
        return [entry[-1] for entry in log if entry[:2] == ["decide", t]]

    stay, move = PolicyDecision.STAY, PolicyDecision.MIGRATE
    assert ticks(asked[run_per_second], 60) == [stay, stay]
    assert ticks(asked[run_simulation], 60) == [stay]
    assert ticks(asked[run_simulation], 240) == [move, stay]
    assert ticks(asked[run_simulation], 480) == [stay, move]


class AskedAtEveryTick(Recording):
    """Recording without the decision tables: asked at every epoch tick."""

    decisions = Policy.decisions


@pytest.mark.parametrize("name", POLICIES)
def test_a_gang_asks_once_per_context(name):
    # an 8-task BSP gang in lockstep holds one VM, so the engine's asks are
    # the reference's with each repeat left out
    job = JobSpec(
        name="gang", kind="bsp", tasks=8, phases=(Phase(1800, 2.0, 8.0), Phase(1800, 4.0, 16.0)),
        reference_capacity=(8.0, 32.0),
    )
    asked = []
    for run in (run_simulation, run_per_second):
        policy = AskedAtEveryTick(build_policy(name))
        run(job, policy, traces_for(0), CATALOG, COMPOSITION, params=study_params())
        asked.append(policy.asked)
    engine, reference = asked
    assert engine == [entry for i, entry in enumerate(reference) if not i or entry != reference[i - 1]]
    assert 8 * len(engine) <= len(reference)


def test_a_table_reason_is_read_once_per_move():
    # each of the 8 tasks of a BSP gang reads its move's reason(k) from the
    # table once, and no reason is read at a tick the table answers STAY
    job = JobSpec(
        name="gang", kind="bsp", tasks=8, phases=(Phase(1800, 2.0, 8.0), Phase(1800, 4.0, 16.0)),
        reference_capacity=(8.0, 32.0),
    )
    read = []
    answering = CostCentricPolicy.decisions

    def counted(self, block, current, cpu_used, mem_used):
        table = answering(self, block, current, cpu_used, mem_used)

        def reason(k):
            read.append(table.answers[k])
            return table.reason(k)

        return DecisionTable(table.answers, reason)

    with mock.patch.object(CostCentricPolicy, "decisions", counted):
        report = run_simulation(job, "cost", traces_for(0), CATALOG, COMPOSITION, params=study_params())
    moves = [event for event in report.events if event["event"] == "migrate"]
    assert moves and len(read) == len(moves) == report.migrations
    assert min(read) >= 0


# steps the engine takes


def count_steps(*args, **kwargs):
    """The report of run_simulation and the seconds it stepped. Each call of
    _gang_low is checked to come while some task is unfinished."""
    stepped = []
    step, gang_low = _Engine._step, _Engine._gang_low

    def counted(self, t, forced_queue):
        stepped.append(t)
        return step(self, t, forced_queue)

    def checked(self):
        assert any(task.state != DONE for task in self.tasks)
        return gang_low(self)

    with mock.patch.object(_Engine, "_step", counted), mock.patch.object(_Engine, "_gang_low", checked):
        return run_simulation(*args, **kwargs), stepped


@pytest.mark.parametrize("kind, tasks", [("long_running", 1), ("bsp", 3)])
def test_a_migration_costs_two_steps(kind, tasks):
    # the run's one epoch tick is t=0; each scripted move is stepped where
    # it starts and where it ends, and nowhere between
    job = one_phase_job(kind=kind, tasks=tasks)
    params = unit_params(epoch=10_000)
    t_m = params.migration.seconds(job.mem_footprint)
    _, fixed = count_steps(job, "static", flat_traces(), CATALOG, COMPOSITION, params=params)
    for n in range(1, 4):
        starts = [100 + 150 * i for i in range(n)]
        moves = [(t, 0, ("r4.xlarge", "m4.2xlarge")[i % 2]) for i, t in enumerate(starts)]
        report, stepped = count_steps(
            job, "static", flat_traces(), CATALOG, COMPOSITION,
            params=params, forced_migrations=moves,
        )
        assert report.migrations == n
        assert len(stepped) == len(fixed) + 2 * n
        for t in starts:
            assert t in stepped and t + t_m in stepped


# the slice sums against the Python loops they replaced


def loop_steps(timestamps, values, t0, t1):
    lo = int(np.searchsorted(timestamps, t0, side="right")) - 1
    hi = int(np.searchsorted(timestamps, t1, side="left"))
    cursor = t0
    for i in range(lo, hi):
        end = min(int(timestamps[i + 1]) if i + 1 < len(timestamps) else t1, t1)
        if end > cursor:
            yield cursor, end, float(values[i]), i
            cursor = end


def loop_window_stats(trace, t, window):
    t0 = max(t - window, trace.first_ts)
    if t <= t0:
        return trace.price_at(t), 0.0
    weighted = 0.0
    squared = 0.0
    span = 0
    for a, b, price, _ in loop_steps(trace.timestamps, trace.prices, t0, t):
        dt = b - a
        weighted += price * dt
        squared += price * price * dt
        span += dt
    mean = weighted / span
    return mean, math.sqrt(max(squared / span - mean * mean, 0.0))


def loop_integrate(curve, t0, t1):
    total = 0
    for a, b, value, i in loop_steps(curve.timestamps, curve.values, t0, t1):
        if curve._counts[i] == 0:
            raise GapError(f"no effective composition members at {a}")
        total += (b - a) * value
    return total


def bits(*values):
    return [float(v).hex() for v in values]


@st.composite
def stepped(draw):
    stamps = draw(st.lists(st.integers(0, 4000), min_size=1, max_size=120))
    # prices with full mantissas: sums of round numbers come out exact in
    # any order and would hide a change of summation order
    prices = draw(
        st.lists(
            st.integers(0, 500_000).map(lambda k: k / 1000.3),
            min_size=len(stamps),
            max_size=len(stamps),
        )
    )
    trace = PriceTrace("m4.large", list(map(PricePoint, stamps, prices)))
    windows = draw(
        st.lists(
            st.tuples(st.integers(min(stamps), 4500), st.integers(1, 1500)).map(
                lambda drawn: (drawn[0], drawn[0] + drawn[1])
            ),
            min_size=1,
            max_size=40,
        )
    )
    return trace, draw(st.integers(min(stamps), 4500)), draw(st.integers(0, 1500)), windows


def with_step_windows(timestamps, windows):
    """The windows, plus for each step a one-second window at its start,
    the whole step, a window ending on the next step's start, and one over
    it and the nine steps after it."""
    stamps = timestamps.tolist()
    windows = list(windows)
    for k, (a, b) in enumerate(zip(stamps, stamps[1:])):
        if b > a:
            windows += [(a, a + 1), (a, b), (max(stamps[0], b - 17), b)]
        if k + 9 < len(stamps):
            windows.append((a, stamps[k + 9] + 1))
    return windows


def spread(values):
    """values scaled over 32 orders of magnitude, step by step: a sum of
    such terms depends on the order in which it adds them."""
    return values * 10.0 ** (np.arange(len(values)) % 9 * 4 - 16)


def check_window_sums(timestamps, values, windows):
    for values in (values, spread(values)):
        check_window_sums_of(timestamps, values, windows)


def check_window_sums_of(timestamps, values, windows):
    # all the windows at once need t0 < t1; each alone may be empty
    expected, squared = [], []
    for t0, t1 in windows:
        if t1 <= t0:
            expected.append(float.hex(0.0))
            squared.append(float.hex(0.0))
            continue
        span, widths = step_slice(timestamps, t0, t1)
        expected.append(float.hex(left_sum(values[span] * widths)))
        squared.append(float.hex(left_sum(values[span] * values[span] * widths)))
    alone = [bits(*window_sums(timestamps, values, [a], [b]))[0] for a, b in windows]
    assert alone == expected
    alone = [
        bits(*np.concatenate(window_sums(timestamps, values, [a], [b], squares=True)))
        for a, b in windows
    ]
    assert alone == [list(pair) for pair in zip(expected, squared)]
    kept = [k for k, (t0, t1) in enumerate(windows) if t0 < t1]
    t0, t1 = np.array([windows[k] for k in kept]).T
    steps = timestamps.searchsorted(t1) - timestamps.searchsorted(t0, side="right") + 1
    # the default budget, one that forces several chunks, one window a
    # chunk, and chunks of all windows but the last, which is left alone
    for cells in (WINDOW_CELLS, 5, 1, int(steps.max()) * max(1, len(kept) - 1)):
        with mock.patch("spotindex.prices.WINDOW_CELLS", cells):
            assert bits(*window_sums(timestamps, values, t0, t1)) == [expected[k] for k in kept]
            sums, squares = window_sums(timestamps, values, t0, t1, squares=True)
            assert bits(*sums) == [expected[k] for k in kept]
            assert bits(*squares) == [squared[k] for k in kept]


def guardless_fold(terms):
    """The column fold without its one-column case, where numpy sums a lone
    column pairwise, not from first to last."""
    return np.add.reduce(terms, axis=0, initial=-0.0)


def test_window_oracle_catches_a_pairwise_lone_column():
    stamps = np.arange(0, 1200, 60)
    values = np.array([k * 7919 % 500_000 / 1000.3 for k in range(1, 21)])
    windows = with_step_windows(stamps, [(130, 1150), (0, 1200)])
    check_window_sums(stamps, values, windows)
    with mock.patch("spotindex.prices._fold", guardless_fold):
        with pytest.raises(AssertionError):
            check_window_sums(stamps, values, windows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(stepped())
def test_slice_sums_match_loops_bit_for_bit(drawn):
    trace, t, window, windows = drawn
    assert bits(*window_stats(trace, t, window)) == bits(*loop_window_stats(trace, t, window))
    t0 = max(t - window, trace.first_ts)
    # a += loop, not sum(), which compensates rounding from Python 3.12 on
    old_cost = 0.0
    for a, b, p, _ in loop_steps(trace.timestamps, trace.prices, t0, t):
        old_cost += p * (b - a)
    assert bits(interval_cost(trace, t0, t)) == bits(old_cost / 3600.0)
    # a one-member index, capped wherever the price is high: it has gaps
    capped = 10.0 * CATALOG["m4.large"].on_demand_price
    gappy = PriceTrace(
        "m4.large",
        [
            PricePoint(ts, capped if p > 400.0 else p)
            for ts, p in zip(trace.timestamps.tolist(), trace.prices.tolist())
        ],
    )
    curve = IndexCurve({"m4.large": gappy}, CATALOG, ["m4.large"])
    t0 = max(t - window, curve.start)
    try:
        expected = loop_integrate(curve, t0, t)
    except GapError as exc:
        with pytest.raises(GapError, match=f"^{exc}$"):
            curve.integrate(t0, t)
    else:
        got = curve.integrate(t0, t)
        assert type(got) is type(expected)
        assert bits(got) == bits(expected)
    # every window's sum at once, over the trace and over the gappy curve,
    # with an empty and a reversed window at each drawn window's start
    windows = [*windows, *((a, a) for a, _ in windows), *((a, a - 1) for a, _ in windows)]
    check_window_sums(trace.timestamps, trace.prices, with_step_windows(trace.timestamps, windows))
    check_window_sums(curve.timestamps, curve.values, with_step_windows(curve.timestamps, windows))


# batched billing against each hold priced alone


# the holds that billed_holds does not price but names: each is drawn at
# most once per log, in a third of the logs, since it ends the log
MALFORMED_HOLDS = ("reversed", "empty", "before its trace", "working before the curve")


@st.composite
def billed_logs(draw):
    """Traces for a few VMs, the capped one-member index over m4.large of
    test_slice_sums_match_loops_bit_for_bit (so it has gaps), and a log of
    holds on those VMs, working or not, some starting on their trace's first
    stamp or the curve's; and, in a third of the logs, one of the
    MALFORMED_HOLDS. Some traces are priced -0.0 throughout. Task 0's finish
    ends most logs, at or after the end of every hold."""
    vms = draw(st.lists(st.sampled_from(TARGETS), unique=True, min_size=1, max_size=3))
    capped = 10.0 * CATALOG["m4.large"].on_demand_price
    traces = {}
    for vm in ("m4.large", *vms):
        first = draw(st.sampled_from((0, 0, 0, 40)))
        stamps = sorted({first, *draw(st.lists(st.integers(first, 3000), max_size=60))})
        if vm != "m4.large" and draw(st.sampled_from((False, False, True))):
            levels = [-0.0] * len(stamps)
        else:
            levels = draw(
                st.lists(
                    st.integers(0, 500_000).map(lambda k: k / 1000.3),
                    min_size=len(stamps),
                    max_size=len(stamps),
                )
            )
        if vm == "m4.large":
            levels = [capped if p > 470.0 else p for p in levels]
        traces[vm] = PriceTrace(vm, list(map(PricePoint, stamps, levels)))
    curve = IndexCurve({"m4.large": traces["m4.large"]}, CATALOG, ["m4.large"])
    events = [{"event": "acquire", "t": 0, "task": 0, "vm": "m4.large"}]
    count = draw(st.integers(5, 40))
    malformed = draw(st.sampled_from((None,) * 8 + MALFORMED_HOLDS))
    at = draw(st.integers(0, count - 1))
    for k in range(count):
        vm = draw(st.sampled_from(sorted(traces)))
        working = draw(st.booleans())
        bad = malformed if k == at else None
        if bad == "before its trace":
            t0 = traces[vm].first_ts - draw(st.integers(1, 30))
        elif bad == "working before the curve":
            # on a trace that starts before the curve, where there is one
            early = [v for v in sorted(traces) if traces[v].first_ts < curve.start]
            vm = draw(st.sampled_from(early or [vm]))
            working = True
            t0 = curve.start - draw(st.integers(1, 30))
        else:
            first = max(traces[vm].first_ts, curve.start) if working else traces[vm].first_ts
            if draw(st.sampled_from(("inside",) * 24 + ("first",) * 5)) == "first":
                t0 = first
            else:
                t0 = draw(st.integers(first, 3500))
        span = draw(st.integers(1, 1500))
        t1 = {"reversed": t0 - span, "empty": t0}.get(bad, t0 + span)
        events.append({"event": "hold", "t0": t0, "t1": t1, "task": 0, "vm": vm, "working": working})
    if draw(st.sampled_from((True, True, True, False))):
        end = max(event.get("t1", 0) for event in events)
        events.append({"event": "finish", "t": end + draw(st.sampled_from((0, 0, 1, 600))), "task": 0})
    return traces, curve, events


def bill_each_alone(events, traces, curve):
    """Each hold's (event, cost bits, index cost bits) from interval_cost and
    IndexCurve.integrate, up to the first hold that is malformed or raises,
    and the error that names it; or, where none does, the error that names
    a log with no finish for its one task."""
    billed = []
    finished = False
    for i, event in enumerate(events):
        if event["event"] != "hold":
            finished = finished or event["event"] == "finish"
            continue
        t0, t1, vm, working = event["t0"], event["t1"], event["vm"], event["working"]
        if t1 <= t0:
            return billed, SimulationError(f"event {i} (hold) has a bad 't1': {t1!r}")
        if t0 < traces[vm].first_ts or (working and t0 < curve.start):
            return billed, SimulationError(f"event {i} (hold) has a bad 't0': {t0!r}")
        try:
            cost = interval_cost(traces[vm], t0, t1)
            index_cost = None
            if working:
                index_cost = denormalize(CATALOG[vm], curve.integrate(t0, t1)) / 3600.0
        except SpotIndexError as exc:
            return billed, exc
        billed.append((event, bits(cost), None if index_cost is None else bits(index_cost)))
    if not finished:
        return billed, SimulationError("event log has no finish event for task 0")
    return billed, None


def check_billing(events, traces, curve):
    expected, error = bill_each_alone(events, traces, curve)
    billed = []
    try:
        for event, cost, index_cost in billed_holds(events, traces, CATALOG, curve, 1):
            billed.append((event, bits(cost), None if index_cost is None else bits(index_cost)))
    except SpotIndexError as exc:
        assert (type(exc), str(exc)) == (type(error), str(error))
    else:
        assert error is None
    assert billed == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(billed_logs())
def test_batched_billing_matches_each_hold_billed_alone(drawn):
    traces, curve, events = drawn
    check_billing(events, traces, curve)


def prefix_window_sums(timestamps, values, t0, t1):
    """Window sums as differences of one running integral over the whole
    step function: equal on paper, but rounded differently."""
    t0 = np.asarray(t0, dtype=np.int64)
    t1 = np.asarray(t1, dtype=np.int64)
    running = np.concatenate([[0.0], np.cumsum(values[:-1] * np.diff(timestamps))])

    def integral(t):
        step = timestamps.searchsorted(t, side="right") - 1
        return running[step] + values[step] * (t - timestamps[step])

    return np.where(t1 > t0, integral(t1) - integral(t0), 0.0)


def test_billing_oracle_catches_prefix_sums():
    stamps = list(range(0, 600, 60))
    prices = [k / 1000.3 for k in (4567, 8901, 2345, 6789, 1234, 5678, 9012, 3456, 7890, 4321)]
    traces = {vm: PriceTrace(vm, list(map(PricePoint, stamps, prices))) for vm in ("m4.large", "r4.xlarge")}
    curve = IndexCurve({"m4.large": traces["m4.large"]}, CATALOG, ["m4.large"])
    events = [
        {"event": "hold", "t0": t0, "t1": t1, "task": 0, "vm": "r4.xlarge", "working": True}
        for t0, t1 in ((130, 470), (250, 590), (70, 530))
    ]
    events.append({"event": "finish", "t": 590, "task": 0})
    check_billing(events, traces, curve)
    with mock.patch.object(billing, "window_sums", prefix_window_sums):
        with pytest.raises(AssertionError):
            check_billing(events, traces, curve)


# the engine's one market rule against the reference engine's scalar market


def context_bits(ctx):
    views = [(v.spec.id, *bits(v.price, v.window_mean, v.window_std)) for v in ctx.candidates]
    return (
        views,
        bits(ctx.index_now, ctx.index_reference, ctx.cpu_used, ctx.mem_used, ctx.migration_seconds),
        (ctx.t, ctx.horizon, ctx.current),
    )


@pytest.mark.parametrize("index_reference", ["window", "instant"])
def test_market_matches_the_reference_market_every_second(index_reference):
    # The index starts at t=42 with m4.large and has a gap wherever all its
    # members sit on the cap; r4.xlarge is also capped alone for a while and
    # c4.2xlarge priced over max_price. m4.4xlarge, a candidate outside the
    # index, starts at t=501. At every second, epoch tick or not, the
    # engine's pick context, read from a one-tick block, must equal the
    # reference's bit for bit, or raise the same error; so must, at every
    # epoch tick, its decision context with a candidate held, read from
    # the epoch table. Under "instant", the seconds whose window holds the
    # gap but whose index is live are served.
    extra = VmSpec(
        id="m4.4xlarge",
        instance_type="m4.4xlarge",
        zone="us-east-1a",
        region="us-east-1",
        family="general",
        cpu_capacity=16.0,
        mem_capacity=64.0,
        on_demand_price=80.0,
    )
    catalog = Catalog([*CATALOG, extra])
    rng = np.random.default_rng(11)
    traces = {}
    for vm in [s.id for s in catalog]:
        stamps = np.arange({"m4.large": 42, "m4.4xlarge": 501}.get(vm, 0), 2000, rng.integers(5, 13))
        levels = rng.integers(2000, 10000, len(stamps)) / 1000.3
        cap = 10.0 * catalog[vm].on_demand_price
        levels[(stamps >= 1300) & (stamps < 1360)] = cap
        if vm == "r4.xlarge":
            levels[(stamps >= 700) & (stamps < 800)] = cap
        if vm == "c4.2xlarge":
            levels[(stamps >= 1000) & (stamps < 1100)] = 40.0
        traces[vm] = PriceTrace(vm, list(map(PricePoint, stamps.tolist(), levels.tolist())))
    params = unit_params(
        epoch=3, sigma_window=30, index_reference=index_reference, treat_cap_as_revocation=True
    )
    args = (one_phase_job(), build_policy("static"), traces, catalog, COMPOSITION, params)
    engine = _Engine(*args, None, None, None)
    reference = PerSecondEngine(*args, None, None, None)
    [phase] = args[0].phases

    def checked(t, current):
        """The reference's context at t with current held, having checked
        the engine's against it, or None where both raise the same error."""
        try:
            expected = reference._context(t, phase, current)
        except SpotIndexError as exc:
            with pytest.raises(SpotIndexError, match=f"^{re.escape(str(exc))}$") as raised:
                engine._context(t, phase, current)
            assert type(raised.value) is type(exc)
            return None
        assert context_bits(engine._context(t, phase, current)) == context_bits(expected)
        return expected

    served, decided, gappy_windows, blocks = 0, 0, 0, set()
    held = COMPOSITION[0]
    for t in range(1800):
        table = engine._table
        ctx = checked(t, None)
        if ctx is not None:
            served += 1
            try:
                reference.curve.window_mean(t, 30)
            except GapError:
                gappy_windows += 1
            held = ctx.candidates[t // 3 % len(ctx.candidates)].spec.id
        # a pick's one-tick block leaves the epoch table alone
        assert engine._table is table
        if t % 3 == 0:
            decided += checked(t, held) is not None
            blocks.add(engine._table_first)
    # the 600 s job's tables hold 200 ticks each
    assert blocks == {0, 600, 1200}
    assert served > 1200
    assert decided > 400
    assert (gappy_windows > 0) == (index_reference == "instant")


class ReadingMoments(Policy):
    """cost's picks and decisions, reading every window moment a custom
    policy can on the way: each view's in select and decide, and the
    block's in a decision table that answers ASK at every tick."""

    name = "reading"

    def __init__(self):
        self.inner = CostCentricPolicy()
        # (t, vm, window_mean, window_std) of each view read
        self.views = []
        # (block, means, stds) of each block read
        self.blocks = []

    def _read(self, ctx):
        self.views.extend((ctx.t, v.spec.id, v.window_mean, v.window_std) for v in ctx.candidates)

    def select(self, ctx):
        self._read(ctx)
        return self.inner.select(ctx)

    def decide(self, ctx):
        self._read(ctx)
        return self.inner.decide(ctx)

    def decisions(self, block, current, cpu_used, mem_used):
        self.blocks.append((block, block.means, block.stds))
        return super().decisions(block, current, cpu_used, mem_used)


def test_a_custom_policy_reads_the_moments_of_window_stats():
    # the moments are computed on first read; whether read as a block's
    # arrays or as a view's floats, they are window_stats' bits at every
    # tick the policy is asked about, on the epoch tables and on the
    # one-row blocks that revocations off the 120 s grid select on
    traces = traces_for(0)
    params = RunParams(epoch=120, horizon=60, sigma_window=3600)
    job = JobSpec(
        name="revoked", phases=baseline_job().phases, max_price=8.0, reference_capacity=(8.0, 32.0)
    )
    ticks_of = {}
    build = simulator._market_block

    def recorded(*market_and_ticks):
        block = build(*market_and_ticks)
        ticks_of[id(block)] = market_and_ticks[-1].tolist()
        return block

    policy = ReadingMoments()
    with mock.patch.object(simulator, "_market_block", recorded):
        run_simulation(job, policy, traces, CATALOG, COMPOSITION, params=params)

    def expected(vm, t):
        return bits(*window_stats(traces[vm], t, params.sigma_window))

    assert policy.blocks
    for block, means, stds in policy.blocks:
        for k, t in enumerate(ticks_of[id(block)]):
            if block.ok[k]:
                for row, spec in enumerate(block.specs):
                    assert bits(means[row, k], stds[row, k]) == expected(spec.id, t)
    for t, vm, mean, std in policy.views:
        assert bits(mean, std) == expected(vm, t)
    assert any(t % params.epoch for t, *_ in policy.views)
