"""The next-event engine against the one-second reference engine.

Random small markets go through both engines, which must produce the same
report JSON, or raise the same error, after asking their policies on the
same contexts, bit for bit. The same runs check the engine's invariants:
hold segments tile each task's lifetime, replay reproduces the totals,
availability lies in [0, 1], and downtime counts the seconds in which some
unfinished task did not work.
"""

import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
    SimulationError,
    SpotIndexError,
    VmSpec,
    replay,
    run_simulation,
)

from spotindex.policies import build_policy
from spotindex.prices import WINDOW_CELLS, left_sum, step_slice, window_sums
from spotindex.simulator import _Engine, interval_cost, window_stats

from conftest import COMPOSITION, build_catalog
from reference_engine import PerSecondEngine, run_per_second
from test_simulator import Choosing, flat_traces, one_phase_job, unit_params

CATALOG = build_catalog()
POLICIES = ("static", "cost", "avail", "balanced")
TARGETS = ("c4.2xlarge", "m4.2xlarge", "r4.xlarge")


@st.composite
def markets(draw, duration, periods):
    """One step-function trace per market. Periods are drawn independently,
    so they rarely divide the decision epoch, and a few steps jump to a
    price far above any max_price or onto the provider cap. Some markets
    also put every index member on the cap at once over one span, where
    the index is undefined, so ticks and revocations can land in it."""
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
    return traces


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
    phases = tuple(
        Phase(draw(st.integers(20, 150)), cpu, mem)
        for cpu, mem in draw(
            st.lists(st.sampled_from(((2.0, 8.0), (4.0, 16.0))), min_size=1, max_size=3)
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
    traces = draw(markets(3 * job.total_work, slow if alone else st.integers(3, 97)))
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
    return {
        "job": job,
        "policy": draw(st.sampled_from(POLICIES)),
        "traces": traces,
        "params": params,
        "forced_migrations": forced,
    }


class Recording(Policy):
    """Another policy, logging the context of each select and decide call
    with every float as float.hex."""

    def __init__(self, inner: Policy):
        self.inner = inner
        self.name = inner.name
        self.asked = []

    def _log(self, call, ctx):
        views = [(v.spec.id, *bits(v.price, v.window_mean, v.window_std)) for v in ctx.candidates]
        index = bits(ctx.index_now, ctx.index_reference)
        self.asked.append((call, ctx.t, ctx.current, *index, views))

    def select(self, ctx):
        self._log("select", ctx)
        return self.inner.select(ctx)

    def decide(self, ctx):
        self._log("decide", ctx)
        return self.inner.decide(ctx)


def outcome(run, scenario):
    """The report, its JSON or the error's text, and the policy's log."""
    policy = Recording(build_policy(scenario["policy"]))
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


def check_scenario(scenario):
    report, text, asked = outcome(run_simulation, scenario)
    _, reference, reference_asked = outcome(run_per_second, scenario)
    assert text == reference
    assert asked == reference_asked
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
    traces = flat_traces()
    traces["r4.xlarge"] = PriceTrace(
        "r4.xlarge", [PricePoint(0, 6.0), PricePoint(110, 30.0), PricePoint(150, 6.0)]
    )
    traces["m4.2xlarge"] = PriceTrace(
        "m4.2xlarge", [PricePoint(0, 6.0), PricePoint(215, 30.0), PricePoint(300, 6.0)]
    )
    report = both_engines(
        one_phase_job(kind="bsp", tasks=3, mem_footprint=20.0),
        "static", traces, CATALOG, COMPOSITION,
        params=unit_params(bsp_superstep=50),
        forced_migrations=[(50, 0, "m4.2xlarge"), (100, 1, "r4.xlarge"), (200, 0, "r4.xlarge")],
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
    for a, b, value, i in loop_steps(curve.timestamps, curve._values, t0, t1):
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
    the whole step, and a window ending on the next step's start."""
    stamps = timestamps.tolist()
    windows = list(windows)
    for a, b in zip(stamps, stamps[1:]):
        if b > a:
            windows += [(a, a + 1), (a, b), (max(stamps[0], b - 17), b)]
    return windows


def check_window_sums(timestamps, values, windows):
    expected = []
    for t0, t1 in windows:
        span, widths = step_slice(timestamps, t0, t1)
        expected.append(float.hex(left_sum(values[span] * widths)))
    t0, t1 = np.array(windows).T
    # the default budget and one that forces several row chunks
    for cells in (WINDOW_CELLS, 5):
        with mock.patch("spotindex.prices.WINDOW_CELLS", cells):
            assert bits(*window_sums(timestamps, values, t0, t1)) == expected


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
    # every window's sum at once, over the trace and over the gappy curve
    check_window_sums(trace.timestamps, trace.prices, with_step_windows(trace.timestamps, windows))
    check_window_sums(curve.timestamps, curve._values, with_step_windows(curve.timestamps, windows))


# the engine's one market rule against the reference engine's scalar market


def market_bits(market):
    views, index_now, index_reference = market
    return [(v.spec.id, *bits(v.price, v.window_mean, v.window_std)) for v in views], bits(
        index_now, index_reference
    )


@pytest.mark.parametrize("index_reference", ["window", "instant"])
def test_market_matches_the_reference_market_every_second(index_reference):
    # The index starts at t=42 with m4.large and has a gap wherever all its
    # members sit on the cap; r4.xlarge is also capped alone for a while and
    # c4.2xlarge priced over max_price. m4.4xlarge, a candidate outside the
    # index, starts at t=501. At every second, epoch tick or not, the
    # engine's market must equal the reference's bit for bit, or raise the
    # same error. Under "instant", the seconds whose window holds the gap
    # but whose index is live are served.
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
    served, gappy_windows, blocks = 0, 0, set()
    for t in range(1800):
        table = engine._table
        try:
            expected = market_bits(reference._market(t))
        except SpotIndexError as exc:
            with pytest.raises(SpotIndexError, match=f"^{re.escape(str(exc))}$") as raised:
                engine._market(t)
            assert type(raised.value) is type(exc)
        else:
            assert market_bits(engine._market(t)) == expected
            served += 1
            try:
                reference.curve.window_mean(t, 30)
            except GapError:
                gappy_windows += 1
        if t % 3:
            # a one-row block leaves the epoch table alone
            assert engine._table is table
        blocks.add(engine._table_first)
    # the 600 s job's tables hold 200 ticks each
    assert blocks == {0, 600, 1200}
    assert served > 1200
    assert (gappy_windows > 0) == (index_reference == "instant")
