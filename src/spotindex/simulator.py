"""Deterministic discrete-event simulator of VM selection policies.

Time is in integer seconds, and each second runs the same steps in the same
order: stall ends, revocation checks, scripted migrations, policy decisions
at epoch ticks, then work. The engine advances by next event: after a second
in which nothing happened it skips straight to the next second at which
something can (an epoch tick, a price change on a held VM, a stall end, a
scripted migration, a task's last second of work), crediting the seconds in
between as the same second repeated. Reports are the same as a one-second
loop would give. The market the policies see is built by one vectorized
rule (_Engine._block): for a block of epoch ticks at a time, or for one
instant off the epoch grid (see _Engine._market). The one-second reference
in tests/reference_engine.py is this engine with the slow form of each
shortcut: _next_instant, _works_now, and _market, which it computes with
its own scalar code.

The engine records every VM holding as (t0, t1, vm, working) segments plus
acquire/migrate/revoke/finish events, and derives every run output afterwards
from that event log, the money totals with one canonical segment biller.
Replaying a serialized report therefore reproduces all of them bit for bit.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .catalog import Catalog, ResourceRequirement, Scope, filter_candidates
from .errors import InvariantError, SelectionError, SimulationError, SpotIndexError, exact, finite
from .index import IndexCurve, denormalize, normalize
from .policies import CandidateView, Policy, PolicyContext, PolicyDecision, build_policy
from .prices import PriceTrace, fold_sum, is_capped, left_sum, trailing_means
from .tracking import TrackingLedger, migration_loss, should_migrate

log = logging.getLogger(__name__)

LONG_RUNNING = "long_running"
BSP = "bsp"

WORKING = "working"
MIGRATING = "migrating"
RESTARTING = "restarting"
DONE = "done"

# The most epoch ticks one market table covers.
TABLE_TICKS = 1024
# The most tasks a job may have: the engine visits every task at every stop.
MAX_TASKS = 4096


@dataclass(frozen=True)
class Phase:
    duration: int
    cpu: float
    mem: float

    def __post_init__(self):
        finite(self.duration, "phase duration")
        finite(self.cpu, "phase cpu")
        finite(self.mem, "phase mem")


@dataclass(frozen=True)
class JobSpec:
    """A job as a sequence of per-task resource phases.

    kind "bsp" makes tasks run in lockstep: any migrating or restarting task
    pauses the rest, and a revoked task restarts from its last superstep
    barrier instead of its last phase boundary. reference_capacity is the
    (cpu, mem) the job is notionally entitled to when costed against the
    index; it defaults to the peak phase demand.
    """

    name: str
    phases: tuple[Phase, ...]
    kind: str = LONG_RUNNING
    tasks: int = 1
    requirement: ResourceRequirement | None = None
    mem_footprint: float = 4.0
    max_price: float | None = None
    reference_capacity: tuple[float, float] | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("job name must be non-empty")
        if self.kind not in (LONG_RUNNING, BSP):
            raise ValueError(f"job kind must be '{LONG_RUNNING}' or '{BSP}'")
        if not self.phases:
            raise ValueError("job needs at least one phase")
        object.__setattr__(self, "phases", tuple(self.phases))
        finite(self.tasks, "tasks", minimum=1, strict=False)
        if self.tasks > MAX_TASKS:
            raise InvariantError(f"tasks must be at most {MAX_TASKS}, got {self.tasks!r}")
        finite(self.mem_footprint, "mem_footprint")
        if self.max_price is not None:
            finite(self.max_price, "max_price")
        if self.requirement is None:
            object.__setattr__(
                self,
                "requirement",
                ResourceRequirement(
                    min_cpu=max(p.cpu for p in self.phases),
                    min_mem=max(p.mem for p in self.phases),
                ),
            )
        if self.reference_capacity is not None:
            cpu, mem = self.reference_capacity
            finite(cpu, "reference_capacity cpu")
            finite(mem, "reference_capacity mem")
            object.__setattr__(self, "reference_capacity", (float(cpu), float(mem)))

    @property
    def total_work(self) -> int:
        return sum(p.duration for p in self.phases)

    def phase_at(self, work: int) -> Phase:
        cumulative = 0
        for phase in self.phases:
            cumulative += phase.duration
            if work < cumulative:
                return phase
        return self.phases[-1]

    def phase_boundaries(self) -> list[int]:
        boundaries = [0]
        for phase in self.phases:
            boundaries.append(boundaries[-1] + phase.duration)
        return boundaries

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "tasks": self.tasks,
            "phases": [[p.duration, p.cpu, p.mem] for p in self.phases],
            "requirement": [self.requirement.min_cpu, self.requirement.min_mem],
            "mem_footprint": self.mem_footprint,
            "max_price": self.max_price,
            "reference_capacity": list(self.reference_capacity)
            if self.reference_capacity
            else None,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "JobSpec":
        """The inverse of to_dict; an absent or null key takes the default,
        and name and phases, which have none, must be given. A value of the
        wrong shape or type (see exact) raises ValueError naming its key."""
        if not isinstance(raw, dict):
            raise ValueError(f"job spec must be a JSON object, got {raw!r}")

        def shaped(key, value, size, what):
            """value, when it is a list (of `size` items unless size is None)."""
            if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
                raise ValueError(f"{key} must be {what}, got {value!r}")
            return value

        def floats(key):
            pair = shaped(key, raw[key], 2, "a list of two numbers")
            return tuple(exact(float, v, key) for v in pair)

        def phase(i, entry):
            d, c, m = shaped(f"phases[{i}]", entry, 3, "a [seconds, cpu, mem] list")
            return Phase(exact(int, d, "phases"), exact(float, c, "phases"), exact(float, m, "phases"))

        casts = {
            "kind": lambda key: exact(str, raw[key], key),
            "tasks": lambda key: exact(int, raw[key], key),
            "requirement": lambda key: ResourceRequirement(*floats(key)),
            "mem_footprint": lambda key: exact(float, raw[key], key),
            "max_price": lambda key: exact(float, raw[key], key),
            "reference_capacity": floats,
        }
        phases = shaped("phases", raw.get("phases"), None, "a list of [seconds, cpu, mem] lists")
        return cls(
            name=exact(str, raw.get("name"), "name"),
            phases=tuple(phase(i, entry) for i, entry in enumerate(phases)),
            **{key: cast(key) for key, cast in casts.items() if raw.get(key) is not None},
        )


@dataclass(frozen=True)
class MigrationModel:
    """Stop-and-copy migration timing plus the revocation restart delay."""

    rate: float = 1.0
    fixed_floor: float = 0.0
    revocation_restart: int = 90

    def __post_init__(self):
        finite(self.rate, "migration rate", strict=False)
        finite(self.fixed_floor, "migration fixed_floor", strict=False)
        finite(self.revocation_restart, "migration revocation_restart", strict=False)

    def seconds(self, mem_footprint: float) -> int:
        return int(math.ceil(max(self.rate * mem_footprint, self.fixed_floor)))


@dataclass(frozen=True)
class RunParams:
    epoch: int = 300
    horizon: int = 3600
    sigma_window: int = 3600
    index_reference: str = "window"
    bsp_superstep: int = 300
    treat_cap_as_revocation: bool = False
    migration: MigrationModel = field(default_factory=MigrationModel)
    max_wallclock: int | None = None

    def __post_init__(self):
        finite(self.epoch, "epoch")
        finite(self.horizon, "horizon")
        finite(self.sigma_window, "sigma_window")
        if self.index_reference not in ("window", "instant"):
            raise ValueError("index_reference must be 'window' or 'instant'")
        finite(self.bsp_superstep, "bsp_superstep")
        if self.max_wallclock is not None:
            finite(self.max_wallclock, "max_wallclock")


@dataclass
class SimReport:
    policy: str
    job: str
    tasks: int
    composition: list[str]
    candidates: list[str]
    params: dict
    seed: int | None
    work_seconds: int
    wallclock_seconds: int
    downtime_seconds: int
    availability: float
    migrations: int
    aborted_migrations: int
    revocations: int
    total_cost: float
    productive_cost: float
    gain: float
    loss: float
    net: float
    index_cost_reference: float
    index_cost_held: float
    cost_vs_on_demand: float | None
    cost_vs_index: float | None
    final_vms: list
    finish_times: list
    events: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, raw: dict) -> "SimReport":
        return cls(**{k: raw[k] for k in cls.__dataclass_fields__})


def interval_cost(trace: PriceTrace, t0: int, t1: int) -> float:
    """Money spent holding one VM over [t0, t1): price times seconds / 3600."""
    if t1 <= t0:
        return 0.0
    prices, widths = trace.steps(t0, t1)
    return left_sum(prices * widths) / 3600.0


def window_stats(trace: PriceTrace, t: int, window: int) -> tuple[float, float]:
    """Time-weighted mean and population std over [t - window, t).

    The window is clipped to the trace start; with no lookback at all the
    instantaneous price stands in and the std is zero. The scalar reference
    for the candidates' columns of _Engine._block.
    """
    t0 = max(t - window, int(trace.first_ts))
    if t <= t0:
        return trace.price_at(t), 0.0
    prices, widths = trace.steps(t0, t)
    span = t - t0
    mean = left_sum(prices * widths) / span
    return mean, math.sqrt(max(left_sum(prices * prices * widths) / span - mean * mean, 0.0))


def _billed_holds(events, traces, catalog, curve: IndexCurve):
    """Yield (event, cost, index_cost) for each hold in an event log: what
    the hold cost, and for a working hold what its VM's capacity cost at the
    index over the same span (None otherwise). The one billing loop, read by
    compute_totals and ledger_from_report."""
    for event in events:
        if event.get("event") != "hold":
            continue
        cost = interval_cost(traces[event["vm"]], event["t0"], event["t1"])
        index_cost = None
        if event["working"]:
            spec = catalog[event["vm"]]
            index_cost = denormalize(spec, curve.integrate(event["t0"], event["t1"])) / 3600.0
        yield event, cost, index_cost


def compute_totals(
    events,
    traces,
    catalog,
    curve: IndexCurve,
    reference_capacity,
    tasks: int,
) -> dict:
    """Derive every run output from the event log: the money totals from
    the hold segments, the downtime from the union of the non-working ones,
    and the rest from the other events.

    The simulator calls it on its own log and replay calls it on a
    deserialized one, so the two agree exactly. A log without some task's
    finish event raises SimulationError.
    """
    total_cost = 0.0
    productive_cost = 0.0
    index_cost_held = 0.0
    final_vms = [None] * tasks
    stalls = []
    for event, cost, index_cost in _billed_holds(events, traces, catalog, curve):
        total_cost += cost
        final_vms[event["task"]] = event["vm"]
        if event["working"]:
            productive_cost += cost
            index_cost_held += index_cost
        else:
            stalls.append((event["t0"], event["t1"]))
    counts = Counter(event["event"] for event in events)
    finished = {event["task"]: event["t"] for event in events if event["event"] == "finish"}
    for task in range(tasks):
        if task not in finished:
            raise SimulationError(f"event log has no finish event for task {task}")
    finish_times = [finished[task] for task in range(tasks)]
    t_end = max(finish_times)
    downtime = reach = 0
    for t0, t1 in sorted(stalls):
        if t1 > reach:
            downtime += t1 - max(t0, reach)
            reach = t1
    gain = index_cost_held - productive_cost
    loss = total_cost - productive_cost
    ref_scale = math.sqrt(reference_capacity[0] * reference_capacity[1])
    index_cost_reference = curve.integrate(0, t_end) * ref_scale * tasks / 3600.0
    return {
        "total_cost": total_cost,
        "productive_cost": productive_cost,
        "gain": gain,
        "loss": loss,
        "net": gain - loss,
        "index_cost_held": index_cost_held,
        "index_cost_reference": index_cost_reference,
        "finish_times": finish_times,
        "wallclock_seconds": t_end,
        "final_vms": final_vms,
        "migrations": counts["migrate"] - counts["abort_migration"],
        "aborted_migrations": counts["abort_migration"],
        "revocations": counts["revoke"],
        "downtime_seconds": downtime,
        "availability": 1.0 - downtime / t_end if t_end > 0 else 1.0,
    }


class _Task:
    __slots__ = ("idx", "vm", "work", "state", "stall_until", "mig_dst", "holds")

    def __init__(self, idx: int):
        self.idx = idx
        self.vm = None
        self.work = 0
        self.state = WORKING
        self.stall_until = 0
        self.mig_dst = None
        self.holds = {}


class _Engine:
    def __init__(
        self,
        job: JobSpec,
        policy: Policy,
        traces: dict,
        catalog: Catalog,
        composition,
        params: RunParams,
        scope: Scope | None,
        forced_migrations,
        seed: int | None,
    ):
        self.job = job
        self.policy = policy
        self.traces = traces
        self.catalog = catalog
        self.composition = list(composition)
        self.params = params
        self.seed = seed
        self.curve = IndexCurve(traces, catalog, self.composition)
        specs = filter_candidates(catalog, job.requirement, scope)
        if not specs:
            raise SimulationError(f"no candidate VM satisfies job {job.name!r}")
        missing = [s.id for s in specs if s.id not in traces]
        if missing:
            raise SimulationError(f"candidates without price traces: {missing}")
        self.candidates = specs
        if job.max_price is not None:
            self.max_price = job.max_price
        else:
            self.max_price = min(s.on_demand_price for s in specs)
        self.t_m = params.migration.seconds(job.mem_footprint)
        self.total_work = job.total_work
        self.reference_capacity = job.reference_capacity or (
            job.requirement.min_cpu,
            job.requirement.min_mem,
        )
        self.forced = sorted(forced_migrations or [], key=lambda f: (f[0], f[1]))
        candidate_ids = {s.id for s in specs}
        for entry in self.forced:
            t, idx, target = entry
            if t < 0:
                raise SimulationError(f"forced migration {entry!r} has a negative time")
            if not 0 <= idx < job.tasks:
                raise SimulationError(
                    f"forced migration {entry!r} names task {idx}, "
                    f"but the job's tasks are 0..{job.tasks - 1}"
                )
            if target not in candidate_ids:
                raise SimulationError(f"forced migration target {target!r} not a candidate")
        self.tasks = [_Task(i) for i in range(job.tasks)]
        self.bsp = job.kind == BSP
        self.events: list[dict] = []
        # the epoch table: the market at _table_first, _table_first + epoch, ...
        self._table = []
        self._table_first = 0
        self._market_t = None
        self._market_row = None

    # hold segment bookkeeping

    def _open_hold(self, task: _Task, vm: str, t: int, working: bool):
        task.holds[vm] = [t, working]

    def _close_hold(self, task: _Task, vm: str, t: int):
        start, working = task.holds.pop(vm)
        if t > start:
            self.events.append(
                {
                    "event": "hold",
                    "t0": start,
                    "t1": t,
                    "task": task.idx,
                    "vm": vm,
                    "working": working,
                }
            )

    def _set_flags(self, task: _Task, t: int, working: bool):
        for vm in list(task.holds):
            if task.holds[vm][1] != working:
                self._close_hold(task, vm, t)
                self._open_hold(task, vm, t, working)

    # market views

    def _price(self, vm: str, t: int) -> float:
        return self.traces[vm].price_at(t)

    def _over(self, vm: str, price: float) -> bool:
        if price > self.max_price:
            return True
        return self.params.treat_cap_as_revocation and is_capped(price, self.catalog[vm])

    def _crossed(self, vm: str, t: int) -> bool:
        return self._over(vm, self._price(vm, t))

    def _block(self, ticks) -> list:
        """The market at each of ticks, an int64 array evenly spaced by the
        epoch: the one market rule, vectorized. Each entry is the
        (views, index_now, index_reference) a context takes, or None where
        the market is undefined: before the index or a candidate's trace
        starts, or where the index the reference mode reads is NaN, which a
        step with no live member holds. The views leave out the candidates
        over max_price or, under treat_cap_as_revocation, on the cap."""
        window = self.params.sigma_window
        index_now, index_mean = self.curve.window_means(ticks, window)
        ok = (ticks >= self.curve.start) & ~np.isnan(index_now)
        if self.params.index_reference == "window":
            reference = index_mean
            ok &= ~np.isnan(index_mean)
        else:
            reference = index_now
        columns = []
        for spec in self.candidates:
            trace = self.traces[spec.id]
            ok &= ticks >= trace.first_ts
            stamps, first = trace.timestamps, trace.first_ts
            prices, means = trailing_means(stamps, trace.prices, first, ticks, window)
            _, squares = trailing_means(stamps, trace.prices * trace.prices, first, ticks, window)
            # an empty window's mean of p * p is price * price, so its std is 0.0
            stds = np.sqrt(np.maximum(squares - means * means, 0.0))
            over = prices > self.max_price
            if self.params.treat_cap_as_revocation:
                over |= is_capped(prices, spec)
            columns.append(
                [
                    None if dropped else CandidateView(spec, price, mean, std)
                    for dropped, price, mean, std in zip(
                        over.tolist(), prices.tolist(), means.tolist(), stds.tolist()
                    )
                ]
            )
        # None marks a dropped candidate, and a CandidateView is always true
        return [
            (tuple(filter(None, views)), now, ref) if defined else None
            for defined, now, ref, *views in zip(
                ok.tolist(), index_now.tolist(), reference.tolist(), *columns
            )
        ]

    def _raise_undefined(self, t: int):
        """Raise the domain error of the first check that fails at t, where a
        block's mask says the market is undefined: the index at t, under
        "window" the index over t's window, then each candidate's price."""
        self.curve.value_at(t)
        if self.params.index_reference == "window":
            self.curve.integrate(max(t - self.params.sigma_window, self.curve.start), t)
        for spec in self.candidates:
            self._price(spec.id, t)
        raise AssertionError(f"the market mask rejects t={t}, but every check passes")

    def _market(self, t: int) -> tuple:
        """(views, index_now, index_reference) at t: what a context takes
        from the market, which depends on t alone. An epoch tick, t = 0
        among them, reads the epoch table, refilled once t is past its end
        (ticks only move forward) with up to TABLE_TICKS ticks and none at or
        past the earliest second the run can end: the least-advanced task
        still has its remaining work to do. Any other instant gets a one-row
        block of its own. The last instant's market is kept, so the tasks
        deciding at one tick share it."""
        if t != self._market_t:
            epoch = self.params.epoch
            if t % epoch:
                market = self._block(np.array([t]))[0]
            else:
                if t >= self._table_first + epoch * len(self._table):
                    work = min(task.work for task in self.tasks if task.state != DONE)
                    count = max(1, min(TABLE_TICKS, -(-(self.total_work - work) // epoch)))
                    self._table = self._block(t + epoch * np.arange(count))
                    self._table_first = t
                market = self._table[(t - self._table_first) // epoch]
            if market is None:
                self._raise_undefined(t)
            self._market_row = market
            self._market_t = t
        return self._market_row

    def _ctx(self, t: int, work: int, current: str | None) -> PolicyContext:
        phase = self.job.phase_at(work)
        views, index_now, index_reference = self._market(t)
        return PolicyContext(
            t=t,
            candidates=views,
            cpu_used=phase.cpu,
            mem_used=phase.mem,
            index_now=index_now,
            index_reference=index_reference,
            current=current,
            horizon=self.params.horizon,
            migration_seconds=float(self.t_m),
        )

    def _ask(self, ask, t: int, task: _Task, current: str | None):
        """ask (the policy's select or decide) on task's context at t. A
        SelectionError from the policy, or a pick or migration target that is
        not among the context's candidates, ends the run as a
        SimulationError that names t and the task."""
        try:
            ctx = self._ctx(t, task.work, current)
            answer = ask(ctx)
        except SelectionError as exc:
            raise SimulationError(f"selection failed at t={t} for task {task.idx}: {exc}") from exc
        if not isinstance(answer, PolicyDecision):
            pick = answer
        elif answer.action == PolicyDecision.MIGRATE:
            pick = answer.target
        else:
            return answer
        if all(view.spec.id != pick for view in ctx.candidates):
            raise SimulationError(
                f"policy chose {pick!r} at t={t} for task {task.idx}, "
                f"which is not among its candidates"
            )
        return answer

    # state transitions

    def _acquire(self, task: _Task, t: int, reason: str):
        vm = self._ask(self.policy.select, t, task, None)
        task.vm = vm
        self.events.append(
            {
                "event": "acquire",
                "t": t,
                "task": task.idx,
                "vm": vm,
                "price": self._price(vm, t),
                "reason": reason,
            }
        )
        return vm

    def _start_migration(self, task: _Task, t: int, target: str, reason: str, forced: bool):
        src = task.vm
        price_src = self._price(src, t)
        price_dst = self._price(target, t)
        sufficiency_ok = should_migrate(
            self.curve.value_at(t),
            normalize(self.catalog[src], price_src),
            normalize(self.catalog[target], price_dst),
        )
        self.events.append(
            {
                "event": "migrate",
                "t": t,
                "t_end": t + self.t_m,
                "task": task.idx,
                "src": src,
                "dst": target,
                "loss": migration_loss(price_src, price_dst, self.t_m),
                "sufficiency_ok": sufficiency_ok,
                "forced": forced,
                "reason": reason,
            }
        )
        task.state = MIGRATING
        task.stall_until = t + self.t_m
        task.mig_dst = target
        self._open_hold(task, target, t, False)
        if self.t_m == 0:
            self._finish_migration(task, t)

    def _finish_migration(self, task: _Task, t: int):
        # task.vm is the source until the move finishes, aborts or is revoked
        self._close_hold(task, task.vm, t)
        task.vm = task.mig_dst
        task.mig_dst = None
        task.state = WORKING

    def _abort_migration(self, task: _Task, t: int, cause: str):
        self.events.append(
            {
                "event": "abort_migration",
                "t": t,
                "task": task.idx,
                "src": task.vm,
                "dst": task.mig_dst,
                "cause": cause,
            }
        )
        if cause == "dst_price":
            self._close_hold(task, task.mig_dst, t)
            task.mig_dst = None
            task.state = WORKING

    def _rollback_point(self, work: int) -> int:
        if self.bsp:
            return (work // self.params.bsp_superstep) * self.params.bsp_superstep
        return max(b for b in self.job.phase_boundaries() if b <= work)

    def _revoke(self, task: _Task, t: int):
        old_vm = task.vm
        old_price = self._price(old_vm, t)
        for vm in list(task.holds):
            self._close_hold(task, vm, t)
        rolled = self._rollback_point(task.work)
        work_lost = task.work - rolled
        task.work = rolled
        task.mig_dst = None
        new_vm = self._acquire(task, t, reason="revocation")
        restart = self.params.migration.revocation_restart
        task.state = RESTARTING if restart > 0 else WORKING
        task.stall_until = t + restart
        self._open_hold(task, new_vm, t, False)
        self.events.append(
            {
                "event": "revoke",
                "t": t,
                "task": task.idx,
                "vm": old_vm,
                "price": old_price,
                "new_vm": new_vm,
                "restart_until": task.stall_until,
                "work_lost": work_lost,
            }
        )

    # one second's work

    def _gang_low(self) -> int | None:
        """The work a BSP task must be at to work now: the least among the
        unfinished tasks, or None while any of them migrates or restarts."""
        live = [task for task in self.tasks if task.state != DONE]
        if any(task.state != WORKING for task in live):
            return None
        return min(task.work for task in live)

    def _works_now(self, task: _Task, low: int | None) -> bool:
        return task.state == WORKING and (not self.bsp or task.work == low)

    def _work(self, t: int) -> list:
        """Run second t's work step; returns each task's works flag, None
        once done. Every flag is taken before any work is added, so a BSP
        task works when it is at the gang's low mark as the second starts."""
        low = self._gang_low() if self.bsp else None
        flags = [None if task.state == DONE else self._works_now(task, low) for task in self.tasks]
        for task, works in zip(self.tasks, flags):
            if works is None:
                continue
            self._set_flags(task, t, works)
            if works:
                task.work += 1
        return flags

    # next-event advance

    def _next_change(self, vm: str, t: int) -> float:
        """The first price change of vm at or after t."""
        stamps = self.traces[vm].timestamps
        i = int(stamps.searchsorted(t))
        return int(stamps[i]) if i < len(stamps) else math.inf

    def _next_instant(self, t: int, flags: list, forced_queue, limit: int) -> int:
        """The first second from t on whose steps can differ from those of
        second t - 1, given that second t - 1 logged no event and worked
        like the second before it."""
        epoch = self.params.epoch
        nxt = min(limit + 1, -(-t // epoch) * epoch)
        if forced_queue and forced_queue[0][0] >= t:
            nxt = min(nxt, forced_queue[0][0])
        working = [task.work for task, works in zip(self.tasks, flags) if works]
        if working:
            top = max(working)
            # the second that completes the furthest task is stepped
            nxt = min(nxt, t + self.total_work - top - 1)
            # a BSP task held back by the gang rejoins once the working
            # tasks catch up with it
            idle = [
                task.work
                for task, works in zip(self.tasks, flags)
                if works is False and task.state == WORKING
            ]
            if idle:
                nxt = min(nxt, t + min(idle) - top)
        for task in self.tasks:
            if nxt <= t:
                return t
            if task.state in (MIGRATING, RESTARTING):
                nxt = min(nxt, task.stall_until)
            for vm in task.holds:
                nxt = min(nxt, self._next_change(vm, t))
        return max(nxt, t)

    def _decide(self, t: int):
        low = self._gang_low() if self.bsp else None
        decisions = []
        for task in self.tasks:
            if not self._works_now(task, low):
                continue
            decision = self._ask(self.policy.decide, t, task, task.vm)
            decisions.append((task, decision))
        for task, decision in decisions:
            if decision.action != PolicyDecision.MIGRATE or decision.target == task.vm:
                continue
            self._start_migration(
                task, t, decision.target, reason=decision.reason, forced=False
            )

    # one second

    def _step(self, t: int, forced_queue: list):
        """Second t's steps before its work: stall ends, revocation checks
        against the prices now in force, scripted migrations, then the
        policy decision tick."""
        for task in self.tasks:
            if task.state == MIGRATING and task.stall_until == t:
                self._finish_migration(task, t)
            elif task.state == RESTARTING and task.stall_until == t:
                task.state = WORKING

        for task in self.tasks:
            if task.state == DONE:
                continue
            if task.state == MIGRATING:
                if self._crossed(task.vm, t):
                    self._abort_migration(task, t, cause="src_price")
                    self._revoke(task, t)
                elif self._crossed(task.mig_dst, t):
                    self._abort_migration(task, t, cause="dst_price")
            elif self._crossed(task.vm, t):
                self._revoke(task, t)

        while forced_queue and forced_queue[0][0] == t:
            _, idx, target = forced_queue.pop(0)
            task = self.tasks[idx]
            if task.state != WORKING:
                raise SimulationError(f"forced migration at t={t}: task {idx} is {task.state}")
            if self._crossed(target, t):
                raise SimulationError(
                    f"forced migration target {target!r} is above max price "
                    f"or on the cap at t={t}"
                )
            if target == task.vm:
                log.warning("forced migration at t=%d targets the held vm, skipped", t)
                continue
            self._start_migration(task, t, target, reason="forced", forced=True)

        if t > 0 and t % self.params.epoch == 0:
            self._decide(t)

    def _finish(self, t: int):
        """Finish every task whose work is complete as second t begins."""
        for task in self.tasks:
            if task.state != DONE and task.work >= self.total_work:
                for vm in list(task.holds):
                    self._close_hold(task, vm, t)
                task.state = DONE
                self.events.append({"event": "finish", "t": t, "task": task.idx})

    # main loop

    def run(self) -> SimReport:
        limit = self.params.max_wallclock
        if limit is None:
            limit = 10 * self.total_work + 86400
        forced_queue = list(self.forced)

        for task in self.tasks:
            vm = self._acquire(task, 0, reason="initial")
            self._open_hold(task, vm, 0, True)

        t = 0
        flags = None
        while any(task.state != DONE for task in self.tasks):
            if t > limit:
                raise SimulationError(f"no convergence after {limit} simulated seconds")
            logged = len(self.events)
            self._step(t, forced_queue)
            last_flags, flags = flags, self._work(t)
            t += 1
            self._finish(t)

            # A quiet second repeats until the next instant something can
            # change. A changed works flag closes a hold and so logs an event
            # too; testing the flags as well keeps the rule from resting on that.
            if len(self.events) == logged and flags == last_flags:
                skip = self._next_instant(t, flags, forced_queue, limit) - t
                if skip:
                    for task, works in zip(self.tasks, flags):
                        if works:
                            task.work += skip
                    t += skip

        if forced_queue:
            raise SimulationError(
                f"forced migration {forced_queue[0]!r} is never reached: the run ends at t={t}"
            )
        return self._report()

    def _report(self) -> SimReport:
        job = self.job
        totals = compute_totals(
            self.events,
            self.traces,
            self.catalog,
            self.curve,
            self.reference_capacity,
            job.tasks,
        )
        params_dict = {
            "epoch": self.params.epoch,
            "horizon": self.params.horizon,
            "sigma_window": self.params.sigma_window,
            "index_reference": self.params.index_reference,
            "bsp_superstep": self.params.bsp_superstep,
            "treat_cap_as_revocation": self.params.treat_cap_as_revocation,
            "max_price": self.max_price,
            "migration_seconds": self.t_m,
            "migration_rate": self.params.migration.rate,
            "migration_fixed_floor": self.params.migration.fixed_floor,
            "revocation_restart": self.params.migration.revocation_restart,
            "reference_capacity": list(self.reference_capacity),
            "job": job.to_dict(),
        }
        return SimReport(
            policy=self.policy.name,
            job=job.name,
            tasks=job.tasks,
            composition=list(self.composition),
            candidates=[s.id for s in self.candidates],
            params=params_dict,
            seed=self.seed,
            work_seconds=job.total_work,
            cost_vs_on_demand=None,
            cost_vs_index=None,
            events=self.events,
            **totals,
        )


def run_simulation(
    job: JobSpec,
    policy,
    traces: dict,
    catalog: Catalog,
    composition,
    params: RunParams | None = None,
    scope: Scope | None = None,
    forced_migrations=None,
    seed: int | None = None,
) -> SimReport:
    """Run one job under one policy over the given traces.

    `policy` may be a Policy instance or a registry name. forced_migrations
    is a list of (t, task_index, target_vm_id) the engine executes
    unconditionally, for experiments that script a move; each target must be
    a candidate, which is checked before the run starts. At its time the
    task must be working and the target not over max_price or on the cap,
    and the run must not end before it; otherwise the run raises
    SimulationError. The run itself is
    deterministic; `seed` only tags the report with the traces' provenance.
    """
    if isinstance(policy, str):
        policy = build_policy(policy)
    engine = _Engine(
        job,
        policy,
        traces,
        catalog,
        composition,
        params or RunParams(),
        scope,
        forced_migrations,
        seed,
    )
    return engine.run()


def on_demand_baseline(job: JobSpec, catalog: Catalog, scope: Scope | None = None) -> float:
    """Cost of the cheapest qualifying on-demand VM running the job straight
    through: no revocations, no stalls, one task-hour costs one od-hour."""
    specs = filter_candidates(catalog, job.requirement, scope)
    if not specs:
        raise SimulationError(f"no candidate VM satisfies job {job.name!r}")
    cheapest = min(s.on_demand_price for s in specs)
    return cheapest * job.total_work * job.tasks / 3600.0


def normalize_report(report: SimReport, baseline_on_demand_cost: float) -> SimReport:
    """Fill in the cost ratios against the on-demand and index baselines."""
    finite(baseline_on_demand_cost, "baseline_on_demand_cost")
    reference = report.index_cost_reference
    report.cost_vs_on_demand = report.total_cost / baseline_on_demand_cost
    report.cost_vs_index = report.total_cost / reference if reference > 0 else None
    return report


def replay(report: SimReport | dict, traces: dict, catalog: Catalog) -> dict:
    """Recompute every run output of a report from its serialized event log."""
    raw = report.to_dict() if isinstance(report, SimReport) else report
    return compute_totals(
        raw["events"],
        traces,
        catalog,
        IndexCurve(traces, catalog, raw["composition"]),
        tuple(raw["params"]["reference_capacity"]),
        raw["tasks"],
    )


def ledger_from_report(report: SimReport | dict, traces: dict, catalog: Catalog) -> TrackingLedger:
    """Rebuild the gain/loss ledger implied by a report's hold segments."""
    raw = report.to_dict() if isinstance(report, SimReport) else report
    curve = IndexCurve(traces, catalog, raw["composition"])
    ledger = TrackingLedger()
    for event, cost, index_cost in _billed_holds(raw["events"], traces, catalog, curve):
        if event["working"]:
            ledger.add_gain(
                event["t0"], event["t1"], event["vm"], index_cost - cost, detail="hold"
            )
        else:
            ledger.add_loss(event["t0"], event["t1"], event["vm"], cost, detail="stall")
    return ledger


def run_trials(
    job: JobSpec,
    policy,
    trace_sets,
    catalog: Catalog,
    composition,
    params: RunParams | None = None,
    scope: Scope | None = None,
    seeds=None,
) -> dict:
    """One run per trace set under "trials", plus aggregate_reports' summary
    of them."""
    trace_sets = list(trace_sets)
    if not trace_sets:
        raise ValueError("no trace sets to run")
    if seeds is not None and len(seeds) != len(trace_sets):
        raise ValueError("seeds must match trace_sets one to one")
    reports = []
    for i, traces in enumerate(trace_sets):
        try:
            reports.append(
                run_simulation(
                    job,
                    policy,
                    traces,
                    catalog,
                    composition,
                    params=params,
                    scope=scope,
                    seed=None if seeds is None else seeds[i],
                )
            )
        except SpotIndexError as exc:
            raise SimulationError(f"trial {i} failed: {exc}") from exc
    return {"trials": reports, **aggregate_reports(reports)}


def aggregate_reports(reports) -> dict:
    """Cross-run summary of the fields experiments compare."""
    if not reports:
        raise ValueError("no reports to aggregate")
    dicts = [r.to_dict() if isinstance(r, SimReport) else r for r in reports]

    def stats(key):
        values = [d[key] for d in dicts]
        mean = fold_sum(values) / len(values)
        variance = fold_sum((v - mean) ** 2 for v in values) / len(values)
        return {"mean": mean, "std": math.sqrt(variance), "min": min(values), "max": max(values)}

    return {
        "n_runs": len(dicts),
        "policy": sorted({d["policy"] for d in dicts}),
        "total_cost": stats("total_cost"),
        "availability": stats("availability"),
        "migrations": stats("migrations"),
        "revocations": stats("revocations"),
        "net": stats("net"),
    }
