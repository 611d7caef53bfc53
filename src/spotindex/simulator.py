"""Deterministic discrete-event simulator of VM selection policies.

Time is in integer seconds, and each second runs the same steps in the same
order: stall ends, revocation checks, scripted migrations, policy decisions
at epoch ticks, then work. The engine advances by next event: after a second
whose works flags the next second would take again, it skips straight to the
next second at which something can change (an epoch tick that a working
task's decision table, for its phase at that tick, does not answer STAY, a
held VM's price crossing over max_price or onto the cap, a stall end, a
scripted migration, a task's last second of work), crediting the seconds in
between as the same second repeated, so a migration is stepped where it
starts and where it ends. The decision ticks are looked for across phase
boundaries, up to the first of the other stops, asking for each task's
tables in the order that stepping at each boundary's tick would
(_next_decision).
Since every held VM's crossing is stepped, a revocation check asks that
crossing cache whether the crossing is now (_Engine._held_crossed), with no
price lookup. Reports are the same as a one-second loop would give.

At an epoch tick, each working task's decision is read from the policy's
DecisionTable for its VM and phase over the epoch table (_Engine._move_at):
a move's target from its answer, its reason from the table's reason(k) and
the prices and index it is logged at from the table's column k, and decide
is asked only where the table answers ASK. _Engine._ask is the
one path from an instant to a policy call, and keeps only its last answer,
which the tasks that ask with an equal context at one instant share; so an
answer must depend on its context alone. The market the policies see is
built by one vectorized rule (_market_block), with one leave-out rule
(_dropped): for a block of epoch ticks at a time (_Engine._epoch_table),
which tables and decisions read, or for the one instant of a pick (see
_Engine._context), and no market is kept but the two at t=0, the opening
table and the picks' one-tick block, which the runs over one market share
(_opening_block). The decision tables are kept on the table they were
built over (_Engine._decisions_of), and the picks at t=0 on the one-tick
block (_Engine._pick), each once it passes the engine's checks, per
policy (MarketBlock.kept): a run handed a shared block reads what an
equal policy answered there in an earlier run, so an answer must depend
on its context alone across runs too. A block computes its candidates'
window moments (_window_moments) and, under the "window" reference, the
index's window means, for all its ticks when first read, by a policy's
table or by a context (MarketBlock.context). Its mask counts the index's
gap steps in each window (IndexCurve.window_defined) and sums none.
The one-second reference in tests/reference_engine.py is this engine with
the slow form of each shortcut: _next_instant, which also stands for the
STAY answers and the crossings, _held_crossed, which looks up the held VM's
price, _works_now, _context, which it computes with its own scalar code and
leave-out rule, _move_at, which asks decide at every epoch tick, _ask,
which asks for every task, and _pick, which asks select at t=0 too.

The engine records every VM holding as (t0, t1, vm, working) segments plus
acquire/migrate/revoke/finish events, and derives every run output afterwards
from that event log with billing.compute_totals. One reader,
billing.billed_holds, reads a log for compute_totals and ledger_from_report
alike: in one pass it checks every rule of a log, naming the first event
that breaks one (an unknown kind, a hold that is reversed, empty, or starts
before its trace or, working, before the index) or the first task with no
finish, and prices all holds in one batch per VM, bit for bit as
interval_cost and IndexCurve.integrate price each hold alone. Replaying a
serialized report therefore reproduces every output bit for bit.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate

import numpy as np

from .billing import billed_holds, compute_totals
from .catalog import Catalog, ResourceRequirement, Scope, filter_candidates
from .errors import InvariantError, SelectionError, SimulationError, SpotIndexError, exact, finite
from .index import IndexCurve, index_curve, normalize
from .policies import (
    ASK,
    STAY,
    MarketBlock,
    Policy,
    PolicyContext,
    PolicyDecision,
    build_policy,
    floored_utilization,
)
from .prices import PriceTrace, fold_sum, is_capped, left_sum, step_values, trailing_means
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


def _set_int(obj, key: str, name: str, **bounds):
    """Check obj.key, for a dataclass field due to hold an int, with finite
    (its range; bounds as finite takes them) and exact (its type), naming it
    `name`, and store the int that exact returns."""
    value = getattr(obj, key)
    finite(value, name, **bounds)
    object.__setattr__(obj, key, exact(int, value, name))


def _at_most(value, bound: int, name: str):
    if value > bound:
        raise InvariantError(f"{name} must be at most {bound}, got {value!r}")


@dataclass(frozen=True)
class Phase:
    duration: int
    cpu: float
    mem: float

    def __post_init__(self):
        _set_int(self, "duration", "phase duration")
        finite(self.cpu, "phase cpu")
        finite(self.mem, "phase mem")


def _task_count(tasks, name: str = "tasks") -> int:
    """tasks as an int from 1 to MAX_TASKS, or an InvariantError naming it."""
    finite(tasks, name, minimum=1, strict=False)
    tasks = exact(int, tasks, name)
    _at_most(tasks, MAX_TASKS, name)
    return tasks


@dataclass(frozen=True)
class JobSpec:
    """A job as a sequence of per-task resource phases.

    kind "bsp" makes tasks run in lockstep: any migrating or restarting task
    pauses the rest, and a revoked task restarts from its last superstep
    barrier instead of its last phase boundary. reference_capacity is the
    (cpu, mem) the job is notionally entitled to when costed against the
    index; it defaults to requirement, itself the peak phase demand unless
    given.
    """

    name: str
    phases: tuple[Phase, ...]
    kind: str = LONG_RUNNING
    tasks: int = 1
    requirement: ResourceRequirement | None = None
    mem_footprint: float = 4.0
    max_price: float | None = None
    reference_capacity: tuple[float, float] | None = None
    # the work at which each phase ends, cumulative
    phase_ends: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not exact(str, self.name, "name"):
            raise ValueError("job name must be non-empty")
        if exact(str, self.kind, "kind") not in (LONG_RUNNING, BSP):
            raise ValueError(f"job kind must be '{LONG_RUNNING}' or '{BSP}'")
        if not isinstance(self.phases, (tuple, list)) or not all(
            isinstance(phase, Phase) for phase in self.phases
        ):
            raise InvariantError(f"phases must be a list of Phase, got {self.phases!r}")
        if not self.phases:
            raise ValueError("phases must not be empty")
        object.__setattr__(self, "phases", tuple(self.phases))
        object.__setattr__(self, "phase_ends", tuple(accumulate(p.duration for p in self.phases)))
        object.__setattr__(self, "tasks", _task_count(self.tasks))
        finite(self.mem_footprint, "mem_footprint")
        if self.max_price is not None:
            finite(self.max_price, "max_price")
        if not isinstance(self.requirement, (ResourceRequirement, type(None))):
            raise InvariantError(f"requirement must be a ResourceRequirement, got {self.requirement!r}")
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
            if not isinstance(self.reference_capacity, (tuple, list)) or len(self.reference_capacity) != 2:
                raise InvariantError(
                    f"reference_capacity must be a (cpu, mem) pair, got {self.reference_capacity!r}"
                )
            cpu, mem = self.reference_capacity
            finite(cpu, "reference_capacity cpu")
            finite(mem, "reference_capacity mem")
            object.__setattr__(self, "reference_capacity", (float(cpu), float(mem)))

    @property
    def total_work(self) -> int:
        return self.phase_ends[-1]

    def phase_at(self, work: int) -> Phase:
        """The phase that work is in; the last one from its end on."""
        return self.phases[min(bisect_right(self.phase_ends, work), len(self.phases) - 1)]

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
        and name and phases, which have none, must be given. JobSpec checks
        name and kind; the numbers are cast here, so that a library caller's
        4 stays 4. A value of the wrong shape or type (see exact) raises
        ValueError naming its key."""
        if not isinstance(raw, dict):
            raise ValueError(f"job spec must be a JSON object, got {raw!r}")

        def shaped(key, value, size, what):
            """value, when it is a list (of `size` items unless size is None)."""
            if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
                raise ValueError(f"{key} must be {what}, got {value!r}")
            return value

        def checked(key, kinds, values, names, strict=True):
            """Each value as its kind, finite and > 0 (>= 0 unless strict),
            or an InvariantError naming it `key name`."""
            cast = [exact(kind, value, f"{key} {name}") for kind, value, name in zip(kinds, values, names)]
            for value, name in zip(cast, names):
                finite(value, f"{key} {name}", strict=strict)
            return tuple(cast)

        def floats(key, strict=True):
            pair = [exact(float, v, key) for v in shaped(key, raw[key], 2, "a list of two numbers")]
            return checked(key, (float, float), pair, ("cpu", "mem"), strict)

        def phase(i, entry):
            key = f"phases[{i}]"
            values = shaped(key, entry, 3, "a [seconds, cpu, mem] list")
            return Phase(*checked(key, (int, float, float), values, ("duration", "cpu", "mem")))

        casts = {
            "kind": raw.get,
            "tasks": lambda key: exact(int, raw[key], key),
            "requirement": lambda key: ResourceRequirement(*floats(key, strict=False)),
            "mem_footprint": lambda key: exact(float, raw[key], key),
            "max_price": lambda key: exact(float, raw[key], key),
            "reference_capacity": floats,
        }
        phases = shaped("phases", raw.get("phases"), None, "a list of [seconds, cpu, mem] lists")
        return cls(
            name=raw.get("name"),
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
        _set_int(self, "revocation_restart", "migration revocation_restart", strict=False)

    def seconds(self, mem_footprint: float) -> int:
        copy = self.rate * mem_footprint
        finite(copy, "migration rate * mem_footprint", strict=False)
        return int(math.ceil(max(copy, self.fixed_floor)))


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
        for key in ("epoch", "horizon", "sigma_window", "bsp_superstep"):
            _set_int(self, key, key)
        # epoch steps, and sigma_window clips, a market block's int64 ticks
        for key in ("epoch", "sigma_window"):
            _at_most(getattr(self, key), 2**63 - 1, key)
        if self.index_reference not in ("window", "instant"):
            raise ValueError("index_reference must be 'window' or 'instant'")
        exact(bool, self.treat_cap_as_revocation, "treat_cap_as_revocation")
        if not isinstance(self.migration, MigrationModel):
            raise InvariantError(f"migration must be a MigrationModel, got {self.migration!r}")
        if self.max_wallclock is not None:
            _set_int(self, "max_wallclock", "max_wallclock")


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


def window_stats(trace: PriceTrace, t: int, window: int) -> tuple[float, float]:
    """Time-weighted mean and population std over [t - window, t).

    The window is clipped to the trace start; with no lookback at all the
    instantaneous price stands in and the std is zero. The scalar reference
    for _window_moments, the candidates' moments in _market_block.
    """
    t0 = max(t - window, int(trace.first_ts))
    if t <= t0:
        return trace.price_at(t), 0.0
    prices, widths = trace.steps(t0, t)
    span = t - t0
    mean = left_sum(prices * widths) / span
    return mean, math.sqrt(max(left_sum(prices * prices * widths) / span - mean * mean, 0.0))


def _window_moments(traces, clipped, window: int, prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The window means and stds of each of traces at its clipped ticks,
    given its prices there (step_values' pair, a row each): the moments of
    _market_block, whose scalar reference is window_stats."""
    pairs = [
        trailing_means(trace.timestamps, trace.prices, trace.first_ts, t1, window, now, squares=True)
        for trace, t1, now in zip(traces, clipped, prices)
    ]
    means = np.array([mean for mean, _ in pairs])
    squares = np.array([square for _, square in pairs])
    # an empty window's mean of p * p is price * price, so its std is 0.0
    return means, np.sqrt(np.maximum(squares - means * means, 0.0))


def _window_reference(curve: IndexCurve, t1, window: int, now: np.ndarray) -> np.ndarray:
    """The index's window means at its clipped ticks t1, where it is now:
    _market_block's reference under "window"."""
    return trailing_means(curve.timestamps, curve.values, curve.start, t1, window, now)


def _dropped(spec, prices, max_price: float, cap_rule: bool):
    """Whether spec's VM at a price, or at each of an array of prices, is
    left out of the market: over max_price or, under cap_rule
    (treat_cap_as_revocation), on the cap."""
    over = prices > max_price
    if cap_rule:
        over |= is_capped(prices, spec)
    return over


def _market_block(
    curve: IndexCurve, members, max_price, cap_rule, window, reference, horizon, t_m, ticks
) -> MarketBlock:
    """The market at each of ticks, an int64 array evenly spaced by the
    epoch, over the index curve and members, the candidates' (VmSpec, trace)
    pairs in id order: the one market rule, vectorized, as the arrays a
    policy's decision table reads and whose column k becomes a context only
    when asked for (MarketBlock.context). The market is undefined (ok is
    False) before the index or a candidate's trace starts, or where the index
    the reference mode reads is undefined: at a step with no live member,
    which holds NaN, and under "window" over a window that holds such a step
    (IndexCurve.window_defined). `over` marks the candidates _dropped leaves
    out. The candidates' window moments (_window_moments) and, under
    "window", the index's window means (_window_reference) are computed at
    every tick on the block's first read of them."""
    t1, index_now = step_values(curve.timestamps, curve.values, curve.start, ticks)
    ok = (ticks >= curve.start) & ~np.isnan(index_now)
    index_reference = None
    if reference == "window":
        ok &= curve.window_defined(t1, window)
        index_reference = partial(_window_reference, curve, t1, window, index_now)
    specs, traces = zip(*members)
    clipped, prices = [], []
    for trace in traces:
        ok &= ticks >= trace.first_ts
        clip, price = step_values(trace.timestamps, trace.prices, trace.first_ts, ticks)
        clipped.append(clip)
        prices.append(price)
    prices = np.array(prices)
    over = np.array([_dropped(spec, row, max_price, cap_rule) for spec, row in zip(specs, prices)])
    return MarketBlock(
        specs,
        ok,
        index_now,
        index_reference,
        prices,
        over,
        partial(_window_moments, traces, clipped, window, prices),
        horizon=horizon,
        migration_seconds=float(t_m),
    )


@lru_cache(maxsize=2)
def _opening_block(*market, epoch: int, count: int) -> MarketBlock:
    """_market_block of the count epoch ticks from t=0 over market, shared:
    one of the last two blocks this built, with whatever a run has read of
    it since, for a call whose arguments are equal to its own (the index
    curve and each candidate's trace the same objects, each VmSpec equal);
    otherwise a new block, which it keeps until two others replace it. A
    run asks for two: its opening epoch table, and the one-tick block of
    its picks at t=0 (count 1). With a block, a run shares what the runs
    before it kept on it of an equal policy's answers (MarketBlock.kept):
    its decision tables on the opening table, its picks on the one-tick
    block."""
    return _market_block(*market, epoch * np.arange(count))


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
        self.curve = index_curve(traces, catalog, self.composition)
        specs, cheapest = _candidates(job, catalog, scope)
        missing = [s.id for s in specs if s.id not in traces]
        if missing:
            raise SimulationError(f"candidates without price traces: {missing}")
        # per distinct (cpu, mem), in first-occurrence order: its first phase
        firsts = {}
        for n, phase in enumerate(job.phases):
            firsts.setdefault((phase.cpu, phase.mem), n)
        for spec in specs:
            for (cpu, mem), n in firsts.items():
                cpu_u, mem_u = floored_utilization(spec, cpu, mem)
                if not cpu_u * mem_u > 0:
                    raise SimulationError(
                        f"candidate {spec.id!r} at phases[{n}] (cpu {cpu!r}, mem {mem!r}): "
                        f"floored utilization {cpu_u!r} * {mem_u!r} is not above 0"
                    )
        self.candidates = specs
        self.max_price = cheapest if job.max_price is None else job.max_price
        self.t_m = params.migration.seconds(job.mem_footprint)
        self.total_work = job.total_work
        self.reference_capacity = job.reference_capacity or (
            job.requirement.min_cpu,
            job.requirement.min_mem,
        )
        # _market_block's arguments but the ticks
        self._market = (
            self.curve,
            tuple((spec, traces[spec.id]) for spec in specs),
            self.max_price,
            params.treat_cap_as_revocation,
            params.sigma_window,
            params.index_reference,
            params.horizon,
            self.t_m,
        )
        candidate_ids = {s.id for s in specs}
        # per candidate id: its row in a market block
        self._rows = {spec.id: row for row, spec in enumerate(specs)}
        if forced_migrations is None:
            forced_migrations = ()
        elif not isinstance(forced_migrations, (list, tuple)):
            raise SimulationError(
                f"forced migrations must be a list or tuple of (t, task, vm) triples, "
                f"got {forced_migrations!r}"
            )
        forced = []
        for entry in forced_migrations:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise SimulationError(f"forced migration {entry!r} is not a (t, task, vm) triple")
            t, idx, target = entry
            try:
                t, idx = exact(int, t, "t"), exact(int, idx, "task")
            except InvariantError as exc:
                raise SimulationError(f"forced migration {entry!r}: {exc}") from None
            if t < 0:
                raise SimulationError(f"forced migration {entry!r} has a negative time")
            if not 0 <= idx < job.tasks:
                raise SimulationError(
                    f"forced migration {entry!r} names task {idx}, "
                    f"but the job's tasks are 0..{job.tasks - 1}"
                )
            if not isinstance(target, str) or target not in candidate_ids:
                raise SimulationError(f"forced migration target {target!r} not a candidate")
            forced.append((t, idx, target))
        self.forced = sorted(forced, key=lambda f: (f[0], f[1]))
        self.tasks = [_Task(i) for i in range(job.tasks)]
        self.bsp = job.kind == BSP
        self.events: list[dict] = []
        # the epoch table: the market at _table_first, _table_first + epoch, ...
        self._table = ()
        self._table_first = 0
        # the policy's decision tables kept on the epoch table
        # (_decisions_of), fetched once per fill
        self._tables = {}
        # the last ask's key and answer (_ask)
        self._asked = None
        self._answer = None
        # per held vm: its sorted step starts over max_price or on the cap,
        # and the first of them at or after the last second asked
        self._crossings = {}

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

    def _dropped(self, vm: str, prices):
        """_dropped, for vm under this run's max_price and cap rule."""
        return _dropped(self.catalog[vm], prices, self.max_price, self.params.treat_cap_as_revocation)

    def _crossed(self, vm: str, t: int) -> bool:
        return self._dropped(vm, self._price(vm, t))

    def _held_crossed(self, vm: str, t: int) -> bool:
        """_crossed, for a VM a task holds at t, at a second the engine
        steps: read from the crossing cache, with no price lookup (see
        _step for why the two agree)."""
        return self._next_crossing(vm, t) == t

    def _block(self, ticks) -> MarketBlock:
        """The market at each of ticks (_market_block)."""
        return _market_block(*self._market, ticks)

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

    def _epoch_table(self, t: int) -> tuple[MarketBlock, int]:
        """The epoch table and the index in it of t, an epoch tick. The
        table is refilled once t is past its end (ticks only move forward)
        with up to TABLE_TICKS ticks and none at or past the earliest second
        the run can end: the least-advanced task still has its remaining
        work to do. The opening table, at t=0, does not depend on the
        policy or the job's phases, so the runs over one market share it
        (_opening_block), and with it the decision tables that an equal
        policy's runs have kept on it; a refill, and the tables kept on it,
        are the run's own. Each fill fetches the policy's tables from the
        table once (MarketBlock.kept), so no decision hashes the policy."""
        epoch = self.params.epoch
        if t >= self._table_first + epoch * len(self._table):
            work = min(task.work for task in self.tasks if task.state != DONE)
            count = max(1, min(TABLE_TICKS, -(-(self.total_work - work) // epoch)))
            if t == 0:
                self._table = _opening_block(*self._market, epoch=epoch, count=count)
            else:
                self._table = self._block(t + epoch * np.arange(count))
            self._table_first = t
            self._tables = self._table.kept(self.policy)
        return self._table, (t - self._table_first) // epoch

    def _pick_block(self) -> MarketBlock:
        """The one-tick block of the picks at t=0, which the runs over one
        market share (_opening_block)."""
        return _opening_block(*self._market, epoch=self.params.epoch, count=1)

    def _context(self, t: int, phase: Phase, current: str | None) -> PolicyContext:
        """The PolicyContext at t, asked at phase's cpu and mem with current
        held. A decision (current held), which the engine asks only at an
        epoch tick, reads its column of the epoch table, whose window
        arrays the policy's decision table reads anyway. A pick (current
        None) gets a one-tick block, so that its first read of a window
        statistic computes one window per candidate, not one per tick of
        the table: at t=0 the one the runs over one market share
        (_opening_block), elsewhere its own. Views are built only for the
        column read, and no context is kept: _ask shares answers, not
        contexts."""
        if current is not None:
            block, k = self._epoch_table(t)
        elif t:
            block, k = self._block(np.array([t])), 0
        else:
            block, k = self._pick_block(), 0
        ctx = block.context(k, t, phase.cpu, phase.mem, current)
        if ctx is None:
            self._raise_undefined(t)
        return ctx

    def _ask(self, ask, t: int, task: _Task, current: str | None):
        """ask (the policy's select or decide) on task's context at t, or the
        last ask's answer where that had the same key: all that a context is
        built from, which is the call, t, the phase's cpu and mem, and
        current. The tasks that share a context at one instant, a BSP gang
        at a decision tick, so share one call. A SelectionError from the
        policy or the context's checks, or a pick or migration target that
        is not among the context's candidates, ends the run as a
        SimulationError that names t and the task."""
        phase = self.job.phase_at(task.work)
        key = (ask, t, phase.cpu, phase.mem, current)
        if key == self._asked:
            return self._answer
        try:
            ctx = self._context(t, phase, current)
            answer = ask(ctx)
        except SelectionError as exc:
            raise SimulationError(f"selection failed at t={t} for task {task.idx}: {exc}") from exc
        # a failed check below ends the run, so the answer kept is never read
        self._asked, self._answer = key, answer
        if not isinstance(answer, PolicyDecision):
            pick = answer
        elif answer.action == PolicyDecision.MIGRATE:
            pick = answer.target
        else:
            return answer
        if all(view.spec.id != pick for view in ctx.candidates):
            raise self._not_a_candidate(pick, t, task)
        return answer

    @staticmethod
    def _not_a_candidate(pick, t: int, task: _Task) -> SimulationError:
        return SimulationError(
            f"policy chose {pick!r} at t={t} for task {task.idx}, which is not among its candidates"
        )

    # state transitions

    def _pick(self, t: int, task: _Task) -> str:
        """The VM the policy selects for task at t (_ask). A pick at t=0,
        once it has passed _ask's checks, is kept on the shared one-tick
        block (MarketBlock.kept) by the phase's cpu and mem, and read from
        there by every later ask of it, by this run's other tasks and by
        the runs over one market with an equal policy."""
        if t:
            return self._ask(self.policy.select, t, task, None)
        phase = self.job.phase_at(task.work)
        picks = self._pick_block().kept(self.policy)
        key = (phase.cpu, phase.mem)
        if key not in picks:
            picks[key] = self._ask(self.policy.select, t, task, None)
        return picks[key]

    def _acquire(self, task: _Task, t: int, reason: str, working: bool) -> str:
        """The VM the policy selects for task at t (_pick), acquired and
        its hold opened."""
        vm = self._pick(t, task)
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
        self._open_hold(task, vm, t, working)
        return vm

    def _start_migration(
        self, task: _Task, t: int, target: str, reason: str, forced: bool, quote=None
    ):
        """Start task's move to target at t. quote is (the source's price,
        the target's, the index) at t where the epoch table gave them, and
        None where they are to be looked up."""
        src = task.vm
        if quote is None:
            quote = self._price(src, t), self._price(target, t), self.curve.value_at(t)
        price_src, price_dst, index_now = quote
        sufficiency_ok = should_migrate(
            index_now,
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
        i = bisect_right(self.job.phase_ends, work)
        return self.job.phase_ends[i - 1] if i else 0

    def _revoke(self, task: _Task, t: int):
        old_vm = task.vm
        old_price = self._price(old_vm, t)
        for vm in list(task.holds):
            self._close_hold(task, vm, t)
        rolled = self._rollback_point(task.work)
        work_lost = task.work - rolled
        task.work = rolled
        task.mig_dst = None
        new_vm = self._acquire(task, t, "revocation", working=False)
        restart = self.params.migration.revocation_restart
        task.state = RESTARTING if restart > 0 else WORKING
        task.stall_until = t + restart
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

    def _flags(self) -> list:
        """Each task's works flag in the state as it stands, None once done;
        some task must be unfinished."""
        low = self._gang_low() if self.bsp else None
        return [None if task.state == DONE else self._works_now(task, low) for task in self.tasks]

    def _work(self, t: int) -> list:
        """Run second t's work step; returns each task's works flag (_flags).
        Every flag is taken before any work is added, so a BSP task works
        when it is at the gang's low mark as the second starts."""
        flags = self._flags()
        for task, works in zip(self.tasks, flags):
            if works is None:
                continue
            self._set_flags(task, t, works)
            if works:
                task.work += 1
        return flags

    # next-event advance

    def _over_starts(self, vm: str) -> np.ndarray:
        """The sorted step starts of vm's trace priced over max_price or, under
        treat_cap_as_revocation, on the cap."""
        trace = self.traces[vm]
        return trace.timestamps[self._dropped(vm, trace.prices)]

    def _next_crossing(self, vm: str, t: int) -> float:
        """The first second at or after t at which vm's price crosses over
        max_price or onto the cap: the one price change of a held VM that
        the step acts on. Looked up once per crossing passed, since t only
        moves forward."""
        cached = self._crossings.get(vm)
        if cached is None:
            cached = self._crossings[vm] = [self._over_starts(vm), -1]
        starts, crossing = cached
        if crossing < t:
            i = int(starts.searchsorted(t))
            crossing = cached[1] = int(starts[i]) if i < len(starts) else math.inf
        return crossing

    def _decisions_of(self, vm: str, cpu: float, mem: float) -> tuple:
        """The policy's decision table over the epoch table, holding vm at
        this cpu and mem; its answers as a list; per index k of the epoch
        table, and one past its end, the first index from k on that it does
        not answer STAY. Built once per table and policy: kept on the table
        (_epoch_table) once it passes the check below, for this run and, on
        a shared opening table, for the runs after it with an equal policy;
        a table that fails it is not kept, so a later run raises again."""
        key = (vm, cpu, mem)
        found = self._tables.get(key)
        if found is None:
            count, rows = len(self._table), len(self.candidates)
            table = self.policy.decisions(self._table, vm, cpu, mem)
            answers = np.asarray(table.answers)
            if (
                answers.shape != (count,)
                or answers.dtype.kind not in "iu"
                or not ((ASK <= answers) & (answers < rows)).all()
            ):
                raise SimulationError(
                    f"policy {self.policy.name!r} returned a decision table that is not "
                    f"{count} answers from {ASK} to {rows - 1}"
                )
            indices = np.arange(count + 1)
            indices[:count][answers == STAY] = count
            until = np.minimum.accumulate(indices[::-1])[::-1].tolist()
            found = self._tables[key] = (table, answers.tolist(), until)
        return found

    def _next_decision(self, t: int, flags: list, bound: int) -> int:
        """The first epoch tick from t on at which some working task may not
        stay, or, where that comes later, the first tick at or past bound,
        the first of _next_instant's other stops. The epoch table's end,
        where _epoch_table refills it, is a stop, and a tick past it is one.

        A decision table holds for one phase's cpu and mem, so the tasks go
        on together as a loop that stepped at each phase boundary's tick
        would: from second s, each task's table for its phase at s, in task
        order up to the first whose stop is the next tick, gives the tick
        at which its answer is not STAY or its phase ends; at the first such
        tick before bound, each task's table for its phase there; and where
        all of them stay, on from the second after it. A run so asks
        Policy.decisions for the same (vm, cpu, mem) keys, in the same
        order, as a loop that steps at each boundary's tick: a custom
        policy may raise on a key it is never asked for."""
        epoch = self.params.epoch
        first, count = self._table_first, len(self._table)
        phases, ends = self.job.phases, self.job.phase_ends
        working = [task for task, works in zip(self.tasks, flags) if works]
        s = t
        while True:
            tick = -(-s // epoch) * epoch
            k = (tick - first) // epoch
            if k >= count:
                return tick
            stop = count
            for task in working:
                work = task.work + s - t
                i = bisect_right(ends, work)
                boundary = -(-(s + ends[i] - work - first) // epoch)
                stop = min(stop, boundary, self._decisions_of(task.vm, phases[i].cpu, phases[i].mem)[2][k])
                if stop == k:
                    break
            tick = first + epoch * stop
            if stop == count or tick >= bound:
                return tick
            for task in working:
                phase = self.job.phase_at(task.work + tick - t)
                if self._decisions_of(task.vm, phase.cpu, phase.mem)[1][stop] != STAY:
                    return tick
            s = tick + 1

    def _next_instant(self, t: int, flags: list, forced_queue, limit: int) -> int:
        """The first second from t on whose steps can differ from those of
        second t - 1, given that second t - 1 took the works flags `flags`
        and that the state as second t begins gives the same (_flags): the
        next decision that may move a task (_next_decision), the next
        crossing of a held VM, the next stall end or scripted migration,
        the furthest task's last second and a held-back BSP task's
        rejoining. All but the decision are found first, and bound how far
        _next_decision looks."""
        nxt = limit + 1
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
                break
            if task.state in (MIGRATING, RESTARTING):
                nxt = min(nxt, task.stall_until)
            for vm in task.holds:
                nxt = min(nxt, self._next_crossing(vm, t))
        # asked even where another stop is now: a loop that steps at each
        # phase boundary's tick asks each task's table for its phase at t
        # here (see _next_decision)
        return max(min(nxt, self._next_decision(t, flags, nxt)), t)

    def _decide(self, t: int):
        """Each working task's decision at epoch tick t, then the moves they
        make; a move to the held VM is none."""
        moves = [
            (task, move)
            for task, works in zip(self.tasks, self._flags())
            if works and (move := self._move_at(t, task)) is not None
        ]
        for task, (target, reason, quote) in moves:
            if target != task.vm:
                self._start_migration(task, t, target, reason=reason, forced=False, quote=quote)

    def _move_at(self, t: int, task: _Task):
        """(target, reason, quote) of the move that task's decision at epoch
        tick t makes, or None where it stays: read from task's decision
        table, and asked of the policy (_asked_move) only where that answers
        ASK. A move's reason is the table's reason(k), asked only for a
        move, and its quote for _start_migration is the table's prices of
        the held VM and the target and its index at k. A move to a
        candidate left out of the market at t ends the run as _ask ends it
        for such a pick."""
        table, k = self._epoch_table(t)
        phase = self.job.phase_at(task.work)
        decisions, answers, _ = self._decisions_of(task.vm, phase.cpu, phase.mem)
        row = answers[k]
        if row == STAY:
            return None
        if row == ASK:
            return self._asked_move(t, task)
        if not table.ok[k]:
            self._raise_undefined(t)
        pick = table.specs[row].id
        if table.over[row, k]:
            raise self._not_a_candidate(pick, t, task)
        prices = table.prices
        quote = prices.item(self._rows[task.vm], k), prices.item(row, k), table.index_now.item(k)
        return pick, decisions.reason(k), quote

    def _asked_move(self, t: int, task: _Task):
        """_move_at, from the policy's decide asked on task's context, with
        no quote."""
        decision = self._ask(self.policy.decide, t, task, task.vm)
        if decision.action == PolicyDecision.MIGRATE:
            return decision.target, decision.reason, None
        return None

    # one second

    def _step(self, t: int, forced_queue: list):
        """Second t's steps before its work: stall ends, revocation checks
        against the prices now in force, scripted migrations, then the
        policy decision tick.

        A held VM's check (_held_crossed) asks the crossing cache whether
        its price crosses over max_price or onto the cap at t itself, not
        what its price is. That answers as _crossed does, since a held VM
        is never dropped at any second from its acquisition to t but at a
        crossing, t's own among them: every acquisition takes a VM that is
        not dropped at that instant (select's candidates, a table move's
        over check in _move_at, an asked move's candidates, a forced
        move's target checked by _crossed below), and _next_instant steps
        at every crossing of a held VM, where this check revokes it or
        aborts the move onto it."""
        for task in self.tasks:
            if task.state == MIGRATING and task.stall_until == t:
                self._finish_migration(task, t)
            elif task.state == RESTARTING and task.stall_until == t:
                task.state = WORKING

        for task in self.tasks:
            if task.state == DONE:
                continue
            if task.state == MIGRATING:
                if self._held_crossed(task.vm, t):
                    self._abort_migration(task, t, cause="src_price")
                    self._revoke(task, t)
                elif self._held_crossed(task.mig_dst, t):
                    self._abort_migration(task, t, cause="dst_price")
            elif self._held_crossed(task.vm, t):
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

        # the opening table, filled here since no pick reads it (_context)
        self._epoch_table(0)
        for task in self.tasks:
            self._acquire(task, 0, "initial", working=True)

        t = 0
        while True:
            if t > limit:
                raise SimulationError(f"no convergence after {limit} simulated seconds")
            self._step(t, forced_queue)
            flags = self._work(t)
            t += 1
            self._finish(t)
            if all(task.state == DONE for task in self.tasks):
                break

            # A second whose works flags the next one would take again
            # repeats until the next instant something can change.
            if self._flags() == flags:
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
    is None, for none, or a list or tuple of (t, task_index, target_vm_id)
    the engine executes unconditionally, for experiments that script a
    move; each entry must be a 3-item list or tuple of whole-number t and
    task_index, and each target a candidate, which is checked before the
    run starts. At its time the task must be working and the target not
    over max_price or on the cap, and the run must not end before it;
    otherwise the run raises SimulationError. The run itself is
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


def _candidates(job: JobSpec, catalog: Catalog, scope: Scope | None) -> tuple[list, float]:
    """The catalog's VMs that satisfy job within scope, and the cheapest of
    their on-demand prices."""
    specs = filter_candidates(catalog, job.requirement, scope)
    if not specs:
        raise SimulationError(f"no candidate VM satisfies job {job.name!r}")
    return specs, min(s.on_demand_price for s in specs)


def on_demand_baseline(job: JobSpec, catalog: Catalog, scope: Scope | None = None) -> float:
    """Cost of the cheapest qualifying on-demand VM running the job straight
    through: no revocations, no stalls, one task-hour costs one od-hour."""
    return _candidates(job, catalog, scope)[1] * job.total_work * job.tasks / 3600.0


def normalize_report(report: SimReport, baseline_on_demand_cost: float) -> SimReport:
    """Fill in the cost ratios against the on-demand and index baselines."""
    finite(baseline_on_demand_cost, "baseline_on_demand_cost")
    reference = report.index_cost_reference
    report.cost_vs_on_demand = report.total_cost / baseline_on_demand_cost
    report.cost_vs_index = report.total_cost / reference if reference > 0 else None
    return report


def _listed(value, name: str, item=None) -> list:
    """value, when it is a list or tuple (of `item`s, unless item is None)."""
    if not isinstance(value, (list, tuple)) or (item and not all(isinstance(v, item) for v in value)):
        of = f" of {item.__name__}" if item else ""
        raise InvariantError(f"{name} must be a list{of}, got {value!r}")
    return value


def _members(value, name: str) -> list:
    """value, a non-empty list of str."""
    if not _listed(value, name, str):
        raise InvariantError(f"{name} is empty")
    return value


def _capacity(value, name: str) -> tuple:
    """value, a [cpu, mem] pair of finite numbers above 0, as a tuple."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InvariantError(f"{name} must be a list of two numbers, got {value!r}")
    for number in value:
        finite(exact(float, number, name), name)
    return tuple(value)


def _report_value(raw, path: str, check):
    """The value at path (keys joined by dots) of a report dict, checked by
    check(value, path); a SimulationError naming path where the report has
    no such key or check raises InvariantError."""
    value = raw
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise SimulationError(f"report has no {path!r}")
        value = value[key]
    try:
        return check(value, path)
    except InvariantError as exc:
        raise SimulationError(f"report {exc}") from None


def _read_report(report: SimReport | dict, traces: dict, catalog: Catalog) -> tuple:
    """A report's dict, event log, task count and index curve, each key
    checked as _report_value checks it."""
    raw = report.to_dict() if isinstance(report, SimReport) else report
    events = _report_value(raw, "events", _listed)
    tasks = _report_value(raw, "tasks", _task_count)
    composition = _report_value(raw, "composition", _members)
    return raw, events, tasks, index_curve(traces, catalog, composition)


def replay(report: SimReport | dict, traces: dict, catalog: Catalog) -> dict:
    """Recompute every run output of a report from its serialized event log."""
    raw, events, tasks, curve = _read_report(report, traces, catalog)
    capacity = _report_value(raw, "params.reference_capacity", _capacity)
    return compute_totals(events, traces, catalog, curve, capacity, tasks)


def ledger_from_report(report: SimReport | dict, traces: dict, catalog: Catalog) -> TrackingLedger:
    """Rebuild the gain/loss ledger implied by a report's hold segments."""
    _, events, tasks, curve = _read_report(report, traces, catalog)
    ledger = TrackingLedger()
    for event, cost, index_cost in billed_holds(events, traces, catalog, curve, tasks):
        if event["working"]:
            ledger.add_gain(event["t0"], event["t1"], event["vm"], index_cost - cost, detail="hold")
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
