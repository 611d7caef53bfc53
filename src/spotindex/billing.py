"""Billing of a simulator event log: what each VM hold cost, and for a
working hold what its VM's capacity cost at the index over the same span;
and compute_totals, every run output derived from the log.

interval_cost and IndexCurve.integrate price one hold alone: they are the
definitions the tests compare billed_holds against. billed_holds, the one
reader of a log and the one place its rules live, checks every event and
prices a whole log with one window_sums call per VM, plus one for the index,
with the same bits.
"""

from __future__ import annotations

from .catalog import capacity_scale
from .errors import SimulationError
from .index import IndexCurve, denormalize
from .prices import PriceTrace, left_sum, window_sums


def interval_cost(trace: PriceTrace, t0: int, t1: int) -> float:
    """Money spent holding one VM over [t0, t1): price times seconds / 3600."""
    if t1 <= t0:
        return 0.0
    prices, widths = trace.steps(t0, t1)
    return left_sum(prices * widths) / 3600.0


class _Holds:
    """The holds of one VM that billed_holds prices in one batch: their
    spans, then their sums in order."""

    __slots__ = ("trace", "first", "spec", "t0", "t1", "sums")

    def __init__(self, trace: PriceTrace, spec):
        self.trace = trace
        self.first = trace.first_ts
        self.spec = spec
        self.t0, self.t1 = [], []


class _Unread(KeyError):
    """A key of an event that is there but breaks a rule: like a missing
    one, billed_holds names it."""


def billed_holds(events, traces, catalog, curve: IndexCurve, tasks: int):
    """Yield (event, cost, index_cost) for each hold in an event log of a job
    with `tasks` tasks, in order: what the hold cost, and for a working hold
    what its VM's capacity cost at the index over the same span (None
    otherwise). The one reader of a log, for compute_totals and
    ledger_from_report, and the only code that checks an event.

    Reading checks, in this order, that an event is an object of a kind the
    engine writes (acquire, hold, migrate, abort_migration, revoke, finish);
    for a hold, that t0 and t1 are ints within ±2**62, so that the
    difference of any two times fits an int64, and t1 is after t0, task is
    one of the job's and has not finished, vm has a trace and a catalog
    row, working is a bool, and t0 is at or after the start of vm's trace
    and, for a working hold, of the index curve; for a finish, that t is an
    int below 2**62, task is one of the job's and has not finished, and t
    is at or after 0 and the end of every earlier hold of that task; after
    the last event, that every task has a finish.
    The first rule that fails is a SimulationError naming the event's index
    and key, or the task, raised after the holds before it are yielded.

    The holds are grouped by VM. Each group is priced with one window_sums
    call over its trace, and the working holds of every group with one over
    the index curve, so every hold gets the bits of interval_cost and
    IndexCurve.integrate. A working hold whose index span holds a gap sums
    to NaN there, and integrate, called in its turn, raises its GapError.
    """
    # flat lists, one entry per hold: a container per hold would wake the
    # garbage collector again and again on a long log
    holds = []
    groups = {}
    ends = [0] * tasks  # where each task's holds read so far end
    finished = [False] * tasks
    failure = None
    start = curve.start
    low, top = -(2**62), 2**62  # every difference of two times fits an int64
    working_t0, working_t1 = [], []  # the index spans of the working holds
    for i, event in enumerate(events):
        try:
            try:
                kind = event["event"]
            except (TypeError, IndexError):  # not an object
                raise _Unread("event") from None
            if kind != "hold":
                if kind == "finish":
                    t = event["t"]
                    if type(t) is not int or t >= top:
                        raise _Unread("t")
                    task = event["task"]
                    if type(task) is not int or not 0 <= task < tasks or finished[task]:
                        raise _Unread("task")
                    if t < ends[task]:
                        raise _Unread("t")
                    finished[task] = True
                elif kind not in ("acquire", "migrate", "abort_migration", "revoke"):
                    raise _Unread("event")
                continue
            t0 = event["t0"]
            if type(t0) is not int or not low <= t0 < top:
                raise _Unread("t0")
            t1 = event["t1"]
            if type(t1) is not int or not t0 < t1 < top:
                raise _Unread("t1")
            task = event["task"]
            if type(task) is not int or not 0 <= task < tasks or finished[task]:
                raise _Unread("task")
            vm = event["vm"]
            try:
                group = groups.get(vm)
            except TypeError:  # unhashable, so no vm id
                group = None
            if group is None:
                if not isinstance(vm, str) or vm not in traces or vm not in catalog:
                    raise _Unread("vm")
                group = groups[vm] = _Holds(traces[vm], catalog[vm])
            working = event["working"]
            if type(working) is not bool:
                raise _Unread("working")
            if t0 < group.first or (working and t0 < start):
                raise _Unread("t0")
        except KeyError as unread:
            key = unread.args[0]
            failure = SimulationError(
                f"event {i} has no 'event' kind: {event!r}" if key == "event"
                else f"event {i} ({kind}) has a bad {key!r}: {event.get(key)!r}"
            )
            break
        if t1 > ends[task]:
            ends[task] = t1
        holds.append(event)
        group.t0.append(t0)
        group.t1.append(t1)
        if working:
            working_t0.append(t0)
            working_t1.append(t1)
    if failure is None and False in finished:
        failure = SimulationError(f"event log has no finish event for task {finished.index(False)}")
    for group in groups.values():
        trace = group.trace
        group.sums = iter(window_sums(trace.timestamps, trace.prices, group.t0, group.t1).tolist())
    index_sums = iter(curve.integrals(working_t0, working_t1).tolist())
    for event in holds:
        group = groups[event["vm"]]
        cost = next(group.sums) / 3600.0
        if not event["working"]:
            yield event, cost, None
            continue
        total = next(index_sums)
        if total != total:  # a gap, which integrate names
            total = curve.integrate(event["t0"], event["t1"])
        yield event, cost, denormalize(group.spec, total) / 3600.0
    if failure is not None:
        raise failure


def compute_totals(events, traces, catalog, curve: IndexCurve, reference_capacity, tasks: int) -> dict:
    """Derive every run output from the event log: the money totals from
    the hold segments, the downtime from the union of the non-working ones,
    and the rest from the other events.

    The simulator calls it on its own log and replay calls it on a
    deserialized one, so the two agree exactly. billed_holds reads the log
    and checks every rule of it, a finish for every task included, so the
    passes over the events here check nothing again.
    """
    total_cost = 0.0
    productive_cost = 0.0
    index_cost_held = 0.0
    final_vms = [None] * tasks
    stalls = []
    for event, cost, index_cost in billed_holds(events, traces, catalog, curve, tasks):
        total_cost += cost
        final_vms[event["task"]] = event["vm"]
        if event["working"]:
            productive_cost += cost
            index_cost_held += index_cost
        else:
            stalls.append((event["t0"], event["t1"]))
    kinds = [event["event"] for event in events]
    finished = {event["task"]: event["t"] for event in events if event["event"] == "finish"}
    finish_times = [finished[task] for task in range(tasks)]
    t_end = max(finish_times)
    downtime = reach = 0
    for t0, t1 in sorted(stalls):
        if t1 > reach:
            downtime += t1 - max(t0, reach)
            reach = t1
    gain = index_cost_held - productive_cost
    loss = total_cost - productive_cost
    ref_scale = capacity_scale(*reference_capacity)
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
        "migrations": kinds.count("migrate") - kinds.count("abort_migration"),
        "aborted_migrations": kinds.count("abort_migration"),
        "revocations": kinds.count("revoke"),
        "downtime_seconds": downtime,
        "availability": 1.0 - downtime / t_end if t_end > 0 else 1.0,
    }
