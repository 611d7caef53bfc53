"""Billing of a simulator event log: what each VM hold cost, and for a
working hold what its VM's capacity cost at the index over the same span.

interval_cost and IndexCurve.integrate price one hold alone: they are the
definitions the tests compare billed_holds against. billed_holds prices a
whole log with one window_sums call per VM, plus one for the index, and
gets the same bits, in the one pass that also checks every event of the
log and names the first one it cannot read or price.
"""

from __future__ import annotations

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
    otherwise). The one reader of a log, and its one billing loop, for
    compute_totals and ledger_from_report.

    Reading checks, in this order, that an event is an object with a str
    "event" kind; for a hold, that t0 and t1 are ints within ±2**62, so that
    the difference of any two times fits an int64, and t1 is after t0, task
    is one of the job's, vm has a trace and a catalog row, working is a
    bool, and t0 is at or after the start of vm's trace and, for a working
    hold, of the index curve; for a finish, that t is an int below 2**62,
    task is one of the job's, and t is at or after 0 and the end of every
    earlier hold of that task.
    The first key that fails is a SimulationError naming it and the event's
    index, raised after the holds before it are yielded.

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
    others = 0  # the events read that are not holds
    failure = None
    start = curve.start
    low, top = -(2**62), 2**62  # every difference of two times fits an int64
    working_t0, working_t1 = [], []  # the index spans of the working holds
    for event in events:
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
                    if type(task) is not int or not 0 <= task < tasks:
                        raise _Unread("task")
                    if t < ends[task]:
                        raise _Unread("t")
                elif type(kind) is not str:
                    raise _Unread("event")
                others += 1
                continue
            t0 = event["t0"]
            if type(t0) is not int or not low <= t0 < top:
                raise _Unread("t0")
            t1 = event["t1"]
            if type(t1) is not int or not t0 < t1 < top:
                raise _Unread("t1")
            task = event["task"]
            if type(task) is not int or not 0 <= task < tasks:
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
            key, i = unread.args[0], len(holds) + others  # i: the events before it
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
