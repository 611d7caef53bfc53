"""Billing of a simulator event log: what each VM hold cost, and for a
working hold what its VM's capacity cost at the index over the same span.

interval_cost and IndexCurve.integrate price one hold alone (bill_hold), and
are the definitions. billed_holds prices a whole log with at most two
window_sums calls per VM and gets the same bits.
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


# The keys each kind of event must carry for compute_totals and the ledger
# to read it, beyond "event" itself.
_READ_KEYS = {"hold": ("t0", "t1", "task", "vm", "working"), "finish": ("t", "task")}


def malformed(events, traces, catalog, tasks: int) -> SimulationError | None:
    """A SimulationError naming the first event, by index, and its first
    key that the billing cannot read; None when every event reads. Called
    only once reading a log has failed, so valid logs pay nothing."""
    for i, event in enumerate(events):
        if not isinstance(event, dict) or not isinstance(event.get("event"), str):
            return SimulationError(f"event {i} has no 'event' kind: {event!r}")
        for key in _READ_KEYS.get(event["event"], ()):
            value = event.get(key)
            if key == "vm":
                ok = isinstance(value, str) and value in traces and value in catalog
            elif key == "working":
                ok = isinstance(value, bool)
            else:
                ok = type(value) is int and (key != "task" or 0 <= value < tasks)
            if not ok:
                return SimulationError(f"event {i} ({event['event']}) has a bad {key!r}: {value!r}")
    return None


def bill_hold(event, traces, catalog, curve: IndexCurve) -> tuple:
    """One hold's (cost, index_cost), priced alone: the definition that
    billed_holds' batches reproduce bit for bit."""
    cost = interval_cost(traces[event["vm"]], event["t0"], event["t1"])
    index_cost = None
    if event["working"]:
        spec = catalog[event["vm"]]
        index_cost = denormalize(spec, curve.integrate(event["t0"], event["t1"])) / 3600.0
    return cost, index_cost


class _Holds:
    """The holds of one VM that billed_holds prices in one batch: the spans
    of all of them and of the working ones, then their sums in order."""

    __slots__ = ("trace", "first", "spec", "t0", "t1", "working_t0", "working_t1", "sums", "index_sums")

    def __init__(self, trace: PriceTrace):
        self.trace = trace
        self.first = trace.first_ts
        self.spec = None
        self.t0, self.t1, self.working_t0, self.working_t1 = [], [], [], []


def billed_holds(events, traces, catalog, curve: IndexCurve, tasks: int):
    """Yield (event, cost, index_cost) for each hold in an event log of a job
    with `tasks` tasks, in order: what the hold cost, and for a working hold
    what its VM's capacity cost at the index over the same span (None
    otherwise). The one billing loop, read by compute_totals and
    ledger_from_report.

    The log is read once and its holds grouped by VM. Each group is priced
    with one window_sums call over its trace and one over the index curve
    for its working holds, so every hold gets bill_hold's bits. A hold that a
    batch does not price, because it is empty, starts before its trace or the
    curve, or its index span holds a gap, is billed alone by bill_hold in its
    turn and raises what bill_hold raises. Reading stops at the first event
    that cannot be read: one with no kind, or a hold whose t0 or t1 is not
    an int, whose task is not one of the job's or whose working flag is not
    a bool (TypeError). The holds before it are yielded, then its error is
    raised, which malformed names.
    """
    # two flat lists, one entry per hold: a container per hold would wake
    # the garbage collector again and again on a long log
    holds = []
    hold_groups = []  # None for a hold billed alone
    groups = {}
    failure = None
    start = curve.start
    for event in events:
        try:
            kind = event.get("event")
            if kind != "hold":
                if type(kind) is not str:
                    raise TypeError(f"event kind must be a str, got {kind!r}")
                continue
            t0, t1, task = event["t0"], event["t1"], event["task"]
            if type(t0) is not int or type(t1) is not int:
                raise TypeError(f"hold times must be ints, got {t0!r} and {t1!r}")
            if type(task) is not int or not 0 <= task < tasks:
                raise TypeError(f"hold task must be one of the job's, got {task!r}")
            vm = event["vm"]
            group = groups.get(vm)
            if group is None:
                group = groups[vm] = _Holds(traces[vm])
            working = event["working"]
            if type(working) is not bool:
                raise TypeError(f"hold working flag must be a bool, got {working!r}")
            if working and group.spec is None:
                group.spec = catalog[vm]
        except (AttributeError, KeyError, TypeError) as exc:
            # an unreadable event: raised once the holds before it are billed
            failure = exc
            break
        holds.append(event)
        if t1 <= t0 or t0 < group.first or t1 >= 2**63 or (working and t0 < start):
            # empty, raises, or fits no int64 array
            hold_groups.append(None)
            continue
        hold_groups.append(group)
        group.t0.append(t0)
        group.t1.append(t1)
        if working:
            group.working_t0.append(t0)
            group.working_t1.append(t1)
    for group in groups.values():
        trace = group.trace
        if group.t0:
            group.sums = iter(window_sums(trace.timestamps, trace.prices, group.t0, group.t1).tolist())
        if group.working_t0:
            group.index_sums = iter(curve.integrals(group.working_t0, group.working_t1).tolist())
    for event, group in zip(holds, hold_groups):
        if group is not None:
            cost = next(group.sums) / 3600.0
            if not event["working"]:
                yield event, cost, None
                continue
            total = next(group.index_sums)
            if total == total:
                yield event, cost, denormalize(group.spec, total) / 3600.0
                continue
            # a gap, which bill_hold names
        yield (event, *bill_hold(event, traces, catalog, curve))
    if failure is not None:
        raise failure
