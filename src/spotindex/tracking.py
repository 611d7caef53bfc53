"""Gain/loss accounting for a workload tracking the index."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .catalog import VmSpec
from .errors import CoverageError, OutOfRangeError, exact, finite
from .index import IndexSeries, denormalize, normalize
from .prices import PriceTrace, fold_sum


def gain(
    trace: PriceTrace,
    spec: VmSpec,
    index: IndexSeries,
    start: int | None = None,
    end: int | None = None,
) -> float:
    """Accumulated saving versus the index while holding this VM.

    Riemann sum over the index sampling grid: each sample contributes
    (index - normalized price) * capacity scale * period seconds, converted
    from price-hours to plain price units. Samples where the member trace
    has no price are a coverage failure, not a silent skip. The run ledger
    and the report's gain do not call this: they integrate each hold
    exactly over the index curve.
    """
    total = 0.0
    missing = []
    for sample in index.samples:
        t = sample.timestamp
        if start is not None and t < start:
            continue
        if end is not None and t >= end:
            continue
        try:
            price = trace.price_at(t)
        except OutOfRangeError:
            missing.append(t)
            continue
        normalized = normalize(spec, price)
        total += denormalize(spec, sample.value - normalized) * index.period
    if missing:
        raise CoverageError(
            f"trace {trace.vm_id!r} missing samples at {missing}"
        )
    return total / 3600.0


def migration_loss(price_src: float, price_dst: float, t_m: float) -> float:
    """Cost of paying both VMs for the t_m seconds a migration takes."""
    finite(t_m, "migration time", strict=False)
    return (price_src + price_dst) * t_m / 3600.0


def horizon_saving(price_src: float, price_dst: float, horizon: float) -> float:
    """Money saved by paying price_dst instead of price_src over a planning
    horizon of `horizon` seconds."""
    return (price_src - price_dst) * horizon / 3600.0


def should_migrate(index_value: float, src_normalized: float, dst_normalized: float) -> bool:
    """Sufficient condition for a migration to pay for itself.

    The index must exceed the source normalized price plus twice the
    destination normalized price. Strict: equality does not justify a move.
    """
    return index_value > src_normalized + 2.0 * dst_normalized


@dataclass
class LedgerEvent:
    kind: str
    t0: int
    t1: int
    vm_id: str
    amount: float
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "LedgerEvent":
        """The inverse of to_dict; a missing or wrong-typed value (see exact)
        raises InvariantError naming its key, and detail defaults to ""."""
        return cls(
            kind=exact(str, raw.get("kind"), "kind"),
            t0=exact(int, raw.get("t0"), "t0"),
            t1=exact(int, raw.get("t1"), "t1"),
            vm_id=exact(str, raw.get("vm_id"), "vm_id"),
            amount=exact(float, raw.get("amount"), "amount"),
            detail=exact(str, raw.get("detail", ""), "detail"),
        )


class TrackingLedger:
    """Ordered record of gain and loss amounts accrued during a run.

    Gains are savings versus the index while productive; losses are money
    spent without progress (migration overlap, revocation restarts, pauses).
    """

    def __init__(self):
        self.events: list[LedgerEvent] = []

    def add_gain(self, t0: int, t1: int, vm_id: str, amount: float, detail: str = ""):
        self.events.append(LedgerEvent("gain", t0, t1, vm_id, amount, detail))

    def add_loss(self, t0: int, t1: int, vm_id: str, amount: float, detail: str = ""):
        self.events.append(LedgerEvent("loss", t0, t1, vm_id, amount, detail))

    @property
    def total_gain(self) -> float:
        return fold_sum(e.amount for e in self.events if e.kind == "gain")

    @property
    def total_loss(self) -> float:
        return fold_sum(e.amount for e in self.events if e.kind == "loss")

    @property
    def net(self) -> float:
        return self.total_gain - self.total_loss

    def to_dicts(self) -> list[dict]:
        return [e.to_dict() for e in self.events]

    @classmethod
    def from_dicts(cls, raw: list[dict]) -> "TrackingLedger":
        ledger = cls()
        ledger.events = [LedgerEvent.from_dict(r) for r in raw]
        return ledger
