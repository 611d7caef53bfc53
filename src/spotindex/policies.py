"""VM selection and migration policies.

Policies are pure decision rules: they look at a PolicyContext snapshot
(current prices, trailing-window statistics, the index) and answer either
"which VM do I start on" (select) or "do I stay or move" (decide). All
accounting and trace bookkeeping lives in the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import VmSpec
from .errors import SelectionError
from .index import normalize
from .tracking import should_migrate

SIGMA_FLOOR = 1e-9
TIE_TOLERANCE = 1e-9
CPU_FLOOR_FRACTION = 0.05
MEM_FLOOR_GB = 0.05


def floored_utilization(spec: VmSpec, cpu_used: float, mem_used: float) -> tuple[float, float]:
    """Clamp tiny utilizations so the utilized-price divisor stays sane.

    CPU is floored at a fraction of the VM's own capacity, memory at an
    absolute sliver; a nearly idle workload should not make any VM look
    infinitely expensive per used unit.
    """
    cpu_u = max(cpu_used, CPU_FLOOR_FRACTION * spec.cpu_capacity)
    mem_u = max(mem_used, MEM_FLOOR_GB)
    return cpu_u, mem_u


def utilized_price(price: float, cpu_used: float, mem_used: float) -> float:
    """Price per unit of sqrt(cpu * mem) actually used, not provisioned."""
    if cpu_used <= 0 or mem_used <= 0:
        raise ValueError("utilization must be positive; apply floors first")
    return price / math.sqrt(cpu_used * mem_used)


def sharpe(index_reference: float, utilized_mean: float, sigma: float) -> float:
    """Risk-adjusted expected saving of holding a VM versus the index."""
    return (index_reference - utilized_mean) / max(sigma, SIGMA_FLOOR)


@dataclass(frozen=True)
class CandidateView:
    """Everything a policy may inspect about one candidate VM."""

    spec: VmSpec
    price: float
    window_mean: float
    window_std: float

    def normalized(self) -> float:
        return normalize(self.spec, self.price)


@dataclass(frozen=True)
class PolicyContext:
    t: int
    candidates: tuple[CandidateView, ...]
    cpu_used: float
    mem_used: float
    index_now: float
    index_reference: float
    current: str | None = None
    horizon: int = 300
    migration_seconds: float = 30.0

    def __post_init__(self):
        if not self.candidates:
            raise SelectionError(f"no candidate VMs at t={self.t}")
        ids = [c.spec.id for c in self.candidates]
        if self.current is not None and self.current not in ids:
            raise SelectionError(
                f"current vm {self.current!r} is not among candidates at t={self.t}"
            )

    def view(self, vm_id: str) -> CandidateView:
        for candidate in self.candidates:
            if candidate.spec.id == vm_id:
                return candidate
        raise SelectionError(f"vm {vm_id!r} is not among candidates at t={self.t}")

    # Called directly in each method: a shared helper, or star-unpacking the
    # floors into utilized_price, costs measurably more on this hot path.
    def utilized_now(self, c: CandidateView) -> float:
        cpu_u, mem_u = floored_utilization(c.spec, self.cpu_used, self.mem_used)
        return utilized_price(c.price, cpu_u, mem_u)

    def utilized_mean(self, c: CandidateView) -> float:
        cpu_u, mem_u = floored_utilization(c.spec, self.cpu_used, self.mem_used)
        return utilized_price(c.window_mean, cpu_u, mem_u)

    def utilized_sigma(self, c: CandidateView) -> float:
        cpu_u, mem_u = floored_utilization(c.spec, self.cpu_used, self.mem_used)
        return utilized_price(c.window_std, cpu_u, mem_u)


@dataclass(frozen=True)
class PolicyDecision:
    action: str
    target: str | None = None
    reason: str = ""
    scores: tuple = ()

    STAY = "stay"
    MIGRATE = "migrate"

    def __post_init__(self):
        if self.action not in (self.STAY, self.MIGRATE):
            raise ValueError(f"unknown action {self.action!r}")
        if self.action == self.MIGRATE and not self.target:
            raise ValueError("migrate decision needs a target")
        object.__setattr__(self, "scores", tuple(self.scores))


def _lowest(scores: dict[str, float]) -> str:
    """The id with the lowest score; the smallest id wins an exact tie."""
    return min(scores, key=lambda vm: (scores[vm], vm))


def _highest(scores: dict[str, float]) -> str:
    """The smallest id whose score is within TIE_TOLERANCE of the highest."""
    best = max(scores.values())
    return min(vm for vm, score in scores.items() if score >= best - TIE_TOLERANCE)


class Policy:
    """A VM selection (`select`) and migration (`decide`) rule."""

    name = "base"

    def select(self, ctx: PolicyContext) -> str:
        raise NotImplementedError

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class StaticPolicy(Policy):
    """Cheapest candidate by trailing-window mean utilized price; never moves."""

    name = "static"

    def select(self, ctx: PolicyContext) -> str:
        return _lowest({c.spec.id: ctx.utilized_mean(c) for c in ctx.candidates})

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        return PolicyDecision(PolicyDecision.STAY, reason="static policy never migrates")


class CostCentricPolicy(Policy):
    """Cheapest candidate by instantaneous utilized price. Moves to it when
    the projected saving over the planning horizon beats the double-payment
    cost of the move."""

    name = "cost"

    @staticmethod
    def _scores(ctx: PolicyContext) -> dict[str, float]:
        return {c.spec.id: ctx.utilized_now(c) for c in ctx.candidates}

    def select(self, ctx: PolicyContext) -> str:
        return _lowest(self._scores(ctx))

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        current = ctx.view(ctx.current)
        score = self._scores(ctx)
        scores = tuple(score.items())
        best = ctx.view(_lowest(score))
        if best.spec.id == current.spec.id:
            return PolicyDecision(PolicyDecision.STAY, reason="already cheapest", scores=scores)
        saving = (current.price - best.price) * ctx.horizon
        cost = (current.price + best.price) * ctx.migration_seconds
        if saving > cost:
            return PolicyDecision(
                PolicyDecision.MIGRATE,
                target=best.spec.id,
                reason=f"saving {saving / 3600.0:.6g} beats move cost {cost / 3600.0:.6g}",
                scores=scores,
            )
        return PolicyDecision(PolicyDecision.STAY, reason="saving below move cost", scores=scores)


class AvailabilityAwarePolicy(Policy):
    """Lowest-volatility candidate among those priced below the index
    reference, or among all of them when none is. Holds while the current VM
    is at or below the reference."""

    name = "avail"

    @staticmethod
    def _calmest(ctx: PolicyContext) -> tuple[str, dict[str, float]]:
        """The pick, and every candidate's utilized sigma it was made from."""
        sigma = {c.spec.id: ctx.utilized_sigma(c) for c in ctx.candidates}
        below = {
            c.spec.id: sigma[c.spec.id]
            for c in ctx.candidates
            if c.normalized() < ctx.index_reference
        }
        return _lowest(below or sigma), sigma

    def select(self, ctx: PolicyContext) -> str:
        return self._calmest(ctx)[0]

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        current = ctx.view(ctx.current)
        target, sigma = self._calmest(ctx)
        scores = tuple(sigma.items())
        if current.normalized() <= ctx.index_reference:
            return PolicyDecision(PolicyDecision.STAY, reason="at or below index", scores=scores)
        if target == current.spec.id:
            return PolicyDecision(
                PolicyDecision.STAY, reason="no candidate below index", scores=scores
            )
        return PolicyDecision(
            PolicyDecision.MIGRATE,
            target=target,
            reason="current above index, moving to lowest volatility",
            scores=scores,
        )


class BalancedPolicy(Policy):
    """Best risk-adjusted saving (Sharpe-style score). Moves toward a
    better-scored VM only when the index is high enough to pay for the move
    end to end (source price plus twice destination); sufficiency="off"
    drops that gate and migrates on score alone."""

    name = "balanced"

    def __init__(self, target_rule: str = "sharpe", sufficiency: str = "eq5"):
        if target_rule not in ("sharpe", "first_feasible"):
            raise ValueError(f"unknown balanced target rule {target_rule!r}")
        if sufficiency not in ("eq5", "off"):
            raise ValueError(f"sufficiency must be 'eq5' or 'off', got {sufficiency!r}")
        self.target_rule = target_rule
        self.sufficiency = sufficiency

    @staticmethod
    def _scores(ctx: PolicyContext) -> dict[str, float]:
        return {
            c.spec.id: sharpe(ctx.index_reference, ctx.utilized_mean(c), ctx.utilized_sigma(c))
            for c in ctx.candidates
        }

    def select(self, ctx: PolicyContext) -> str:
        return _highest(self._scores(ctx))

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        current = ctx.view(ctx.current)
        others = self._scores(ctx)
        scores = tuple(others.items())
        current_score = others.pop(current.spec.id)
        if not others:
            return PolicyDecision(PolicyDecision.STAY, reason="no alternative", scores=scores)
        if current_score >= max(others.values()) - TIE_TOLERANCE:
            return PolicyDecision(PolicyDecision.STAY, reason="score already best", scores=scores)
        if self.target_rule == "sharpe":
            pool = [_highest(others)]
        else:
            pool = sorted(vm for vm, s in others.items() if s > current_score + TIE_TOLERANCE)
        for vm in pool:
            if self.sufficiency == "off" or should_migrate(
                ctx.index_now, current.normalized(), ctx.view(vm).normalized()
            ):
                return PolicyDecision(
                    PolicyDecision.MIGRATE,
                    target=vm,
                    reason="better score and index covers the move",
                    scores=scores,
                )
        return PolicyDecision(PolicyDecision.STAY, reason="sufficiency condition", scores=scores)

    def __repr__(self):
        return (
            f"BalancedPolicy(target_rule={self.target_rule!r}, "
            f"sufficiency={self.sufficiency!r})"
        )


POLICIES = {
    cls.name: cls
    for cls in (StaticPolicy, CostCentricPolicy, AvailabilityAwarePolicy, BalancedPolicy)
}


def build_policy(name: str, **options) -> Policy:
    try:
        cls = POLICIES[name]
    except KeyError:
        raise SelectionError(
            f"unknown policy {name!r}, expected one of {sorted(POLICIES)}"
        ) from None
    return cls(**options)
