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
        return self.price / self.spec.capacity_scale


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

    def utilized_now(self, candidate: CandidateView) -> float:
        cpu_u, mem_u = floored_utilization(candidate.spec, self.cpu_used, self.mem_used)
        return utilized_price(candidate.price, cpu_u, mem_u)

    def utilized_mean(self, candidate: CandidateView) -> float:
        cpu_u, mem_u = floored_utilization(candidate.spec, self.cpu_used, self.mem_used)
        return utilized_price(candidate.window_mean, cpu_u, mem_u)

    def utilized_sigma(self, candidate: CandidateView) -> float:
        cpu_u, mem_u = floored_utilization(candidate.spec, self.cpu_used, self.mem_used)
        return candidate.window_std / math.sqrt(cpu_u * mem_u)


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


def _argmin(candidates, key):
    # min() with lexicographic vm id as the deterministic tie-break
    return min(candidates, key=lambda c: (key(c), c.spec.id))


def select_static(ctx: PolicyContext) -> str:
    """Cheapest candidate by trailing-window mean utilized price."""
    return _argmin(ctx.candidates, ctx.utilized_mean).spec.id


def decide_static(ctx: PolicyContext) -> PolicyDecision:
    return PolicyDecision(PolicyDecision.STAY, reason="static policy never migrates")


def select_cost(ctx: PolicyContext) -> str:
    """Cheapest candidate by instantaneous utilized price."""
    return _argmin(ctx.candidates, ctx.utilized_now).spec.id


def decide_cost(ctx: PolicyContext) -> PolicyDecision:
    """Move to the instantaneous cheapest VM when the projected saving over
    the planning horizon beats the double-payment cost of the move."""
    current = ctx.view(ctx.current)
    scores = tuple((c.spec.id, ctx.utilized_now(c)) for c in ctx.candidates)
    best = _argmin(ctx.candidates, ctx.utilized_now)
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


def select_avail(ctx: PolicyContext) -> str:
    """Lowest-volatility candidate among those priced below the index."""
    pool = [c for c in ctx.candidates if c.normalized() < ctx.index_reference]
    if not pool:
        raise SelectionError(
            f"no candidate priced below the index at t={ctx.t}"
        )
    return _argmin(pool, ctx.utilized_sigma).spec.id


def decide_avail(ctx: PolicyContext) -> PolicyDecision:
    """Hold while the current VM is at or below the index reference; once it
    drifts above, move to the calmest candidate still priced below it."""
    current = ctx.view(ctx.current)
    scores = tuple((c.spec.id, ctx.utilized_sigma(c)) for c in ctx.candidates)
    if current.normalized() <= ctx.index_reference:
        return PolicyDecision(PolicyDecision.STAY, reason="at or below index", scores=scores)
    # the current VM is above the index here, so select_avail's pool leaves it out
    return PolicyDecision(
        PolicyDecision.MIGRATE,
        target=select_avail(ctx),
        reason="current above index, moving to lowest volatility",
        scores=scores,
    )


def _sharpe_scores(ctx: PolicyContext) -> dict[str, float]:
    """Each candidate's Sharpe score, by vm id in candidate order."""
    return {
        c.spec.id: sharpe(ctx.index_reference, ctx.utilized_mean(c), ctx.utilized_sigma(c))
        for c in ctx.candidates
    }


def select_balanced(ctx: PolicyContext) -> str:
    """Candidate with the best risk-adjusted saving (Sharpe-style score)."""
    scores = _sharpe_scores(ctx)
    best_score = max(scores.values())
    return min(vm for vm, score in scores.items() if score >= best_score - TIE_TOLERANCE)


def decide_balanced(
    ctx: PolicyContext, target_rule: str = "sharpe", sufficiency: str = "eq5"
) -> PolicyDecision:
    """Migrate toward a better-scored VM only when the index is high enough
    to pay for the move end to end (source price plus twice destination).
    sufficiency="off" drops that gate and migrates on score alone."""
    current = ctx.view(ctx.current)
    score = _sharpe_scores(ctx)
    scores = tuple(score.items())
    current_score = score[current.spec.id]
    others = [c for c in ctx.candidates if c.spec.id != current.spec.id]
    if not others:
        return PolicyDecision(PolicyDecision.STAY, reason="no alternative", scores=scores)
    best = max(others, key=lambda c: (score[c.spec.id], c.spec.id))
    if current_score >= score[best.spec.id] - TIE_TOLERANCE:
        return PolicyDecision(PolicyDecision.STAY, reason="score already best", scores=scores)
    if target_rule == "sharpe":
        pool = [best]
    elif target_rule == "first_feasible":
        pool = sorted(
            (c for c in others if score[c.spec.id] > current_score + TIE_TOLERANCE),
            key=lambda c: c.spec.id,
        )
    else:
        raise ValueError(f"unknown balanced target rule {target_rule!r}")
    for candidate in pool:
        if sufficiency == "off" or should_migrate(
            ctx.index_now, current.normalized(), candidate.normalized()
        ):
            return PolicyDecision(
                PolicyDecision.MIGRATE,
                target=candidate.spec.id,
                reason="better score and index covers the move",
                scores=scores,
            )
    return PolicyDecision(
        PolicyDecision.STAY, reason="sufficiency condition", scores=scores
    )


class Policy:
    """Strategy wrapper so user code can deal in objects, not functions."""

    name = "base"

    def select(self, ctx: PolicyContext) -> str:
        raise NotImplementedError

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class StaticPolicy(Policy):
    name = "static"
    select = staticmethod(select_static)
    decide = staticmethod(decide_static)


class CostCentricPolicy(Policy):
    name = "cost"
    select = staticmethod(select_cost)
    decide = staticmethod(decide_cost)


class AvailabilityAwarePolicy(Policy):
    name = "avail"
    select = staticmethod(select_avail)
    decide = staticmethod(decide_avail)


class BalancedPolicy(Policy):
    name = "balanced"

    def __init__(self, target_rule: str = "sharpe", sufficiency: str = "eq5"):
        if target_rule not in ("sharpe", "first_feasible"):
            raise ValueError(f"unknown balanced target rule {target_rule!r}")
        if sufficiency not in ("eq5", "off"):
            raise ValueError(f"sufficiency must be 'eq5' or 'off', got {sufficiency!r}")
        self.target_rule = target_rule
        self.sufficiency = sufficiency

    def select(self, ctx: PolicyContext) -> str:
        return select_balanced(ctx)

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        return decide_balanced(ctx, self.target_rule, self.sufficiency)

    def __repr__(self):
        return (
            f"BalancedPolicy(target_rule={self.target_rule!r}, "
            f"sufficiency={self.sufficiency!r})"
        )


POLICIES = {
    "static": StaticPolicy,
    "cost": CostCentricPolicy,
    "avail": AvailabilityAwarePolicy,
    "balanced": BalancedPolicy,
}


def build_policy(name: str, **options) -> Policy:
    try:
        cls = POLICIES[name]
    except KeyError:
        raise SelectionError(
            f"unknown policy {name!r}, expected one of {sorted(POLICIES)}"
        ) from None
    return cls(**options)
