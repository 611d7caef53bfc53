"""VM selection and migration policies.

Policies are pure decision rules: they look at a PolicyContext snapshot
(current prices, trailing-window statistics, the index) and answer either
"which VM do I start on" (select) or "do I stay or move" (decide). An
answer must depend on its context alone: the simulator hands one answer to
every task that asks with an equal context at one instant, and keeps a
policy's decision tables and its picks at t=0 for the later runs over one
market with an equal policy (Policy). A policy may also answer decide for
a whole MarketBlock of instants at once, as a DecisionTable (decisions):
at each instant it stays, moves to a candidate,
or leaves the simulator to ask decide there, and of a move it gives only
the reason decide states, not decide's whole PolicyDecision. The built-in
policies answer every instant where the market is defined and the held VM
is a candidate, exactly as decide would; a table and decide share the text
of the move reason. All accounting and trace bookkeeping lives in the
simulator.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .catalog import VmSpec
from .errors import SelectionError
from .index import normalize
from .prices import read_only
from .tracking import horizon_saving, migration_loss, should_migrate

SIGMA_FLOOR = 1e-9
TIE_TOLERANCE = 1e-9
# A DecisionTable's answer where decide stays, and where the simulator must
# ask decide itself; any other answer is the row of the candidate decide
# moves to.
STAY = -1
ASK = -2
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
    if not (cpu_used > 0 and mem_used > 0 and cpu_used * mem_used > 0):
        raise ValueError("utilization must be positive; apply floors first")
    return price / math.sqrt(cpu_used * mem_used)


def sharpe(index_reference, utilized_mean, sigma):
    """Risk-adjusted expected saving of holding a VM versus the index, of
    floats or elementwise of arrays."""
    return (index_reference - utilized_mean) / np.maximum(sigma, SIGMA_FLOOR)


class _FromBlock:
    """A field that MarketBlock.context leaves to be read on first use, as
    read(block, *cell) of the instance's block `_block` and cell `_cell`: a
    view's (row, k), a context's (k,). A non-data descriptor: a value in
    the instance's __dict__, which __init__ and a first read both set, wins
    over it, so the field is a plain attribute from then on, and no other
    attribute is slowed (a __getattr__ would slow them all). A read that
    raises stores nothing, to raise again."""

    def __init__(self, read: Callable[..., float]):
        self.read = read

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None or "_block" not in instance.__dict__:
            # the class's own attribute, which the dataclass takes for no
            # default, or an instance that has neither value nor block
            raise AttributeError(self.name)
        state = instance.__dict__
        value = state[self.name] = self.read(state["_block"], *state["_cell"])
        return value


@dataclass(frozen=True)
class CandidateView:
    """Everything a policy may inspect about one candidate VM.

    A view that MarketBlock.context builds holds its block, not window_mean
    and window_std, and reads each on its first use from its cell of the
    block's means and stds, so a policy that never reads them never has
    them computed. A view built directly holds the four fields as given."""

    spec: VmSpec
    price: float
    window_mean: float = _FromBlock(lambda block, row, k: block.means.item(row, k))
    window_std: float = _FromBlock(lambda block, row, k: block.stds.item(row, k))

    def normalized(self) -> float:
        return normalize(self.spec, self.price)


@dataclass(frozen=True)
class PolicyContext:
    """Everything a policy may inspect at one instant. One that
    MarketBlock.context builds reads index_reference on first use from its
    instant's cell of the block's index_reference, as its views read their
    moments."""

    t: int
    candidates: tuple[CandidateView, ...]
    cpu_used: float
    mem_used: float
    index_now: float
    index_reference: float = _FromBlock(lambda block, k: block.index_reference.item(k))
    horizon: int
    migration_seconds: float
    current: str | None = None

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

    def utilized(self, c: CandidateView, value: float) -> float:
        """utilized_price of value, one of c's prices, at this context's
        floored utilization of c."""
        cpu_u, mem_u = floored_utilization(c.spec, self.cpu_used, self.mem_used)
        return utilized_price(value, cpu_u, mem_u)


@dataclass(frozen=True, eq=False)
class MarketBlock:
    """The contexts of a block of instants as arrays, less the task's
    current VM and utilization: what the simulator forms for a table of
    decision ticks. Row c of each (candidates, instants) array belongs to
    specs[c], which are sorted by id as a context's candidates are. `over`
    marks where a candidate is left out of the context's candidates (over
    max_price or, when caps count as revocations, on the cap), and `ok`
    where the market is defined at all; elsewhere the arrays mean nothing.
    Three arrays are computed for every instant at once on a policy's first
    read of them, and never where nothing reads them: `index_reference`,
    which is `index_now` or, where `window_reference` is given, what it
    returns, the index's trailing-window means; and `means` and `stds`, the
    candidates' trailing-window mean and std prices, both from one call of
    `window_moments`. A context that `context` builds reads its index
    reference and its views' moments from column k of these arrays on
    their first use, so its first such read computes that array for every
    instant of the block: the simulator so gives a pick a block of the
    pick's instant alone, and a decision its column of the epoch table,
    whose arrays the policy's decision table reads anyway. No callable may
    refer to what holds the block, such as the simulator's engine, or the
    two form a reference cycle. Every array, the computed ones included,
    is read-only, so writing into one raises: the simulator shares a
    market's opening table, with whatever it has computed, among the runs
    over that market, and a write would change what a later run reads.

    The simulator keeps on a block what it has checked of each policy's
    answers over it (`kept`): the decision tables of a block of decision
    ticks, and the picks at t=0 of a one-tick pick block. A run handed a
    shared block so reuses what an equal policy (Policy.__eq__) answered
    there in an earlier run."""

    specs: tuple[VmSpec, ...]
    ok: np.ndarray
    index_now: np.ndarray
    # returns index_reference; None where that is index_now
    window_reference: Callable[[], np.ndarray] | None
    prices: np.ndarray
    over: np.ndarray
    # returns (means, stds)
    window_moments: Callable[[], tuple[np.ndarray, np.ndarray]]
    horizon: int
    migration_seconds: float

    def __post_init__(self):
        read_only(self.ok, self.index_now, self.prices, self.over)

    @cached_property
    def index_reference(self) -> np.ndarray:
        if self.window_reference is None:
            return self.index_now
        return read_only(self.window_reference())[0]

    @cached_property
    def _moments(self) -> tuple[np.ndarray, np.ndarray]:
        return read_only(*self.window_moments())

    @property
    def means(self) -> np.ndarray:
        return self._moments[0]

    @property
    def stds(self) -> np.ndarray:
        return self._moments[1]

    def __len__(self):
        return len(self.ok)

    @cached_property
    def _kept(self) -> dict:
        return {}

    def kept(self, policy: "Policy") -> dict:
        """The dict in which the simulator keeps policy's answers over this
        block, the same for every policy equal to it: its decision tables
        keyed by (current, cpu_used, mem_used), or its picks keyed by
        (cpu_used, mem_used)."""
        return self._kept.setdefault(policy, {})

    def context(self, k: int, t: int, cpu_used: float, mem_used: float, current: str | None):
        """The PolicyContext at instant k, which is t, asked at the given
        utilization with current held, or None where the market is
        undefined. The context reads its index reference from column k of
        the block's arrays, and each view its moments from cell (its row,
        k), on first use; PolicyContext's checks run as they do on a
        context built directly."""
        if not self.ok[k]:
            return None
        views = []
        for row, (spec, dropped, price) in enumerate(
            zip(self.specs, self.over[:, k].tolist(), self.prices[:, k].tolist())
        ):
            if not dropped:
                view = object.__new__(CandidateView)
                state = {"spec": spec, "price": price, "_block": self, "_cell": (row, k)}
                object.__setattr__(view, "__dict__", state)
                views.append(view)
        ctx = object.__new__(PolicyContext)
        state = {
            "t": t, "candidates": tuple(views), "cpu_used": cpu_used, "mem_used": mem_used,
            "index_now": self.index_now.item(k), "horizon": self.horizon,
            "migration_seconds": self.migration_seconds, "current": current,
            "_block": self, "_cell": (k,),
        }
        object.__setattr__(ctx, "__dict__", state)
        ctx.__post_init__()
        return ctx

    def utilized(self, values: np.ndarray, cpu_used: float, mem_used: float) -> np.ndarray:
        """utilized_price of each candidate's row of values."""
        return np.array(
            [
                utilized_price(row, *floored_utilization(spec, cpu_used, mem_used))
                for spec, row in zip(self.specs, values)
            ]
        )

    def normalized(self) -> np.ndarray:
        """normalize of each candidate's row of prices."""
        return np.array([normalize(spec, row) for spec, row in zip(self.specs, self.prices)])


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


@dataclass(frozen=True, eq=False)
class DecisionTable:
    """decide's answers at each instant of a MarketBlock, asked with one VM
    held at one utilization. answers[k] is STAY where decide stays, the row
    of the candidate it moves to, or ASK where the simulator must ask decide
    itself. reason(k) is the reason decide states for the move at an
    instant answered with a row, and is called only there."""

    answers: np.ndarray
    reason: Callable[[int], str]


def _no_move(k: int) -> str:
    raise ValueError(f"instant {k} is answered with no move")


def _lowest(scores: dict[str, float]) -> str:
    """The id with the lowest score; the smallest id wins an exact tie."""
    return min(scores, key=lambda vm: (scores[vm], vm))


def _highest(scores: dict[str, float]) -> str:
    """The smallest id whose score is within TIE_TOLERANCE of the highest;
    a SelectionError where max takes a NaN for the highest, which no score
    is within."""
    best = max(scores.values())
    if math.isnan(best):
        raise SelectionError(f"no highest score among {sorted(scores)}: a score is NaN")
    return min(vm for vm, score in scores.items() if score >= best - TIE_TOLERANCE)


def _lowest_rows(scores: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """_lowest of each column of scores among the rows in pool, as a row;
    meaningless in a column whose pool is empty."""
    masked = np.where(pool, scores, np.inf)
    return ((masked == masked.min(axis=0)) & pool).argmax(axis=0)


def _highest_rows(scores: np.ndarray, pool: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_highest of each column of scores among the rows in pool, as a row,
    and the highest score; the row is meaningless in a column whose pool is
    empty, where the highest score is -inf."""
    best = np.where(pool, scores, -np.inf).max(axis=0)
    return (pool & (scores >= best - TIE_TOLERANCE)).argmax(axis=0), best


def _unsure(scores: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Where a live candidate's score is NaN: _lowest and _highest then
    depend on the order of the scores, so a table answers ASK there."""
    return (np.isnan(scores) & live).any(axis=0)


def _held(block: MarketBlock, current: str) -> tuple[int, np.ndarray, np.ndarray]:
    """current's row in the block, where a context can hold it, and where
    each candidate is in a context."""
    i = [spec.id for spec in block.specs].index(current)
    live = ~block.over
    return i, block.ok & live[i], live


def _table(answered: np.ndarray, moves: np.ndarray, target, reason) -> DecisionTable:
    """The DecisionTable that answers ASK outside `answered`, and elsewhere
    moves to row `target` for `reason` where `moves` holds and stays where
    it does not."""
    return DecisionTable(np.where(answered, np.where(moves, target, STAY), ASK), reason)


class Policy:
    """A VM selection (`select`) and migration (`decide`) rule. Each
    answer must depend on its context alone, since the simulator asks once
    for all the tasks that ask with an equal context at one instant and
    hands each the same answer.

    The same holds across runs: the simulator keeps a policy's decision
    tables and its picks at t=0 on the market block they were asked over
    (MarketBlock.kept), and the runs over one market share their opening
    blocks, so a later run with an equal policy reads them, not asking
    again. An instance of exactly one of the built-in classes (POLICIES)
    equals another of the same class with the same options; every other
    policy, a subclass of a built-in among them, equals only itself, so a
    user policy shares its answers only when the same object runs again.
    The simulator keys the kept answers by the policy, so a subclass that
    defines __eq__ must define a __hash__ to match."""

    name = "base"

    def select(self, ctx: PolicyContext) -> str:
        raise NotImplementedError

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        raise NotImplementedError

    def decisions(
        self, block: MarketBlock, current: str, cpu_used: float, mem_used: float
    ) -> DecisionTable:
        """decide's DecisionTable over the block's instants, asked with
        current held and the given utilization. The simulator asks decide
        only where the table answers ASK, so every other answer must be
        decide's own, and so must reason(k) at an instant answered with a
        row; an instant where the market is undefined or current is left
        out must be answered ASK. This default answers ASK everywhere."""
        return DecisionTable(np.full(len(block), ASK), _no_move)

    def _options(self) -> tuple:
        """The options an instance of a built-in class is built with."""
        return ()

    def __eq__(self, other):
        return self is other or (
            type(self) is type(other) and _built_in(self) and self._options() == other._options()
        )

    def __hash__(self):
        return hash((type(self), self._options())) if _built_in(self) else object.__hash__(self)

    def __repr__(self):
        return f"{type(self).__name__}()"


def _built_in(policy: Policy) -> bool:
    """Whether policy is an instance of exactly one of the built-in classes."""
    cls = type(policy)
    return POLICIES.get(cls.name) is cls


class StaticPolicy(Policy):
    """Cheapest candidate by trailing-window mean utilized price; never moves."""

    name = "static"
    _STAY = PolicyDecision(PolicyDecision.STAY, reason="static policy never migrates")

    def select(self, ctx: PolicyContext) -> str:
        return _lowest({c.spec.id: ctx.utilized(c, c.window_mean) for c in ctx.candidates})

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        return self._STAY

    def decisions(self, block, current, cpu_used, mem_used):
        return _table(_held(block, current)[1], False, STAY, _no_move)


class CostCentricPolicy(Policy):
    """Cheapest candidate by instantaneous utilized price. Moves to it when
    the projected saving over the planning horizon beats the double-payment
    cost of the move."""

    name = "cost"

    @staticmethod
    def _scores(ctx: PolicyContext) -> dict[str, float]:
        return {c.spec.id: ctx.utilized(c, c.price) for c in ctx.candidates}

    @staticmethod
    def _moving(saving: float, cost: float) -> str:
        return f"saving {saving:.6g} beats move cost {cost:.6g}"

    def select(self, ctx: PolicyContext) -> str:
        return _lowest(self._scores(ctx))

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        current = ctx.view(ctx.current)
        score = self._scores(ctx)
        best = ctx.view(_lowest(score))
        saving = horizon_saving(current.price, best.price, ctx.horizon)
        cost = migration_loss(current.price, best.price, ctx.migration_seconds)
        scores = tuple(score.items())
        if best is current:
            return PolicyDecision(PolicyDecision.STAY, reason="already cheapest", scores=scores)
        if saving > cost:
            reason = self._moving(saving, cost)
            return PolicyDecision(PolicyDecision.MIGRATE, best.spec.id, reason, scores)
        return PolicyDecision(PolicyDecision.STAY, reason="saving below move cost", scores=scores)

    def decisions(self, block, current, cpu_used, mem_used):
        i, held, live = _held(block, current)
        score = block.utilized(block.prices, cpu_used, mem_used)
        best = _lowest_rows(score, live)
        price = block.prices
        best_price = np.take_along_axis(price, best[None], axis=0)[0]
        saving = horizon_saving(price[i], best_price, block.horizon)
        cost = migration_loss(price[i], best_price, block.migration_seconds)
        moves = (best != i) & (saving > cost)

        def reason(k):
            return self._moving(saving.item(k), cost.item(k))

        return _table(held & ~_unsure(score, live), moves, best, reason)


class AvailabilityAwarePolicy(Policy):
    """Lowest-volatility candidate among those priced below the index
    reference, or among all of them when none is. Holds while the current VM
    is at or below the reference."""

    name = "avail"
    _MOVING = "current above index, moving to lowest volatility"

    @staticmethod
    def _calmest(ctx: PolicyContext) -> tuple[str, dict[str, float]]:
        """The pick, and every candidate's utilized sigma it was made from."""
        sigma = {c.spec.id: ctx.utilized(c, c.window_std) for c in ctx.candidates}
        below = {
            c.spec.id: sigma[c.spec.id]
            for c in ctx.candidates
            if c.normalized() < ctx.index_reference
        }
        return _lowest(below or sigma), sigma

    def select(self, ctx: PolicyContext) -> str:
        return self._calmest(ctx)[0]

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        at_or_below = ctx.view(ctx.current).normalized() <= ctx.index_reference
        target, sigma = self._calmest(ctx)
        scores = tuple(sigma.items())
        if at_or_below:
            return PolicyDecision(PolicyDecision.STAY, reason="at or below index", scores=scores)
        if target == ctx.current:
            return PolicyDecision(
                PolicyDecision.STAY, reason="no candidate below index", scores=scores
            )
        return PolicyDecision(PolicyDecision.MIGRATE, target, self._MOVING, scores)

    def decisions(self, block, current, cpu_used, mem_used):
        # the window moments are read only where current is above the
        # index, the one branch that reads the sigmas
        i, held, live = _held(block, current)
        normalized = block.normalized()
        reference = block.index_reference
        above = held & ~(normalized[i] <= reference)
        if not above.any():
            return _table(held, False, STAY, _no_move)
        sigma = block.utilized(block.stds, cpu_used, mem_used)
        below = live & (normalized < reference)
        target = _lowest_rows(sigma, np.where(below.any(axis=0), below, live))
        answered = held & ~(above & _unsure(sigma, live))
        return _table(answered, above & (target != i), target, lambda k: self._MOVING)


class BalancedPolicy(Policy):
    """Best risk-adjusted saving (Sharpe-style score). Moves toward a
    better-scored VM only when the index is high enough to pay for the move
    end to end (source price plus twice destination); sufficiency="off"
    drops that gate and migrates on score alone."""

    name = "balanced"
    _MOVING = "better score and index covers the move"

    def __init__(self, target_rule: str = "sharpe", sufficiency: str = "eq5"):
        if target_rule not in ("sharpe", "first_feasible"):
            raise ValueError(f"unknown balanced target rule {target_rule!r}")
        if sufficiency not in ("eq5", "off"):
            raise ValueError(f"sufficiency must be 'eq5' or 'off', got {sufficiency!r}")
        self.target_rule = target_rule
        self.sufficiency = sufficiency

    def _options(self):
        return self.target_rule, self.sufficiency

    @staticmethod
    def _scores(ctx: PolicyContext) -> dict[str, float]:
        return {
            c.spec.id: sharpe(
                ctx.index_reference, ctx.utilized(c, c.window_mean), ctx.utilized(c, c.window_std)
            )
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
        passing = {
            vm
            for vm in others
            if self.sufficiency == "off"
            or should_migrate(ctx.index_now, current.normalized(), ctx.view(vm).normalized())
        }
        if self.target_rule == "sharpe":
            pool = [_highest(others)] if passing else []
        else:
            pool = sorted(vm for vm, s in others.items() if s > current_score + TIE_TOLERANCE)
        for vm in pool:
            if vm in passing:
                return PolicyDecision(PolicyDecision.MIGRATE, vm, self._MOVING, scores)
        return PolicyDecision(PolicyDecision.STAY, reason="sufficiency condition", scores=scores)

    def decisions(self, block, current, cpu_used, mem_used):
        """Under the Eq. 5 gate, the gate is asked first, as decide asks it
        before picking a target: where no held instant has another candidate
        that passes it, decide stays at every held instant, so the table
        answers so without reading the moments or the index reference."""
        i, held, live = _held(block, current)
        others = live.copy()
        others[i] = False
        if self.sufficiency == "eq5":
            normalized = block.normalized()
            gate = should_migrate(block.index_now, normalized[i], normalized)
            if not (held & (gate & others).any(axis=0)).any():
                return _table(held, False, STAY, _no_move)
        else:
            gate = np.ones_like(others)
        mean = block.utilized(block.means, cpu_used, mem_used)
        sigma = block.utilized(block.stds, cpu_used, mem_used)
        score = sharpe(block.index_reference, mean, sigma)
        alone = ~others.any(axis=0)
        target, best = _highest_rows(score, others)
        already = score[i] >= best - TIE_TOLERANCE
        if self.target_rule == "sharpe":
            passes = np.take_along_axis(gate, target[None], axis=0)[0]
        else:
            feasible = others & (score > score[i] + TIE_TOLERANCE) & gate
            target, passes = feasible.argmax(axis=0), feasible.any(axis=0)
        moves = ~alone & ~already & passes
        return _table(held & ~_unsure(score, live), moves, target, lambda k: self._MOVING)

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
