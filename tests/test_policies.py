import math
import random

import numpy as np
import pytest

from spotindex import (
    AvailabilityAwarePolicy,
    BalancedPolicy,
    CandidateView,
    CostCentricPolicy,
    Policy,
    PolicyContext,
    PolicyDecision,
    SelectionError,
    StaticPolicy,
    VmSpec,
    build_policy,
    sharpe,
    utilized_price,
)
from spotindex.policies import (
    CPU_FLOOR_FRACTION,
    MEM_FLOOR_GB,
    POLICIES,
    SIGMA_FLOOR,
    floored_utilization,
)

STATIC = StaticPolicy()
COST = CostCentricPolicy()
AVAIL = AvailabilityAwarePolicy()
BALANCED = BalancedPolicy()


def spec(vm_id, cpu=4.0, mem=16.0, od=50.0):
    return VmSpec(
        id=vm_id,
        instance_type=vm_id,
        zone="z",
        region="r",
        family="general",
        cpu_capacity=cpu,
        mem_capacity=mem,
        on_demand_price=od,
    )


def view(vm_id, price, mean=None, std=0.1, cpu=4.0, mem=16.0):
    return CandidateView(
        spec=spec(vm_id, cpu, mem),
        price=price,
        window_mean=price if mean is None else mean,
        window_std=std,
    )


def ctx_of(views, current=None, index_now=1.0, index_reference=1.0, **kw):
    return PolicyContext(
        t=kw.pop("t", 600),
        candidates=tuple(views),
        cpu_used=kw.pop("cpu_used", 4.0),
        mem_used=kw.pop("mem_used", 16.0),
        index_now=index_now,
        index_reference=index_reference,
        current=current,
        horizon=kw.pop("horizon", 300),
        migration_seconds=kw.pop("migration_seconds", 30.0),
        **kw,
    )


def test_utilized_price_value():
    assert utilized_price(8.0, 2.0, 8.0) == 2.0
    with pytest.raises(ValueError):
        utilized_price(8.0, 0.0, 8.0)


def test_floors():
    s = spec("a", cpu=8.0, mem=32.0)
    cpu_u, mem_u = floored_utilization(s, 0.0, 0.0)
    assert cpu_u == CPU_FLOOR_FRACTION * 8.0
    assert mem_u == MEM_FLOOR_GB
    cpu_u, mem_u = floored_utilization(s, 4.0, 16.0)
    assert (cpu_u, mem_u) == (4.0, 16.0)


def test_sharpe_value_and_floor():
    assert sharpe(0.5, 0.3, 0.1) == pytest.approx(2.0, rel=1e-15)
    assert sharpe(0.5, 0.3, 0.0) == pytest.approx(0.2 / SIGMA_FLOOR, rel=1e-12)
    assert sharpe(0.3, 0.5, 0.1) == pytest.approx(-2.0, rel=1e-15)


def test_context_validation():
    with pytest.raises(SelectionError):
        ctx_of([])
    with pytest.raises(SelectionError):
        ctx_of([view("a", 1.0)], current="ghost")
    ctx = ctx_of([view("a", 1.0)])
    with pytest.raises(SelectionError):
        ctx.view("ghost")


def test_decision_validation():
    with pytest.raises(ValueError):
        PolicyDecision("hold")
    with pytest.raises(ValueError):
        PolicyDecision(PolicyDecision.MIGRATE)
    d = PolicyDecision(PolicyDecision.MIGRATE, target="a", scores=[("a", 1.0)])
    assert d.scores == (("a", 1.0),)


def test_select_static_uses_window_mean():
    ctx = ctx_of(
        [view("spiky", 1.0, mean=5.0), view("steady", 4.0, mean=3.0)]
    )
    assert STATIC.select(ctx) == "steady"
    assert STATIC.decide(ctx).action == PolicyDecision.STAY


def test_select_cost_uses_instant_price():
    ctx = ctx_of([view("spiky", 1.0, mean=5.0), view("steady", 4.0, mean=3.0)])
    assert COST.select(ctx) == "spiky"


def test_decide_cost_threshold():
    # saving (6-4)*300 = 600 beats (6+4)*30 = 300: migrate
    ctx = ctx_of(
        [view("cur", 6.0), view("cheap", 4.0)],
        current="cur",
        horizon=300,
        migration_seconds=30.0,
    )
    decision = COST.decide(ctx)
    assert decision.action == PolicyDecision.MIGRATE
    assert decision.target == "cheap"
    assert dict(decision.scores)["cheap"] == pytest.approx(4.0 / 8.0)

    # equality stays: (2-1)*90 == (2+1)*30
    ctx = ctx_of(
        [view("cur", 2.0), view("cheap", 1.0)],
        current="cur",
        horizon=90,
        migration_seconds=30.0,
    )
    assert COST.decide(ctx).action == PolicyDecision.STAY

    # already cheapest
    ctx = ctx_of([view("cur", 1.0), view("other", 2.0)], current="cur")
    assert COST.decide(ctx).reason == "already cheapest"


def test_select_avail_filters_and_picks_calmest():
    # normalized prices: a 0.5, b 0.625, c 1.5; reference 1.0 excludes c
    views = [
        view("a", 4.0, std=0.5),
        view("b", 5.0, std=0.1),
        view("c", 12.0, std=0.01),
    ]
    ctx = ctx_of(views, index_reference=1.0)
    assert AVAIL.select(ctx) == "b"
    # nothing below the reference: the calmest of all
    assert AVAIL.select(ctx_of(views, index_reference=0.1)) == "c"


def test_decide_avail_holds_then_moves():
    views = [view("cur", 8.0, std=0.5), view("calm", 4.0, std=0.1)]
    # current normalized 1.0 equals the reference: hold
    ctx = ctx_of(views, current="cur", index_reference=1.0)
    assert AVAIL.decide(ctx).action == PolicyDecision.STAY
    # reference drops below the current price: move to the calm one
    ctx = ctx_of(views, current="cur", index_reference=0.9)
    decision = AVAIL.decide(ctx)
    assert decision.action == PolicyDecision.MIGRATE
    assert decision.target == "calm"
    # nothing below the reference: move to the calmest of all
    decision = AVAIL.decide(ctx_of(views, current="cur", index_reference=0.01))
    assert decision.action == PolicyDecision.MIGRATE
    assert decision.target == "calm"


def test_decide_avail_stays_on_calmest_when_none_below_index():
    views = [view("cur", 8.0, std=0.1), view("wild", 4.0, std=0.5)]
    ctx = ctx_of(views, current="cur", index_reference=0.01)
    assert AVAIL.select(ctx) == "cur"
    decision = AVAIL.decide(ctx)
    assert decision.action == PolicyDecision.STAY
    assert decision.reason == "no candidate below index"
    assert dict(decision.scores) == {"cur": 0.1 / 8.0, "wild": 0.5 / 8.0}


def test_select_balanced_argmax_and_tie():
    # equal scores: lexicographically smaller id wins
    views = [view("b", 4.0, std=0.2), view("a", 4.0, std=0.2)]
    ctx = ctx_of(views, index_reference=1.0)
    assert BALANCED.select(ctx) == "a"
    # better score wins regardless of id order
    views = [view("a", 4.0, std=0.2), view("z", 4.0, std=0.1)]
    assert BALANCED.select(ctx_of(views, index_reference=1.0)) == "z"


def test_decide_balanced_tie_targets_what_select_picks():
    # "b" and "a" score exactly alike and both beat "cur"
    views = [view("cur", 6.0, std=0.5), view("b", 4.0, std=0.1), view("a", 4.0, std=0.1)]
    ctx = ctx_of(views, current="cur", index_now=10.0, index_reference=1.0)
    decision = BALANCED.decide(ctx)
    scores = dict(decision.scores)
    assert scores["a"] == scores["b"] > scores["cur"]
    assert decision.action == PolicyDecision.MIGRATE
    assert decision.target == BALANCED.select(ctx) == "a"


def test_decide_balanced_gate():
    views = [view("cur", 6.0, std=0.5), view("good", 4.0, std=0.1)]
    # index covers src + 2*dst = 0.75 + 2*0.5 = 1.75
    ctx = ctx_of(views, current="cur", index_now=1.8, index_reference=1.0)
    decision = BALANCED.decide(ctx)
    assert decision.action == PolicyDecision.MIGRATE
    assert decision.target == "good"
    # gate fails on equality
    ctx = ctx_of(views, current="cur", index_now=1.75, index_reference=1.0)
    decision = BALANCED.decide(ctx)
    assert decision.action == PolicyDecision.STAY
    assert decision.reason == "sufficiency condition"
    # dropping the gate migrates anyway
    assert (
        BalancedPolicy(sufficiency="off").decide(ctx).action == PolicyDecision.MIGRATE
    )


def test_decide_balanced_stays_on_best_score():
    views = [view("cur", 4.0, std=0.1), view("other", 6.0, std=0.5)]
    ctx = ctx_of(views, current="cur", index_now=10.0, index_reference=1.0)
    assert BALANCED.decide(ctx).action == PolicyDecision.STAY


def test_decide_balanced_first_feasible():
    views = [
        view("cur", 6.0, std=0.5),
        view("mid", 5.0, std=0.2),
        view("best", 4.0, std=0.1),
    ]
    ctx = ctx_of(views, current="cur", index_now=10.0, index_reference=1.0)
    assert BalancedPolicy(target_rule="sharpe").decide(ctx).target == "best"
    assert BalancedPolicy(target_rule="first_feasible").decide(ctx).target == "best"
    with pytest.raises(ValueError):
        BalancedPolicy(target_rule="random")


def test_first_feasible_moves_when_top_score_is_gated():
    # "calm" has the best score but a price too high for the gate;
    # "cheap" scores worse yet clears it, so first_feasible still moves
    views = [
        view("cur", 6.0, std=0.5),
        view("calm", 5.6, std=0.01),
        view("cheap", 4.0, std=0.4),
    ]
    ctx = ctx_of(views, current="cur", index_now=2.0, index_reference=1.0)
    gated = BalancedPolicy(target_rule="sharpe").decide(ctx)
    assert gated.action == PolicyDecision.STAY
    assert gated.reason == "sufficiency condition"
    moved = BalancedPolicy(target_rule="first_feasible").decide(ctx)
    assert moved.action == PolicyDecision.MIGRATE
    assert moved.target == "cheap"


def test_the_base_policy_has_no_rule_and_its_table_asks_everywhere():
    # a Policy that overrides neither rule raises on each; its default
    # table answers ASK at every instant and, having no move to state,
    # raises where asked for one's reason
    from spotindex.policies import ASK, MarketBlock

    base = Policy()
    assert repr(base) == "Policy()"
    ctx = ctx_of([view("a", 4.0)], current="a")
    with pytest.raises(NotImplementedError):
        base.select(ctx)
    with pytest.raises(NotImplementedError):
        base.decide(ctx)
    block = MarketBlock(
        (spec("a"),),
        ok=np.ones(2, dtype=bool),
        index_now=np.ones(2),
        window_reference=None,
        prices=np.full((1, 2), 4.0),
        over=np.zeros((1, 2), dtype=bool),
        window_moments=None,
        horizon=300,
        migration_seconds=30.0,
    )
    table = base.decisions(block, "a", 4.0, 16.0)
    assert table.answers.tolist() == [ASK, ASK]
    with pytest.raises(ValueError, match="^instant 1 is answered with no move$"):
        table.reason(1)


def test_build_policy():
    assert list(POLICIES) == ["static", "cost", "avail", "balanced"]
    assert isinstance(build_policy("static"), StaticPolicy)
    assert isinstance(build_policy("cost"), CostCentricPolicy)
    assert isinstance(build_policy("avail"), AvailabilityAwarePolicy)
    balanced = build_policy("balanced", sufficiency="off", target_rule="first_feasible")
    assert isinstance(balanced, BalancedPolicy)
    assert balanced.sufficiency == "off"
    assert "first_feasible" in repr(balanced)
    with pytest.raises(SelectionError):
        build_policy("greedy")
    with pytest.raises(ValueError):
        build_policy("balanced", sufficiency="maybe")


def test_selection_invariant_under_candidate_order():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randrange(2, 7)
        views = [
            view(
                f"vm{i}",
                rng.uniform(1.0, 9.0),
                mean=rng.uniform(1.0, 9.0),
                std=rng.uniform(0.01, 1.0),
            )
            for i in range(n)
        ]
        # every candidate below the index, and none
        references = (max(v.normalized() for v in views) + 0.5, 0.0)
        picks = {}
        for name, cls in POLICIES.items():
            for reference in references:
                shuffled = views[:]
                rng.shuffle(shuffled)
                a = cls().select(ctx_of(views, index_reference=reference))
                b = cls().select(ctx_of(shuffled, index_reference=reference))
                picks[name, reference] = (a, b)
        for name, (a, b) in picks.items():
            assert a == b, f"{name} selection depends on candidate order"


def test_utilized_price_scale_covariance():
    rng = random.Random(12)
    for _ in range(200):
        price = rng.uniform(0.1, 30.0)
        cpu = rng.uniform(0.1, 32.0)
        mem = rng.uniform(0.1, 128.0)
        k = rng.uniform(0.1, 10.0)
        assert math.isclose(
            utilized_price(k * price, cpu, mem),
            k * utilized_price(price, cpu, mem),
            rel_tol=1e-12,
        )


def test_decision_tables_ask_where_a_live_score_is_nan():
    # decide's min or max over scores that hold a NaN depends on their
    # order, so a table leaves such an instant to decide and answers the
    # rest; balanced under Eq. 5 asks the gate first, which blocks every
    # move of the block (the index is at 0.1), so decide stays at the NaN
    # instant too and its table answers STAY there
    from spotindex.policies import ASK, STAY, MarketBlock

    nan = math.nan
    prices = np.array([[4.0, 4.0, 4.0], [2.0, nan, 2.0], [3.0, 3.0, 3.0]])
    stds = np.array([[0.1, 0.1, 0.1], [0.1, nan, 0.1], [0.1, 0.1, 0.1]])
    block = MarketBlock(
        (spec("a"), spec("b"), spec("c")),
        ok=np.ones(3, dtype=bool),
        index_now=np.full(3, 0.1),
        window_reference=None,
        prices=prices,
        over=np.zeros((3, 3), dtype=bool),
        window_moments=lambda: (prices, stds),
        horizon=300,
        migration_seconds=30.0,
    )
    for policy in (STATIC, COST, AVAIL, BALANCED, BalancedPolicy(sufficiency="off")):
        table = policy.decisions(block, "a", 4.0, 16.0)
        answered = [0, 1, 2] if policy in (STATIC, BALANCED) else [0, 2]
        assert [k for k, answer in enumerate(table.answers.tolist()) if answer != ASK] == answered
        for k in answered:
            decision = policy.decide(block.context(k, 600, 4.0, 16.0, "a"))
            if decision.action == PolicyDecision.STAY:
                assert table.answers[k] == STAY, (policy, k)
            else:
                assert table.answers[k] == "abc".index(decision.target), (policy, k)
                assert table.reason(k) == decision.reason, (policy, k)
