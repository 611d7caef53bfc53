"""The opening epoch table that runs over one market share, and the
one-tick block of their picks at t=0 (simulator._opening_block): a run over
the same trace objects whose key is as an earlier build's reuses that
block, one whose key differs in any part, trace objects included, builds
its own, and no run can write into a shared block or its traces. A run
handed a shared block reuses the decision tables and the t=0 picks that
an equal policy's runs kept on it (MarketBlock.kept), and builds only the
ones they did not."""

import contextlib
import dataclasses
import functools
import importlib.util
import json
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from spotindex import (
    BalancedPolicy,
    Catalog,
    CostCentricPolicy,
    MigrationModel,
    Phase,
    POLICIES,
    PriceTrace,
    ResourceRequirement,
    SimulationError,
    StaticPolicy,
    SynthMarketSpec,
    build_policy,
    generate_market_suite,
    run_simulation,
)
from spotindex import simulator
from spotindex.policies import DecisionTable

from conftest import COMPOSITION, MARKET_ROWS, WARMUP, baseline_job, build_catalog, study_params
from test_engine_equivalence import Recording

# a candidate of the baseline job outside the composition
EXTRA = "x1.2xlarge"
CATALOG = Catalog(
    [*build_catalog(), dataclasses.replace(build_catalog()["m4.2xlarge"], id=EXTRA, instance_type=EXTRA)]
)


def market(seed: int = 0) -> dict:
    """The study traces at seed, with EXTRA's as well."""
    specs = [SynthMarketSpec(vm, mean, std) for vm, _, _, _, _, mean, std in MARKET_ROWS]
    return generate_market_suite([*specs, SynthMarketSpec(EXTRA, 7.0, 0.8)], seed=seed, warmup=WARMUP)


def copied(traces: dict) -> dict:
    return {
        vm: PriceTrace.from_arrays(vm, trace.timestamps.copy(), trace.prices.copy())
        for vm, trace in traces.items()
    }


def twelve_phases():
    """The baseline job's total work in twelve phases of two sizes."""
    phases = tuple(Phase(300, 4.0, 16.0) if i % 2 == 0 else Phase(300, 2.0, 8.0) for i in range(12))
    return dataclasses.replace(baseline_job(), name="twelve", phases=phases)


# every opening table that a counted run has built
OPENING = weakref.WeakSet()


@contextlib.contextmanager
def counting():
    """Count, while in the block, the opening tables and the t=0 pick
    blocks built, as two lists of one entry per build, and each built-in
    policy's decision tables built, as (name, current, cpu, mem, whether
    over an opening table, not a refill), and its select calls, by name."""
    counts = {"tables": [], "picks": [], "decisions": [], "select": []}
    build_block = simulator._market_block

    def counted(*market_and_ticks):
        ticks = market_and_ticks[-1]
        block = build_block(*market_and_ticks)
        if int(ticks[0]) == 0:
            counts["tables" if len(ticks) > 1 else "picks"].append(len(ticks))
            if len(ticks) > 1:
                OPENING.add(block)
        return block

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_market_block", counted)
        for cls in POLICIES.values():

            def decisions(self, block, current, cpu_used, mem_used, build=cls.decisions):
                counts["decisions"].append((self.name, current, cpu_used, mem_used, block in OPENING))
                return build(self, block, current, cpu_used, mem_used)

            def select(self, ctx, pick=cls.select):
                counts["select"].append(self.name)
                return pick(self, ctx)

            patch.setattr(cls, "decisions", decisions)
            patch.setattr(cls, "select", select)
        yield counts


def counted_run(job, policy, traces, params=None, catalog=CATALOG, counts=None):
    """The JSON of the run's report, and how many opening tables and t=0
    pick blocks it built; counts, where given, is a dict that takes all
    that `counting` counts."""
    with counting() as counted:
        report = run_simulation(job, policy, traces, catalog, COMPOSITION, params=params or study_params())
    if counts is not None:
        counts.update(counted)
    return json.dumps(report.to_dict(), sort_keys=True), (len(counted["tables"]), len(counted["picks"]))


def cold(job, policy, traces, params=None, catalog=CATALOG, counts=None) -> str:
    """The JSON of the run's report over an empty cache, which it leaves as
    it was: the run reads a cache of its own. counts, where given, takes
    all that `counting` counts of the run."""
    empty = functools.lru_cache(maxsize=2)(simulator._opening_block.__wrapped__)
    with pytest.MonkeyPatch.context() as patch, counting() as counted:
        patch.setattr(simulator, "_opening_block", empty)
        report = run_simulation(job, policy, traces, catalog, COMPOSITION, params=params or study_params())
    if counts is not None:
        counts.update(counted)
    return json.dumps(report.to_dict(), sort_keys=True)


ORDERS = {
    "forward": lambda cases: cases,
    "reversed": lambda cases: cases[::-1],
    "policy-major": lambda cases: sorted(cases, key=lambda case: case[1]),
}


@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
def test_runs_over_one_market_share_one_opening_table(order):
    # the study shape over one trace dict, with a candidate outside the
    # composition: a 1-hour job's table of 60 ticks is the whole run's, so
    # every table after the first is read from the first run's block, and
    # every t=0 pick from its one-tick block, with the moments and index
    # reference that earlier runs computed. Each run builds only the
    # decision tables that the runs before it under its policy did not
    # keep on the opening table (a cost run that moves stalls, and its
    # last ticks are a refill of its own), and asks select at t=0 only
    # where none of them did: both jobs open at 4 cpus and 16 GB. Each
    # report is the one it gives alone, in any order of the runs, from an
    # empty cache
    traces = market(3)
    cases = [(job, policy) for job in (baseline_job(), twelve_phases()) for policy in sorted(POLICIES)]
    alone = [{} for _ in cases]
    expected = [cold(job, policy, traces, counts=counts) for (job, policy), counts in zip(cases, alone)]
    simulator._opening_block.cache_clear()
    builds, kept, tables = [], {}, 0
    for job, policy in order(cases):
        counts, own = {}, alone[cases.index((job, policy))]
        produced, built = counted_run(job, policy, traces, counts=counts)
        assert produced == expected[cases.index((job, policy))], (job.name, policy)
        builds.append(built)
        assert own["select"] == [policy]
        assert counts["select"] == ([] if policy in kept else [policy])
        assert counts["decisions"] == [key for key in own["decisions"] if key not in kept.get(policy, [])]
        kept.setdefault(policy, []).extend(key for key in own["decisions"] if key[-1])
        tables += len(counts["decisions"])
    assert tables < sum(len(own["decisions"]) for own in alone)
    assert builds == [(1, 1)] + [(0, 0)] * (len(cases) - 1)


def repriced(vm, k, price):
    """An edit that replaces vm's trace by a new one whose price k is price."""

    def edit(job, traces, params, catalog):
        prices = traces[vm].prices.copy()
        prices[k] = price
        return job, {**traces, vm: PriceTrace.from_arrays(vm, traces[vm].timestamps, prices)}, params, catalog

    return edit


def replaced(job=None, **params):
    def edit(old_job, traces, old_params, catalog):
        return job or old_job, traces, dataclasses.replace(old_params, **params), catalog

    return edit


def resized(vm, cpu, mem):
    def edit(job, traces, params, catalog):
        spec = dataclasses.replace(catalog[vm], cpu_capacity=cpu, mem_capacity=mem)
        return job, traces, params, Catalog([spec if s.id == vm else s for s in catalog])

    return edit


def run_seconds(seconds):
    return dataclasses.replace(baseline_job(), phases=(Phase(seconds, 4.0, 16.0),))


# each changes one part of the key; the -0.0 edit follows a 0.0 one, so
# its new trace differs from the last build's in the sign bit alone
KEY_CHANGES = {
    "non-member price": [repriced(EXTRA, 3, 5.25)],
    "non-member price 0.0 to -0.0": [repriced(EXTRA, 3, 0.0), repriced(EXTRA, 3, -0.0)],
    "max_price": [replaced(dataclasses.replace(baseline_job(), max_price=8.0))],
    "sigma_window": [replaced(sigma_window=1800)],
    "index_reference": [replaced(index_reference="instant")],
    "treat_cap_as_revocation": [replaced(treat_cap_as_revocation=True)],
    "migration time": [replaced(migration=MigrationModel(rate=2.0))],
    "total work": [replaced(run_seconds(7200))],
    "candidate set": [replaced(dataclasses.replace(baseline_job(), requirement=ResourceRequirement(4.0, 20.0)))],
    "non-member VmSpec": [resized(EXTRA, 16.0, 64.0)],
}


@pytest.mark.parametrize("part, edits", KEY_CHANGES.items(), ids=KEY_CHANGES.keys())
def test_a_run_whose_key_differs_in_one_part_builds_its_own_opening_table(part, edits):
    # balanced reads the moments and the index reference, so a shared block
    # of another key would hand the run wrong ones. The total work sets the
    # table's tick count alone, so the t=0 pick block is shared across it
    job, traces, params, catalog = baseline_job(), market(), study_params(), CATALOG
    assert EXTRA in [spec.id for spec in simulator._candidates(job, catalog, None)[0]]
    counted_run(job, "balanced", traces, params, catalog)
    for edit in edits:
        job, traces, params, catalog = edit(job, traces, params, catalog)
        produced, built = counted_run(job, "balanced", traces, params, catalog)
        assert built == (1, int(part != "total work"))
        assert produced == cold(job, "balanced", traces, params, catalog)


def test_a_run_over_equal_bit_copies_builds_its_own_opening_table():
    # the block reads its moments, on first use, from the trace objects of
    # the run that built it: cost reads none, and those traces reject the
    # edit that would otherwise reach a later run's moments
    traces = market()
    before = copied(traces)
    counted_run(baseline_job(), "cost", traces)
    for vm in ("m4.2xlarge", EXTRA):
        with pytest.raises(ValueError, match="read-only"):
            traces[vm].prices[:] = 5.0
    produced, built = counted_run(baseline_job(), "balanced", before)
    assert built == (1, 1)
    assert produced == cold(baseline_job(), "balanced", before)


class Writing(CostCentricPolicy):
    """cost, whose decision tables first write into their block."""

    def __init__(self, write):
        self.write = write

    def decisions(self, block, current, cpu_used, mem_used):
        self.write(block)
        return super().decisions(block, current, cpu_used, mem_used)


def into_prices(block):
    block.prices[0, 0] = 0.0


def into_means(block):
    block.means[0, 0] = 0.0


def into_reference(block):
    block.index_reference[0] = 0.0


@pytest.mark.parametrize("write", [into_prices, into_means, into_reference])
def test_a_policy_cannot_write_into_a_shared_table(write):
    # the writing run shares its opening table with the runs after it
    traces = market()
    expected = cold(baseline_job(), "balanced", traces)
    with pytest.raises(ValueError, match="read-only"):
        run_simulation(baseline_job(), Writing(write), traces, CATALOG, COMPOSITION, params=study_params())
    report = run_simulation(baseline_job(), "balanced", traces, CATALOG, COMPOSITION, params=study_params())
    assert json.dumps(report.to_dict(), sort_keys=True) == expected


def test_balanced_under_each_gate_keeps_its_own_tables_and_picks():
    # balanced with the Eq. 5 gate on and off are unequal policies: the
    # second builds every table and pick it asks for, and a new instance
    # equal to it builds none
    traces = market()
    runs = [BalancedPolicy(), BalancedPolicy(sufficiency="off"), BalancedPolicy(sufficiency="off")]
    alone, shared = [], []
    for policy in runs:
        alone.append({})
        cold(baseline_job(), policy, traces, counts=alone[-1])
    for policy in runs:
        shared.append({})
        counted_run(baseline_job(), policy, traces, counts=shared[-1])
    assert [len(counts["select"]) for counts in shared] == [1, 1, 0]
    assert [counts["decisions"] for counts in shared[:2]] == [counts["decisions"] for counts in alone[:2]]
    assert shared[2]["decisions"] == [key for key in alone[2]["decisions"] if not key[-1]]


def test_a_policy_that_is_not_a_built_in_shares_with_itself_alone():
    # two Recording wrappers of equal built-ins are unequal, so the second
    # builds its own tables and asks its own pick, and logs the same asks;
    # the same wrapper run again reads what it kept
    traces = market()
    alone = {}
    cold(baseline_job(), Recording(build_policy("cost")), traces, counts=alone)
    first, second = Recording(build_policy("cost")), Recording(build_policy("cost"))
    runs = [first, second, first]
    shared = [{} for _ in runs]
    for policy, counts in zip(runs, shared):
        counted_run(baseline_job(), policy, traces, counts=counts)
    assert [len(counts["select"]) for counts in shared] == [1, 1, 0]
    assert [counts["decisions"] for counts in shared[:2]] == [alone["decisions"]] * 2
    assert shared[2]["decisions"] == [key for key in alone["decisions"] if not key[-1]]
    assert second.asked == first.asked[: len(second.asked)]


class Misshapen(StaticPolicy):
    """static, whose decision tables have one answer too many."""

    def __init__(self):
        self.built = 0

    def decisions(self, block, current, cpu_used, mem_used):
        self.built += 1
        return DecisionTable(np.full(len(block) + 1, -1), str)


class Elsewhere(StaticPolicy):
    """static, whose picks are no candidate."""

    def __init__(self):
        self.picked = 0

    def select(self, ctx):
        self.picked += 1
        return "nowhere"


@pytest.mark.parametrize("policy, count", [(Misshapen(), "built"), (Elsewhere(), "picked")], ids=["table", "pick"])
def test_an_answer_that_fails_the_engines_check_is_not_kept(policy, count):
    # the same policy object, run twice over one market, raises the same
    # located error twice: its failed table or pick was not kept for the
    # second run to read
    traces = market()
    errors = []
    for _ in range(2):
        with pytest.raises(SimulationError) as err:
            run_simulation(baseline_job(), policy, traces, CATALOG, COMPOSITION, params=study_params())
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert getattr(policy, count) == 2


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_a_study_rotation_builds_each_policys_tables_and_picks_once_per_market(monkeypatch, tmp_path):
    # the bench's study rotation at seed 0: 16 trace sets of 8 runs each,
    # v1 then v3 under each policy. The v3 runs read the tables and the
    # t=0 pick that the v1 run under their policy kept on the shared
    # blocks: 198 decision tables and 64 picks in all, where each run
    # building its own gave 362 and 128
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    study = workloads.make_workload("study", 0, tmp_path)
    study.setup()
    simulator._opening_block.cache_clear()
    with counting() as counts:
        for op in study.ops(lambda policy: policy, lambda name: contextlib.nullcontext()):
            op.run()
    sets = len(study.trace_specs())
    assert sets == 16
    assert len(counts["decisions"]) / sets <= 12.4
    assert len(counts["select"]) == 4 * sets
