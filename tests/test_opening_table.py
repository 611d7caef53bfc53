"""The opening epoch table that runs over one market share, and the
one-tick block of their picks at t=0 (simulator._opening_block): a run over
the same trace objects whose key is as an earlier build's reuses that
block, one whose key differs in any part, trace objects included, builds
its own, and no run can write into a shared block or its traces."""

import dataclasses
import functools
import json

import pytest

from spotindex import (
    Catalog,
    CostCentricPolicy,
    MigrationModel,
    Phase,
    POLICIES,
    PriceTrace,
    ResourceRequirement,
    SynthMarketSpec,
    generate_market_suite,
    run_simulation,
)
from spotindex import simulator

from conftest import COMPOSITION, MARKET_ROWS, WARMUP, baseline_job, build_catalog, study_params

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


def counted_run(monkeypatch, job, policy, traces, params=None, catalog=CATALOG):
    """The JSON of the run's report, and how many opening tables and t=0
    pick blocks it built."""
    built = []
    block = simulator._market_block

    def counted(*market_and_ticks):
        ticks = market_and_ticks[-1]
        if int(ticks[0]) == 0:
            built.append(len(ticks) > 1)
        return block(*market_and_ticks)

    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_market_block", counted)
        report = run_simulation(job, policy, traces, catalog, COMPOSITION, params=params or study_params())
    return json.dumps(report.to_dict(), sort_keys=True), (built.count(True), built.count(False))


def cold(job, policy, traces, params=None, catalog=CATALOG) -> str:
    """The JSON of the run's report over an empty cache, which it leaves as
    it was: the run reads a cache of its own."""
    empty = functools.lru_cache(maxsize=2)(simulator._opening_block.__wrapped__)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_opening_block", empty)
        report = run_simulation(job, policy, traces, catalog, COMPOSITION, params=params or study_params())
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_runs_over_one_market_share_one_opening_table(monkeypatch, order):
    # the bench's study shape, both jobs under every policy over one trace
    # dict, with a candidate outside the composition: a 1-hour job's table
    # of 60 ticks is the whole run's, so every table after the first is
    # read from the first run's block, and every t=0 pick from its one-tick
    # block, with the moments and index reference that earlier runs computed
    traces = market(3)
    cases = [(job, policy) for job in (baseline_job(), twelve_phases()) for policy in sorted(POLICIES)]
    expected = [cold(job, policy, traces) for job, policy in cases]
    builds = []
    for (job, policy), report in list(zip(cases, expected))[::order]:
        produced, built = counted_run(monkeypatch, job, policy, traces)
        assert produced == report, (job.name, policy)
        builds.append(built)
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
def test_a_run_whose_key_differs_in_one_part_builds_its_own_opening_table(monkeypatch, part, edits):
    # balanced reads the moments and the index reference, so a shared block
    # of another key would hand the run wrong ones. The total work sets the
    # table's tick count alone, so the t=0 pick block is shared across it
    job, traces, params, catalog = baseline_job(), market(), study_params(), CATALOG
    assert EXTRA in [spec.id for spec in simulator._candidates(job, catalog, None)[0]]
    counted_run(monkeypatch, job, "balanced", traces, params, catalog)
    for edit in edits:
        job, traces, params, catalog = edit(job, traces, params, catalog)
        produced, built = counted_run(monkeypatch, job, "balanced", traces, params, catalog)
        assert built == (1, int(part != "total work"))
        assert produced == cold(job, "balanced", traces, params, catalog)


def test_a_run_over_equal_bit_copies_builds_its_own_opening_table(monkeypatch):
    # the block reads its moments, on first use, from the trace objects of
    # the run that built it: cost reads none, and those traces reject the
    # edit that would otherwise reach a later run's moments
    traces = market()
    before = copied(traces)
    counted_run(monkeypatch, baseline_job(), "cost", traces)
    for vm in ("m4.2xlarge", EXTRA):
        with pytest.raises(ValueError, match="read-only"):
            traces[vm].prices[:] = 5.0
    produced, built = counted_run(monkeypatch, baseline_job(), "balanced", before)
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
