"""Acceptance gate: numbered end-to-end criteria with pinned tolerances.

Criterion tests are named test_criterion_<n>_*; conftest prints one pass or
fail line per criterion after the run. The replication battery (criteria 3
to 6 and 8) runs once in a session fixture and is shared.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from spotindex import (
    Catalog,
    GapError,
    IndexCurve,
    IndexSeries,
    JobSpec,
    MigrationModel,
    Phase,
    PricePoint,
    PriceTrace,
    RunParams,
    SynthMarketSpec,
    VmSpec,
    generate_market_suite,
    index_series,
    ledger_from_report,
    migration_loss,
    normalize,
    normalize_report,
    on_demand_baseline,
    replay,
    run_simulation,
    sharpe,
    should_migrate,
    utilized_price,
)
from spotindex.index import IndexSample
from spotindex.tracking import gain

from conftest import COMPOSITION, study_params, traces_for

SEEDS = tuple(range(50))
SCALES = (1.0, 1.25, 1.5)
BATTERY_POLICIES = ("cost", "avail", "balanced")

REL = 1e-12


def isclose(a, b, rel=REL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-15)


def variant_job(name, n_phases, phase_seconds):
    phases = tuple(
        Phase(phase_seconds, 4.0, 16.0) if i % 2 == 0 else Phase(phase_seconds, 2.0, 8.0)
        for i in range(n_phases)
    )
    return JobSpec(
        name=name,
        phases=phases,
        mem_footprint=4.0,
        reference_capacity=(8.0, 32.0),
    )


VARIANTS = {
    "v1": variant_job("v1", 2, 1800),
    "v2": variant_job("v2", 4, 900),
    "v3": variant_job("v3", 12, 300),
}


def run_battery(catalog, params):
    """All replication runs: 3 volatility scales and 3 job variants, each
    under the three migrating policies, 50 seeds apiece."""
    od_base = {
        name: on_demand_baseline(job, catalog) for name, job in VARIANTS.items()
    }
    cells = {}

    def run_cell(key, job, policy, scale):
        t0 = time.perf_counter()
        reports = []
        for seed in SEEDS:
            traces = traces_for(seed, scale)
            report = run_simulation(
                job, policy, traces, catalog, COMPOSITION, params=params, seed=seed
            )
            normalize_report(report, od_base[job.name])
            reports.append(report)
        cells[key] = {"reports": reports, "elapsed": time.perf_counter() - t0}

    for scale in SCALES:
        for policy in BATTERY_POLICIES:
            run_cell(("scale", scale, policy), VARIANTS["v1"], policy, scale)
    for name in ("v2", "v3"):
        for policy in BATTERY_POLICIES:
            run_cell(("variant", name, policy), VARIANTS[name], policy, 1.0)
    return cells


@pytest.fixture(scope="session")
def battery(catalog, params):
    return run_battery(catalog, params)


def mean(values):
    values = list(values)
    return sum(values) / len(values)


def costs(cell):
    return [r.total_cost for r in cell["reports"]]


def avails(cell):
    return [r.availability for r in cell["reports"]]


def migrations(cell):
    return [r.migrations for r in cell["reports"]]


# criterion 1: oracle suite


def test_criterion_1_oracle_suite():
    rng = random.Random(987654321)
    t0 = time.perf_counter()
    for _ in range(1000):
        cpu = rng.uniform(0.5, 128.0)
        memory = rng.uniform(0.5, 512.0)
        od = rng.uniform(1.0, 100.0)
        spec = VmSpec(
            id="oracle",
            instance_type="oracle",
            zone="z",
            region="r",
            family="general",
            cpu_capacity=cpu,
            mem_capacity=memory,
            on_demand_price=od,
        )
        price = rng.uniform(0.0, 50.0)
        assert isclose(normalize(spec, price), price / math.sqrt(cpu * memory))

        cpu_used = rng.uniform(0.01, cpu)
        mem_used = rng.uniform(0.01, memory)
        assert isclose(
            utilized_price(price, cpu_used, mem_used),
            price / math.sqrt(cpu_used * mem_used),
        )

        reference = rng.uniform(0.0, 5.0)
        level = rng.uniform(0.0, 5.0)
        sigma = rng.choice([0.0, rng.uniform(1e-12, 2.0)])
        assert isclose(
            sharpe(reference, level, sigma), (reference - level) / max(sigma, 1e-9)
        )

        src = rng.uniform(0.0, 30.0)
        dst = rng.uniform(0.0, 30.0)
        t_m = rng.uniform(0.0, 600.0)
        assert isclose(migration_loss(src, dst, t_m), (src + dst) * t_m / 3600.0)

        idx = rng.uniform(0.0, 3.0)
        src_n = rng.uniform(0.0, 1.5)
        dst_n = rng.uniform(0.0, 1.5)
        assert should_migrate(idx, src_n, dst_n) == (idx > src_n + 2.0 * dst_n)

        # index with random cap hits
        n = rng.randrange(1, 7)
        members = []
        for i in range(n):
            c = rng.uniform(1.0, 32.0)
            m = rng.uniform(1.0, 128.0)
            o = rng.uniform(0.5, 5.0)
            capped = rng.random() < 0.25
            p = 10.0 * o if capped else rng.uniform(0.1, 5.0 * o)
            members.append((f"v{i}", c, m, o, p))
        catalog = Catalog(
            [
                VmSpec(
                    id=vm, instance_type=vm, zone="z", region="r", family="general",
                    cpu_capacity=c, mem_capacity=m, on_demand_price=o,
                )
                for vm, c, m, o, _ in members
            ]
        )
        traces = {vm: PriceTrace(vm, [PricePoint(0, p)]) for vm, _, _, _, p in members}
        ids = [vm for vm, _, _, _, _ in members]
        live = [
            p / math.sqrt(c * m)
            for _, c, m, o, p in members
            if abs(p - 10.0 * o) > 1e-9 * 10.0 * o
        ]
        curve = IndexCurve(traces, catalog, ids)
        if not live:
            with pytest.raises(GapError):
                curve.sample_at(0)
        else:
            sample = curve.sample_at(0)
            assert sample.n_effective == len(live)
            assert isclose(sample.value, math.fsum(live) / len(live))
            assert isclose(sample.low, min(live)) and isclose(sample.high, max(live))

        # gain as an explicit Riemann sum
        period = rng.choice([60, 300])
        n_samples = rng.randrange(2, 8)
        samples = [
            IndexSample(i * period, rng.uniform(0.2, 3.0), 0.0, 9.0, 1)
            for i in range(n_samples)
        ]
        series = IndexSeries(("x",), period, samples)
        held = PriceTrace(
            "held",
            [PricePoint(0, rng.uniform(0.1, 9.0))]
            + [
                PricePoint(rng.randrange(1, n_samples * period), rng.uniform(0.1, 9.0))
                for _ in range(3)
            ],
        )
        scale = math.sqrt(cpu * memory)
        stamps = sorted(held.timestamps)
        prices = {int(t): float(p) for t, p in zip(held.timestamps, held.prices)}

        def price_at(t):
            latest = max(s for s in stamps if s <= t)
            return prices[int(latest)]

        brute = math.fsum(
            (s.value - price_at(s.timestamp) / scale) * scale * period
            for s in samples
        ) / 3600.0
        assert isclose(gain(held, spec, series), brute, rel=1e-11)
    assert time.perf_counter() - t0 < 5.0


# criterion 2: index stability across composition sizes


def test_criterion_2_index_stability():
    t0 = time.perf_counter()
    for n in (1, 4, 16, 64):
        catalog = Catalog(
            [
                VmSpec(
                    id=f"vm{i:03d}", instance_type="t", zone="z", region="r",
                    family="general", cpu_capacity=1.0, mem_capacity=1.0,
                    on_demand_price=10.0,
                )
                for i in range(n)
            ]
        )
        ids = [f"vm{i:03d}" for i in range(n)]
        stds = []
        for seed in range(50):
            specs = [
                SynthMarketSpec(vm_id=vm, mean=6.5, stddev=1.0, duration=3600)
                for vm in ids
            ]
            traces = generate_market_suite(specs, seed=seed)
            series = index_series(traces, catalog, ids, 0, 3600, 60)
            assert not series.gaps
            stds.append(float(np.std(series.values)))
        measured = mean(stds)
        expected = 1.0 / math.sqrt(n)
        assert expected / 2.0 <= measured <= expected * 2.0, (
            f"N={n}: measured std {measured:.5f} outside factor 2 of {expected:.5f}"
        )
    assert time.perf_counter() - t0 < 30.0


# criterion 3: replication study orderings


def test_criterion_3_replication_orderings(battery):
    cc = battery[("scale", 1.0, "cost")]
    aa = battery[("scale", 1.0, "avail")]
    bal = battery[("scale", 1.0, "balanced")]

    # (a) every migrating policy beats running at the index price
    for cell in (cc, aa, bal):
        index_baseline = mean(r.index_cost_reference for r in cell["reports"])
        assert mean(costs(cell)) <= index_baseline

    # (b) cost ordering
    assert mean(costs(cc)) <= mean(costs(bal)) <= mean(costs(aa))

    # (c) availability ordering
    assert mean(avails(aa)) >= mean(avails(bal)) >= mean(avails(cc))

    # (d) balanced stays near both extremes
    assert mean(costs(bal)) <= 1.25 * mean(costs(cc))
    assert mean(avails(bal)) >= mean(avails(aa)) - 0.05

    elapsed = sum(battery[("scale", 1.0, p)]["elapsed"] for p in BATTERY_POLICIES)
    assert elapsed < 120.0


# criterion 4: volatility sweep


def test_criterion_4_volatility_sweep(battery):
    cc_cost = [mean(costs(battery[("scale", s, "cost")])) for s in SCALES]
    cc_avail = [mean(avails(battery[("scale", s, "cost")])) for s in SCALES]
    assert cc_cost[0] > cc_cost[1] > cc_cost[2], f"cost not decreasing: {cc_cost}"
    assert cc_avail[0] > cc_avail[1] > cc_avail[2], (
        f"availability not decreasing: {cc_avail}"
    )
    for s in SCALES:
        aa = mean(avails(battery[("scale", s, "avail")]))
        for policy in ("cost", "balanced"):
            assert aa >= mean(avails(battery[("scale", s, policy)]))

    elapsed = sum(
        battery[("scale", s, p)]["elapsed"]
        for s in (1.25, 1.5)
        for p in BATTERY_POLICIES
    )
    assert elapsed < 180.0


# criterion 5: job variants


def test_criterion_5_job_variants(battery):
    def cell(name, policy):
        if name == "v1":
            return battery[("scale", 1.0, policy)]
        return battery[("variant", name, policy)]

    for name in ("v1", "v2", "v3"):
        assert all(m == 0 for m in migrations(cell(name, "avail"))), (
            f"availability-aware migrated in {name}"
        )

    cc = {name: migrations(cell(name, "cost")) for name in ("v1", "v2", "v3")}
    for i in range(len(SEEDS)):
        assert cc["v1"][i] <= cc["v2"][i] <= cc["v3"][i]

    for name in ("v1", "v2", "v3"):
        bal = migrations(cell(name, "balanced"))
        for i in range(len(SEEDS)):
            assert bal[i] <= cc[name][i]

    elapsed = sum(
        battery[("variant", v, p)]["elapsed"]
        for v in ("v2", "v3")
        for p in BATTERY_POLICIES
    )
    assert elapsed < 120.0


# criterion 6: replay and ledger identity


def test_criterion_6_replay_and_ledger(battery, catalog):
    checked = 0
    for key, cell in battery.items():
        scale = key[1] if key[0] == "scale" else 1.0
        for report in cell["reports"]:
            traces = traces_for(report.seed, scale)
            round_tripped = json.loads(json.dumps(report.to_dict(), sort_keys=True))
            totals = replay(round_tripped, traces, catalog)
            assert totals["total_cost"] == report.total_cost, (
                f"replay drift in {key} seed {report.seed}"
            )
            assert totals["gain"] == report.gain
            assert totals["loss"] == report.loss
            assert totals["index_cost_held"] == report.index_cost_held
            identity_gap = abs(
                report.net - (report.index_cost_held - report.total_cost)
            )
            assert identity_gap <= 1e-6 * max(1.0, abs(report.net))
            if checked % 50 == 0:
                ledger = ledger_from_report(round_tripped, traces, catalog)
                assert abs(ledger.net - report.net) <= 1e-9
            checked += 1
    assert checked == len(SEEDS) * len(battery)


# criterion 7: BSP stall and revocation accounting


def test_criterion_7_bsp_accounting(catalog):
    t0 = time.perf_counter()
    job = JobSpec(
        name="bsp",
        kind="bsp",
        tasks=3,
        phases=(Phase(1800, 4.0, 16.0),),
        mem_footprint=30.0,
        reference_capacity=(8.0, 32.0),
    )
    params = RunParams(
        epoch=60,
        horizon=60,
        bsp_superstep=300,
        migration=MigrationModel(rate=1.0, revocation_restart=90),
    )
    flat = {vm: PriceTrace(vm, [PricePoint(0, 6.0)]) for vm in COMPOSITION}

    # one task migrates for 30s (30 GB at 1 s/GB): the whole job stalls 30s
    # and every task keeps paying for its VM while stalled
    moved = run_simulation(
        job, "static", flat, catalog, COMPOSITION, params=params,
        forced_migrations=[(600, 1, "r4.xlarge")],
    )
    assert moved.downtime_seconds == 30
    assert moved.wallclock_seconds == 1830
    assert moved.migrations == 1
    stall_billing = sum(
        e["t1"] - e["t0"]
        for e in moved.events
        if e["event"] == "hold" and not e["working"]
    )
    # 3 stalled tasks plus the migration destination, 30s each
    assert stall_billing == 4 * 30
    expected = (3 * 1830 + 30) * 6.0 / 3600.0
    assert moved.total_cost == pytest.approx(expected, rel=1e-12)

    # a revocation with a 90s restart costs at least those 90s of downtime;
    # here the victim also redoes 270s back to the superstep barrier
    spiky = dict(flat)
    spiky["r4.xlarge"] = PriceTrace(
        "r4.xlarge",
        [PricePoint(0, 6.0), PricePoint(1200, 30.0), PricePoint(1260, 6.0)],
    )
    revoked = run_simulation(
        job, "static", spiky, catalog, COMPOSITION, params=params,
        forced_migrations=[(600, 1, "r4.xlarge")],
    )
    assert revoked.revocations == 1
    assert revoked.downtime_seconds >= 90
    assert revoked.downtime_seconds == 30 + 90 + 270
    assert revoked.wallclock_seconds == 2190
    assert time.perf_counter() - t0 < 1.0


# criterion 8: determinism


def test_criterion_8_determinism(battery, catalog, params):
    od_base = {
        name: on_demand_baseline(job, catalog) for name, job in VARIANTS.items()
    }
    for key, cell in battery.items():
        kind, tag, policy = key
        scale = tag if kind == "scale" else 1.0
        job = VARIANTS["v1"] if kind == "scale" else VARIANTS[tag]
        for first in cell["reports"]:
            again = run_simulation(
                job,
                policy,
                traces_for(first.seed, scale),
                catalog,
                COMPOSITION,
                params=params,
                seed=first.seed,
            )
            normalize_report(again, od_base[job.name])
            assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
                first.to_dict(), sort_keys=True
            ), f"rerun of {key} seed {first.seed} differs"


# designed equilibrium of the replication setup, pinned for early signal


def test_reference_setup_expectations(battery, catalog, job):
    sample = battery[("scale", 1.0, "avail")]["reports"][0]
    assert sample.candidates == ["c4.2xlarge", "m4.2xlarge", "r4.xlarge"]
    assert sample.params["max_price"] == 26.6

    for report in battery[("scale", 1.0, "avail")]["reports"]:
        assert report.final_vms == ["m4.2xlarge"]
        assert report.total_cost == pytest.approx(8.5, rel=1e-9)
        assert report.availability == 1.0

    for report in battery[("scale", 1.0, "balanced")]["reports"]:
        assert report.final_vms == ["r4.xlarge"]
        assert report.total_cost == pytest.approx(6.5, rel=1e-9)
        assert report.migrations == 0

    static = run_simulation(
        job, "static", traces_for(0), catalog, COMPOSITION, params=study_params()
    )
    assert static.final_vms == ["c4.2xlarge"]
    assert static.total_cost == pytest.approx(6.5, rel=1e-9)

    cc = battery[("scale", 1.0, "cost")]["reports"]
    assert 0.9 < mean(r.availability for r in cc) < 1.0
    assert all(r.revocations == 0 for r in cc)
