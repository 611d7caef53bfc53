"""Shared fixtures: the four-market replication setup and the acceptance
summary printed after a run."""

import json
import math
import re

import pytest

from spotindex import (
    Catalog,
    JobSpec,
    MigrationModel,
    Phase,
    PricePoint,
    PriceTrace,
    RunParams,
    SynthMarketSpec,
    VmSpec,
    generate_market_suite,
)
from spotindex import index, simulator

MARKET_ROWS = [
    ("m4.large", "general", 2.0, 8.0, 10.0, 4.5, 0.5),
    ("m4.2xlarge", "general", 8.0, 32.0, 40.0, 8.5, 0.5),
    ("c4.2xlarge", "compute", 8.0, 16.0, 39.8, 6.5, 1.0),
    ("r4.xlarge", "memory", 4.0, 30.5, 26.6, 6.5, 1.1),
]

COMPOSITION = sorted(row[0] for row in MARKET_ROWS)

WARMUP = 3600

# One value of each kind that a hand-edited file may hold where it should
# not, shared by the readers' hostile-value tests: whole numbers past the
# float range, a string of more digits than int() reads by default, which a
# test writes bare into a JSON file as a number json cannot read, -0.0, the
# non-finite floats, a bool, a numeric string, null, empty containers and
# deep ones.
BIG = 10**400
LONG = "9" * 5001
HOSTILE = [
    BIG, -BIG, LONG, -0.0, math.nan, math.inf, -math.inf, True, "5", None, [], {},
    {"a": {"a": {"a": {"a": [[{}]]}}}}, [[[[[[{"a": [[{}]]}]]]]]],
]


def json_text(value) -> str:
    """value as the text of a JSON value; LONG bare, as no JSON reader reads it."""
    return LONG if value is LONG else json.dumps(value)


def csv_text(value) -> str:
    """value as the text of a CSV cell."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, dict)):
        return json.dumps(value)
    return "" if value is None else str(value)


def build_catalog() -> Catalog:
    return Catalog(
        [
            VmSpec(
                id=vm,
                instance_type=vm,
                zone="us-east-1a",
                region="us-east-1",
                family=family,
                cpu_capacity=cpu,
                mem_capacity=mem,
                on_demand_price=od,
            )
            for vm, family, cpu, mem, od, _, _ in MARKET_ROWS
        ]
    )


def study_market_specs(volatility_scale: float = 1.0):
    return [
        SynthMarketSpec(
            vm_id=vm, mean=mean, stddev=std, volatility_scale=volatility_scale
        )
        for vm, _, _, _, _, mean, std in MARKET_ROWS
    ]


def traces_for(seed: int, volatility_scale: float = 1.0):
    return generate_market_suite(
        study_market_specs(volatility_scale), seed=seed, warmup=WARMUP
    )


def priced_over(traces, vm: str, t0: int, t1: int, price: float) -> dict:
    """traces with vm's price set to `price` over [t0, t1)."""
    trace = traces[vm]
    points = dict(zip(trace.timestamps.tolist(), trace.prices.tolist()))
    points[t1] = trace.price_at(t1)
    points.update({t: price for t in [*points, t0] if t0 <= t < t1})
    return {**traces, vm: PriceTrace(vm, [PricePoint(t, p) for t, p in sorted(points.items())])}


def baseline_job() -> JobSpec:
    return JobSpec(
        name="baseline",
        phases=(Phase(1800, 4.0, 16.0), Phase(1800, 2.0, 8.0)),
        mem_footprint=4.0,
        reference_capacity=(8.0, 32.0),
    )


def study_params() -> RunParams:
    return RunParams(
        epoch=60,
        horizon=60,
        sigma_window=3600,
        index_reference="window",
        migration=MigrationModel(rate=1.0, revocation_restart=90),
    )


@pytest.fixture(scope="session")
def catalog():
    return build_catalog()


@pytest.fixture(scope="session")
def job():
    return baseline_job()


@pytest.fixture(scope="session")
def params():
    return study_params()


@pytest.fixture(autouse=True)
def empty_market_caches():
    """Each test starts with no index curve (index._shared_curve) and no
    opening epoch table (simulator._opening_block) kept from an earlier
    test's run, so a test that counts or wraps what its run builds sees the
    curve and the opening table built."""
    index._shared_curve.cache_clear()
    simulator._opening_block.cache_clear()


# acceptance summary: one line per numbered criterion in test_acceptance.py

CRITERIA = {
    1: "oracle suite matches brute-force recomputation",
    2: "index stability tracks sigma/sqrt(N) within factor 2",
    3: "replication study cost and availability ordering",
    4: "volatility sweep monotonicity and availability lead",
    5: "job variant migration counts",
    6: "event-log replay and ledger identity",
    7: "BSP stall and revocation accounting",
    8: "byte-identical reports on rerun",
}

_PATTERN = re.compile(r"test_criterion_(\d+)")
_RESULTS: dict[int, str] = {}


def pytest_runtest_logreport(report):
    match = _PATTERN.search(report.nodeid)
    if not match:
        return
    number = int(match.group(1))
    if report.failed:
        _RESULTS[number] = "FAIL"
    elif report.when == "call" and report.passed:
        _RESULTS.setdefault(number, "PASS")
    elif report.skipped:
        _RESULTS.setdefault(number, "SKIP")


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERIA):
        outcome = _RESULTS.get(number, "NOT RUN")
        terminalreporter.write_line(
            f"criterion {number}: {outcome} - {CRITERIA[number]}"
        )
