"""The benchmark's traced run (bench/tracing.py) wraps package attributes by
name and looks each one up in its owner's own __dict__, and wraps each policy
in `TracedPolicy`. These fast checks fail when a change moves or deletes a
wrapped attribute, or when a wrapped policy no longer runs as the bare one.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from spotindex import POLICIES, build_policy, run_simulation

from conftest import COMPOSITION, baseline_job, build_catalog, study_params, traces_for

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_are_defined_on_their_owners():
    targets = load_tracing().TARGETS
    assert targets
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets if attr not in owner.__dict__
    ]
    assert missing == []


@pytest.mark.parametrize("name", list(POLICIES))
def test_traced_policy_gives_the_bare_policy_report(name):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.active = True
    traces = traces_for(5, volatility_scale=1.5)
    catalog = build_catalog()

    def report_json(policy):
        report = run_simulation(
            baseline_job(), policy, traces, catalog, COMPOSITION, params=study_params()
        )
        return json.dumps(report.to_dict(), sort_keys=True)

    traced = report_json(tracing.TracedPolicy(build_policy(name), tracer))
    assert traced == report_json(build_policy(name))
    assert sum(tracer.counts.values()) > 0
