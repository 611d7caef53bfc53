"""Smoke test of the benchmark itself, at a tiny size.

Every metric BENCHMARK.json names is emitted with its unit on every
workload, every operation checks out, and no tracing wrapper survives the
traced run. Run from the repository root:

    python -m pytest -q bench/test_bench.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import TARGETS, surviving_wrappers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_metric_tables():
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        for metric in SPEC[key]:
            assert (metric["unit"], metric["better"]) == table[metric["name"]]
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_emits_every_metric(workload, tmp_path):
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in TARGETS}
    spans = tmp_path / "spans.jsonl.gz"
    result = run.run_workload(
        workload, seed=0, seconds=0, trace=1, work_root=tmp_path, small=True, spans_path=spans
    )

    assert result["correct"], (result["errors"], result["mismatches"])
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert result["traced_outcome_matches"]
    assert set(result["end_to_end"]) == set(run.END_TO_END)
    assert set(result["per_layer"]) == set(run.PER_LAYER)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = [m["name"] for m in SPEC[key]]
        line = json.loads(json.dumps(run.contract_line(dict(result, trace=trace), names)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == names
        units = {m["name"]: m["unit"] for m in SPEC[key]}
        for name, metric in line["metrics"].items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])

    assert surviving_wrappers() == []
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original
    assert spans.stat().st_size > 0
    assert not any(tmp_path.glob(f"{workload}-*")), "work directory left behind"
