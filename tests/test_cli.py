import dataclasses
import io
import json
import logging
import math
import re
import shutil
from contextlib import contextmanager, redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotindex import (
    BalancedPolicy,
    InvariantError,
    JobSpec,
    MigrationModel,
    Phase,
    PricePoint,
    PriceTrace,
    RunParams,
    SpotIndexError,
    SynthMarketSpec,
    VmFamily,
    VmSpec,
    generate_market_suite,
    load_catalog,
    load_trace_dir,
    normalize_report,
    on_demand_baseline,
    run_simulation,
    write_trace_jsonl,
)
from spotindex.catalog import _FIELDS, _TEXT_FIELDS
from spotindex.cli import main
from spotindex.synth import DEFAULT_SEED

from conftest import HOSTILE, LONG, MARKET_ROWS, csv_text, json_text

CATALOG_CSV = (
    "id,instance_type,zone,region,family,cpu_capacity,mem_capacity,on_demand_price\n"
    + "".join(
        f"{vm},{vm},us-east-1a,us-east-1,{family},{cpu},{mem},{od}\n"
        for vm, family, cpu, mem, od, _, _ in MARKET_ROWS
    )
)

MARKETS_JSON = {
    "markets": [
        {"vm_id": vm, "mean": mean, "stddev": std, "duration": 3600}
        for vm, _, _, _, _, mean, std in MARKET_ROWS
    ]
}

JOB_JSON = {
    "name": "cli-job",
    "phases": [[600, 4.0, 16.0]],
    "mem_footprint": 4.0,
    "reference_capacity": [8.0, 32.0],
}


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "catalog.csv").write_text(CATALOG_CSV)
    (tmp_path / "markets.json").write_text(json.dumps(MARKETS_JSON))
    (tmp_path / "job.json").write_text(json.dumps(JOB_JSON))
    return tmp_path


def run(argv):
    return main([str(a) for a in argv])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        run(["--version"])
    assert err.value.code == 0
    assert "spotindex" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run(["simulate", "--policy", "greedy"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["synth"])  # --spec and --out missing
    assert err.value.code == 2


def test_synth_deterministic_and_manifested(workspace):
    out1 = workspace / "t1"
    out2 = workspace / "t2"
    for out in (out1, out2):
        assert run(
            ["synth", "--spec", workspace / "markets.json", "--seed", 7, "--out", out]
        ) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        if name == "manifest.json":
            continue
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["version"]
    assert manifest["config"]["spec"].endswith("markets.json")
    assert set(manifest["traces"]) == {row[0] for row in MARKET_ROWS}


def test_ingest_round_trip(workspace):
    raw = workspace / "raw"
    raw.mkdir()
    (raw / "feed.csv").write_text(
        "timestamp,vm_id,price\n0,m4.large,4.5\n60,m4.large,4.5\n120,m4.large,5.0\n"
    )
    out = workspace / "canon"
    assert run(
        ["ingest", "--in", raw, "--catalog", workspace / "catalog.csv", "--out", out]
    ) == 0
    lines = (out / "m4.large.jsonl").read_text().splitlines()
    # unchanged consecutive price collapsed
    assert len(lines) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["traces"]["m4.large"]["points"] == 2


def test_index_csv_output(workspace):
    traces = workspace / "traces"
    run(["synth", "--spec", workspace / "markets.json", "--seed", 1, "--out", traces])
    out = workspace / "index.csv"
    code = run(
        [
            "index",
            "--traces", traces,
            "--catalog", workspace / "catalog.csv",
            "--start", 0,
            "--end", 3600,
            "--period", 300,
            "--out", out,
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# spotindex")
    assert lines[1].startswith("# config:")
    assert lines[2] == "timestamp,value,min,max,n_effective"
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 12
    assert [r[0] for r in rows] == [str(t) for t in range(0, 3600, 300)]
    for r in rows:
        value, low, high, n = float(r[1]), float(r[2]), float(r[3]), int(r[4])
        assert low <= value <= high
        assert n == 4


def test_config_file_mirrors_flags(workspace):
    traces = workspace / "traces"
    run(["synth", "--spec", workspace / "markets.json", "--seed", 1, "--out", traces])
    by_flags = workspace / "flags.csv"
    run(
        [
            "index",
            "--traces", traces,
            "--catalog", workspace / "catalog.csv",
            "--start", 0,
            "--end", 1800,
            "--period", 600,
            "--out", by_flags,
        ]
    )
    config = workspace / "index.json"
    config.write_text(
        json.dumps(
            {
                "traces": str(traces),
                "catalog": str(workspace / "catalog.csv"),
                "start": 0,
                "end": 1800,
                "period": 600,
            }
        )
    )
    by_config = workspace / "config.csv"
    assert run(["index", "--config", config, "--out", by_config]) == 0
    strip = lambda p: [
        line for line in p.read_text().splitlines() if not line.startswith("#")
    ]
    assert strip(by_config) == strip(by_flags)
    # explicit flag wins over the config value
    override = workspace / "override.csv"
    assert run(["index", "--config", config, "--period", 900, "--out", override]) == 0
    assert len(strip(override)) < len(strip(by_config))


def test_config_unknown_key_is_usage_error(workspace):
    config = workspace / "bad.json"
    config.write_text(json.dumps({"tracez": "x"}))
    with pytest.raises(SystemExit) as err:
        run(["index", "--config", config])
    assert err.value.code == 2


def test_config_pin_migration_is_usage_error(workspace, capsys):
    # a fixed migration time is migration_rate 0 plus migration_floor
    traces = workspace / "traces"
    run(["synth", "--spec", workspace / "markets.json", "--seed", 1, "--out", traces])
    config = workspace / "pinned.json"
    config.write_text(json.dumps({"pin_migration": 4.0}))
    with pytest.raises(SystemExit) as err:
        run(
            [
                "simulate",
                "--job", workspace / "job.json",
                "--policy", "static",
                "--traces", traces,
                "--catalog", workspace / "catalog.csv",
                "--out", workspace / "report.json",
                "--config", config,
            ]
        )
    assert err.value.code == 2
    assert "'pin_migration'" in capsys.readouterr().err


def test_config_empty_list_for_force_is_usage_error(workspace, capsys):
    # an empty list is no words, not the bare flag: the reports of two jobs
    # are not tabulated
    a, b = workspace / "a.json", workspace / "b.json"
    a.write_text(json.dumps({"report": {"job": "one", "policy": "static"}}))
    b.write_text(json.dumps({"report": {"job": "two", "policy": "static"}}))
    config = workspace / "force.json"
    config.write_text(json.dumps({"force": []}))
    out = workspace / "s.csv"
    with pytest.raises(SystemExit) as err:
        run(["report", "--in", a, b, "--config", config, "--out", out])
    assert err.value.code == 2
    assert "config key 'force' is an empty list" in capsys.readouterr().err
    assert not out.exists()


def test_config_empty_list_for_cap_as_revocation_is_usage_error(workspace, capsys):
    traces = workspace / "traces"
    run(["synth", "--spec", workspace / "markets.json", "--seed", 1, "--out", traces])
    config = workspace / "cap.json"
    config.write_text(json.dumps({"cap_as_revocation": []}))
    out = workspace / "report.json"
    with pytest.raises(SystemExit) as err:
        run(simulate_argv(workspace, traces, "--out", out, "--config", config))
    assert err.value.code == 2
    assert "config key 'cap_as_revocation' is an empty list" in capsys.readouterr().err
    assert not out.exists()


def test_index_warns_of_its_gap_samples(workspace, caplog):
    # the synth traces start at 0, so the samples before it are gaps
    traces = workspace / "traces"
    run(["synth", "--spec", workspace / "markets.json", "--seed", 1, "--out", traces])
    out = workspace / "index.csv"
    argv = ["index", "--traces", traces, "--catalog", workspace / "catalog.csv"]
    assert run([*argv, "--start", -600, "--end", 600, "--period", 300, "--out", out]) == 0
    assert "index has 2 gap samples (first at -600)" in caplog.messages
    assert [line.split(",")[0] for line in out.read_text().splitlines()[3:]] == ["0", "300"]


@pytest.mark.parametrize("spec", [5, {"markets": {"vm_id": "m4.large"}}])
def test_synth_spec_that_holds_no_list_names_the_file(workspace, spec, caplog):
    spec_path = workspace / "bad.json"
    spec_path.write_text(json.dumps(spec))
    assert run(["synth", "--spec", spec_path, "--out", workspace / "out"]) == 1
    assert f"market spec {spec_path} must hold a list of markets" in caplog.messages


@pytest.mark.parametrize("start", [2**63 - 800, 2**63 - 1])
def test_synth_span_past_int64_exits_1(workspace, start, caplog):
    # the first start wrote timestamps that wrapped around to negative ones,
    # the second ended in a raw OverflowError
    out = workspace / "out"
    assert run(["synth", "--spec", workspace / "markets.json", "--start", start, "--out", out]) == 1
    [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message.startswith(f"market spec {workspace / 'markets.json'}: market ")
    assert message.endswith(f"span [{start}, {start + 3600}) does not fit in int64 seconds")
    assert not out.exists()


def test_synth_negative_seed_names_the_seed_not_the_spec_file(workspace, caplog):
    # it once printed numpy's "expected non-negative integer" as the spec
    # file's error
    out = workspace / "out"
    assert run(["synth", "--spec", workspace / "markets.json", "--seed", -1, "--out", out]) == 1
    [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message == "seed must be >= 0, got -1"
    assert not out.exists()


def test_index_misspelled_member_is_domain_error(workspace):
    traces = workspace / "traces"
    run(["synth", "--spec", workspace / "markets.json", "--seed", 1, "--out", traces])
    out = workspace / "index.csv"
    code = run(
        [
            "index",
            "--traces", traces,
            "--catalog", workspace / "catalog.csv",
            "--composition", "m4.large,m4.lrage",
            "--start", 0,
            "--end", 900,
            "--out", out,
        ]
    )
    assert code == 1
    assert not out.exists()


def test_simulate_and_report(workspace):
    traces = workspace / "traces"
    run(["synth", "--spec", workspace / "markets.json", "--seed", 5, "--out", traces])
    reports = []
    for policy in ("static", "cost"):
        out = workspace / f"{policy}.json"
        events = workspace / f"{policy}-events.jsonl"
        code = run(
            [
                "simulate",
                "--job", workspace / "job.json",
                "--policy", policy,
                "--traces", traces,
                "--catalog", workspace / "catalog.csv",
                "--epoch", 60,
                "--horizon", 60,
                "--seed", 5,
                "--out", out,
                "--events", events,
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["seed"] == 5
        assert doc["version"]
        assert doc["config"]["policy"] == policy
        body = doc["report"]
        assert body["job"] == "cli-job"
        assert body["cost_vs_on_demand"] is not None
        assert body["total_cost"] > 0
        event_lines = events.read_text().splitlines()
        assert event_lines
        assert all(json.loads(line) for line in event_lines)
        assert len(event_lines) == len(body["events"])
        reports.append(out)

    summary = workspace / "summary.csv"
    assert run(["report", "--in", *reports, "--out", summary]) == 0
    lines = summary.read_text().splitlines()
    header = lines[2].split(",")
    assert header[:3] == ["policy", "job", "total_cost"]
    rows = [line.split(",") for line in lines[3:]]
    assert [r[0] for r in rows] == ["cost", "static"]
    assert all(r[1] == "cli-job" for r in rows)


def test_simulate_rejects_balanced_flags_elsewhere(workspace):
    with pytest.raises(SystemExit) as err:
        run(
            [
                "simulate",
                "--job", workspace / "job.json",
                "--policy", "static",
                "--traces", workspace,
                "--catalog", workspace / "catalog.csv",
                "--sufficiency", "off",
            ]
        )
    assert err.value.code == 2


def test_report_conflicting_jobs(workspace):
    a = workspace / "a.json"
    b = workspace / "b.json"
    a.write_text(json.dumps({"report": {"job": "one", "policy": "static"}}))
    b.write_text(json.dumps({"report": {"job": "two", "policy": "static"}}))
    assert run(["report", "--in", a, b, "--out", workspace / "s.csv"]) == 1
    assert run(["report", "--in", a, b, "--force", "--out", workspace / "s.csv"]) == 0


@pytest.mark.parametrize(
    "docs, message",
    [
        ([[1]], "report {0} must hold a JSON object, got [1]"),
        (["str"], "report {0} must hold a JSON object, got 'str'"),
        ([{"report": 5}], "report {0} must hold a JSON object, got 5"),
        ([{"job": ["a"], "policy": "x"}], "report {0}: job must be a string, got ['a']"),
        (
            [{"policy": "x"}, {"report": {"job": "a", "policy": "x"}}],
            "reports cover different jobs [None, 'a']; pass --force to tabulate anyway",
        ),
    ],
)
def test_report_malformed_file_is_a_located_domain_error(workspace, docs, message, caplog):
    paths = []
    for i, doc in enumerate(docs):
        paths.append(workspace / f"r{i}.json")
        paths[-1].write_text(json.dumps(doc))
    out = workspace / "s.csv"
    assert run(["report", "--in", *paths, "--out", out]) == 1
    assert message.format(*paths) in caplog.messages
    assert not out.exists()


def test_domain_error_exit_code(workspace):
    empty = workspace / "empty"
    empty.mkdir()
    code = run(
        [
            "simulate",
            "--job", workspace / "job.json",
            "--policy", "static",
            "--traces", empty,
            "--catalog", workspace / "catalog.csv",
        ]
    )
    assert code == 1


def test_simulate_rejects_a_max_wallclock_below_one(workspace):
    # 0 must not read as "no limit given"
    traces = workspace / "traces"
    assert run(["synth", "--spec", workspace / "markets.json", "--out", traces]) == 0
    out = workspace / "report.json"
    code = run(
        [
            "simulate",
            "--job", workspace / "job.json",
            "--policy", "static",
            "--traces", traces,
            "--catalog", workspace / "catalog.csv",
            "--max-wallclock", 0,
            "--out", out,
        ]
    )
    assert code == 1
    assert not out.exists()


def test_simulate_defaults_come_from_the_dataclasses(workspace):
    traces = workspace / "traces"
    assert run(["synth", "--spec", workspace / "markets.json", "--out", traces]) == 0
    out = workspace / "report.json"
    code = run(
        [
            "simulate",
            "--job", workspace / "job.json",
            "--policy", "static",
            "--traces", traces,
            "--catalog", workspace / "catalog.csv",
            "--out", out,
        ]
    )
    assert code == 0
    params = json.loads(out.read_text())["report"]["params"]
    defaults, migration = RunParams(), MigrationModel()
    expected = {
        "epoch": defaults.epoch,
        "horizon": defaults.horizon,
        "sigma_window": defaults.sigma_window,
        "index_reference": defaults.index_reference,
        "bsp_superstep": defaults.bsp_superstep,
        "treat_cap_as_revocation": defaults.treat_cap_as_revocation,
        "migration_rate": migration.rate,
        "migration_fixed_floor": migration.fixed_floor,
        "revocation_restart": migration.revocation_restart,
        "migration_seconds": migration.seconds(JOB_JSON["mem_footprint"]),
    }
    assert {key: params[key] for key in expected} == expected


def test_synth_defaults_come_from_the_dataclasses(workspace):
    spec_path = workspace / "minimal.json"
    spec_path.write_text(json.dumps([{"vm_id": "m4.large", "mean": 4.5, "stddev": 0.5}]))
    out = workspace / "minimal"
    assert run(["synth", "--spec", spec_path, "--out", out]) == 0
    suite = generate_market_suite([SynthMarketSpec("m4.large", mean=4.5, stddev=0.5)])
    write_trace_jsonl(suite["m4.large"], workspace / "expected.jsonl")
    assert (out / "m4.large.jsonl").read_bytes() == (workspace / "expected.jsonl").read_bytes()
    assert json.loads((out / "manifest.json").read_text())["seed"] == DEFAULT_SEED


def simulate_argv(workspace, traces, *extra):
    return [
        "simulate",
        "--job", workspace / "job.json",
        "--policy", "static",
        "--traces", traces,
        "--catalog", workspace / "catalog.csv",
        *extra,
    ]


@pytest.mark.parametrize(
    "config",
    [{"epoch": True}, {"epoch": 60.7}, {"cap_as_revocation": "false"}, {"verbose": True}],
)
def test_config_value_gets_its_flags_parsing(workspace, config):
    traces = workspace / "traces"
    run(["synth", "--spec", workspace / "markets.json", "--seed", 1, "--out", traces])
    path = workspace / "config.json"
    path.write_text(json.dumps(config))
    out = workspace / "report.json"
    with pytest.raises(SystemExit) as err:
        run(simulate_argv(workspace, traces, "--out", out, "--config", path))
    assert err.value.code == 2
    assert not out.exists()


def test_config_values_match_their_flags(workspace):
    traces = workspace / "traces"
    run(["synth", "--spec", workspace / "markets.json", "--seed", 1, "--out", traces])
    by_flags = workspace / "flags.json"
    flags = ["--epoch", 120, "--cap-as-revocation", "--seed", 5, "--out", by_flags]
    assert run(simulate_argv(workspace, traces, *flags)) == 0
    path = workspace / "config.json"
    path.write_text(
        json.dumps({"epoch": 120, "cap_as_revocation": True, "seed": 5, "horizon": False})
    )
    by_config = workspace / "config-report.json"
    assert run(simulate_argv(workspace, traces, "--out", by_config, "--config", path)) == 0
    a, b = json.loads(by_flags.read_text()), json.loads(by_config.read_text())
    assert a["report"] == b["report"]
    del a["config"]["out"], b["config"]["out"]
    assert a["config"] == b["config"]
    assert b["config"]["horizon"] is None


def test_config_in_takes_one_path_or_a_list(workspace):
    raw = workspace / "raw"
    raw.mkdir()
    (raw / "a.csv").write_text("timestamp,vm_id,price\n0,m4.large,4.5\n")
    (raw / "b.csv").write_text("timestamp,vm_id,price\n0,r4.xlarge,5.5\n")
    cases = (
        (str(raw / "a.csv"), {"m4.large"}),
        ([str(raw / "a.csv"), str(raw / "b.csv")], {"m4.large", "r4.xlarge"}),
    )
    for inputs, written in cases:
        out = workspace / f"canon{len(written)}"
        path = workspace / "ingest.json"
        path.write_text(
            json.dumps({"in": inputs, "catalog": str(workspace / "catalog.csv"), "out": str(out)})
        )
        assert run(["ingest", "--config", path]) == 0
        assert set(json.loads((out / "manifest.json").read_text())["traces"]) == written


@pytest.mark.parametrize(
    "key, value",
    [("change_period", 60.9), ("enforce_sample_moments", "false"), ("duration", True), ("mean", "6.5")],
)
def test_synth_rejects_values_a_cast_would_change(workspace, key, value, caplog):
    markets = json.loads(json.dumps(MARKETS_JSON))
    markets["markets"][0][key] = value
    spec_path = workspace / "bad.json"
    spec_path.write_text(json.dumps(markets))
    assert run(["synth", "--spec", spec_path, "--out", workspace / "out"]) == 1
    assert f"{key} must be" in caplog.text


def test_simulate_balanced_options_match_the_library(workspace):
    traces = workspace / "traces"
    run(["synth", "--spec", workspace / "markets.json", "--seed", 5, "--out", traces])
    out = workspace / "report.json"
    options = ["--sufficiency", "off", "--target-rule", "first_feasible"]
    argv = simulate_argv(workspace, traces, "--epoch", 60, "--seed", 5, "--out", out, *options)
    argv[argv.index("static")] = "balanced"
    assert run(argv) == 0
    catalog = load_catalog(workspace / "catalog.csv")
    job = JobSpec.from_dict(JOB_JSON)
    loaded = load_trace_dir(traces, catalog)
    policy = BalancedPolicy(sufficiency="off", target_rule="first_feasible")
    report = run_simulation(
        job, policy, loaded, catalog, sorted(loaded), params=RunParams(epoch=60), seed=5
    )
    normalize_report(report, on_demand_baseline(job, catalog))
    expected = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    assert json.loads(out.read_text())["report"] == expected
    argv[argv.index("balanced")] = "cost"
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2


@pytest.mark.parametrize(
    "job, key",
    [
        ({**JOB_JSON, "requirement": [4]}, "requirement"),
        ({**JOB_JSON, "phases": 5}, "phases"),
        ([JOB_JSON], "job spec"),
        ({**JOB_JSON, "phases": [{"seconds": 600}]}, "phases[0]"),
        ({**JOB_JSON, "phases": ["abc"]}, "phases[0]"),
        ({**JOB_JSON, "name": ["a"]}, "name"),
        ({**JOB_JSON, "name": 5}, "name"),
        ({k: v for k, v in JOB_JSON.items() if k != "name"}, "name"),
        ({k: v for k, v in JOB_JSON.items() if k != "phases"}, "phases"),
        ({**JOB_JSON, "max_price": float("nan")}, "max_price"),
        ({**JOB_JSON, "mem_footprint": float("inf")}, "mem_footprint"),
        ({**JOB_JSON, "phases": [[600, float("nan"), 16.0]]}, "phases[0] cpu"),
        ({**JOB_JSON, "tasks": "x"}, "tasks"),
        # would build one task per task, until memory ran out
        ({**JOB_JSON, "tasks": 1e300}, "tasks"),
        # a 401-digit literal escaped as a raw OverflowError traceback
        ({**JOB_JSON, "mem_footprint": 10**400}, "mem_footprint"),
    ],
)
def test_simulate_malformed_job_is_a_located_domain_error(workspace, job, key, caplog):
    traces = workspace / "traces"
    assert run(["synth", "--spec", workspace / "markets.json", "--out", traces]) == 0
    (workspace / "job.json").write_text(json.dumps(job))
    out = workspace / "report.json"
    assert run(simulate_argv(workspace, traces, "--out", out)) == 1
    assert f"job {workspace / 'job.json'}: {key} must be" in caplog.text
    assert not out.exists()


# JOB_JSON with every key given, and each key path the job reader reads
FULL_JOB = JobSpec.from_dict(JOB_JSON).to_dict()
JOB_PATHS = [
    *[(key,) for key in FULL_JOB],
    ("phases", 0), *[("phases", 0, i) for i in range(3)],
    *[(key, i) for key in ("requirement", "reference_capacity") for i in range(2)],
]


@pytest.fixture(scope="module")
def hostile_workspace(tmp_path_factory):
    workspace = tmp_path_factory.mktemp("hostile")
    (workspace / "catalog.csv").write_text(CATALOG_CSV)
    (workspace / "markets.json").write_text(json.dumps(MARKETS_JSON))
    assert run(["synth", "--spec", workspace / "markets.json", "--out", workspace / "traces"]) == 0
    return workspace


@contextmanager
def logged_errors():
    """The messages of the errors the package logs inside the block."""
    messages = []
    handler = logging.Handler(logging.ERROR)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("spotindex")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def simulated(workspace, job) -> tuple[int, dict | None, list]:
    """The exit code, the report and the error messages of `simulate` over
    the job."""
    (workspace / "job.json").write_text(json.dumps(job))
    out = workspace / "report.json"
    out.unlink(missing_ok=True)
    with logged_errors() as messages:
        code = run(simulate_argv(workspace, workspace / "traces", "--out", out))
    return code, json.loads(out.read_text())["report"] if code == 0 else None, messages


def edited_job(path, value) -> dict:
    job = json.loads(json.dumps(FULL_JOB))
    *parents, last = path
    reached = job
    for parent in parents:
        reached = reached[parent]
    reached[last] = value
    return job


def meaning(path, value) -> dict | None:
    """The job that FULL_JOB with value at path means, where it means one: a
    null key that has a default leaves it out, a string is a name, and -0.0
    is a requirement of 0.0; None where the edit is an error."""
    if path == ("name",):
        return edited_job(path, value) if isinstance(value, str) else None
    if len(path) == 1 and value is None and path != ("phases",):
        return {key: v for key, v in FULL_JOB.items() if key != path[0]}
    if path[0] == "requirement" and len(path) == 2 and type(value) is float and value == 0:
        return edited_job(path, 0.0)
    return None


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(JOB_PATHS), st.sampled_from(HOSTILE))
def test_simulate_names_a_hostile_job_value_or_runs_what_it_means(hostile_workspace, path, value):
    # exit 1 with a message that names the job file and the key, a phase's
    # entries by their phase; or exit 0 with the report of what the value
    # means
    code, report, messages = simulated(hostile_workspace, edited_job(path, value))
    meant = meaning(path, value)
    if meant is not None:
        assert (code, messages) == (0, [])
        assert report == simulated(hostile_workspace, meant)[1]
        return
    name = f"phases[{path[1]}]" if path[0] == "phases" and len(path) > 1 else path[0]
    if path == ("phases",) and isinstance(value, list) and value:  # whose first entry is no phase
        name = "phases[0]"
    job_file = re.escape(str(hostile_workspace / "job.json"))
    assert code == 1
    assert len(messages) == 1
    assert re.fullmatch(f"job {job_file}: (job )?{re.escape(name)}( \\w+)? must .*", messages[0], re.S), messages


@pytest.mark.parametrize("flag", ["--migration-rate", "--migration-floor"])
def test_simulate_non_finite_migration_option_is_a_domain_error(workspace, flag, caplog):
    traces = workspace / "traces"
    assert run(["synth", "--spec", workspace / "markets.json", "--out", traces]) == 0
    (workspace / "job.json").write_text(json.dumps(JOB_JSON))
    out = workspace / "report.json"
    assert run(simulate_argv(workspace, traces, flag, "inf", "--out", out)) == 1
    assert "must be finite" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "job, flag, value, message",
    [
        # each ended in a raw OverflowError: at the epoch table's ticks, at
        # a window's start, and at a copy's seconds
        (JOB_JSON, "--epoch", 2**63, f"epoch must be at most {2**63 - 1}, got {2**63}"),
        (JOB_JSON, "--sigma-window", 2**63, f"sigma_window must be at most {2**63 - 1}, got {2**63}"),
        (
            {**JOB_JSON, "mem_footprint": 1e10},
            "--migration-rate",
            1e300,
            "migration rate * mem_footprint must be finite and >= 0, got inf",
        ),
    ],
)
def test_simulate_value_that_overflows_the_run_is_a_domain_error(workspace, job, flag, value, message, caplog):
    traces = workspace / "traces"
    assert run(["synth", "--spec", workspace / "markets.json", "--out", traces]) == 0
    (workspace / "job.json").write_text(json.dumps(job))
    out = workspace / "report.json"
    assert run(simulate_argv(workspace, traces, flag, value, "--out", out)) == 1
    assert message in caplog.messages
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--epoch", "--sigma-window"])
def test_simulate_runs_at_the_int64_bound(workspace, flag):
    traces = workspace / "traces"
    assert run(["synth", "--spec", workspace / "markets.json", "--out", traces]) == 0
    out = workspace / "report.json"
    assert run(simulate_argv(workspace, traces, flag, 2**63 - 1, "--out", out)) == 0
    assert json.loads(out.read_text())["report"]["params"][flag[2:].replace("-", "_")] == 2**63 - 1


@pytest.mark.parametrize(
    "spec, message",
    [
        ([1], "market 0 must be a JSON object, got 1"),
        ([MARKETS_JSON["markets"][0], {"vm_id": "m4.large", "stddev": 0.5}], "market 1 has no 'mean'"),
        ([{"vm_id": None, "mean": 4.5, "stddev": 0.5}], "market 0: vm_id must be a string, got None"),
        # a non-finite scale once reached numpy's uniform draw and overflowed there
        ([{**MARKETS_JSON["markets"][0], "volatility_scale": float("nan")}], "volatility_scale must be finite and >= 0, got nan"),
        ([{**MARKETS_JSON["markets"][0], "volatility_scale": float("inf")}], "volatility_scale must be finite and >= 0, got inf"),
        ([MARKETS_JSON["markets"][0], {**MARKETS_JSON["markets"][1], "volatility_scale": -1}], "volatility_scale must be finite and >= 0, got -1.0"),
        ([{"vm_id": "m4.large", "mean": "6.5", "stddev": 0.5}], "mean must be float, got '6.5'"),
        # finite, but the draw's upper bound or its width overflows
        ([{"vm_id": "m4.large", "mean": 1.7e308, "stddev": 1e307}], "mean + half_width must be finite and > 0, got inf"),
        ([{"vm_id": "m4.large", "mean": 1.0, "stddev": 6e307}], "2 * half_width must be finite and >= 0, got inf"),
    ],
)
def test_synth_malformed_market_is_a_located_domain_error(workspace, spec, message, caplog):
    spec_path = workspace / "bad.json"
    spec_path.write_text(json.dumps(spec))
    out = workspace / "out"
    assert run(["synth", "--spec", spec_path, "--out", out]) == 1
    # every message names the file; a bad value's also names its market,
    # the last entry
    if not message.startswith("market "):
        message = f"market {len(spec) - 1}: {message}"
    assert f"market spec {spec_path}: {message}" in caplog.messages
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, message",
    [
        ([MARKETS_JSON["markets"][0]] * 2, "duplicate market spec for 'm4.large'"),
        ([{**MARKETS_JSON["markets"][0], "mean": 0.5}], "market 'm4.large' produced price -"),
    ],
    ids=["duplicate-vm-id", "negative-draw"],
)
def test_synth_error_of_the_whole_suite_names_the_spec_file(workspace, spec, message, caplog):
    # errors that generate_market_suite raises, not a single entry's check
    spec_path = workspace / "bad.json"
    spec_path.write_text(json.dumps(spec))
    assert run(["synth", "--spec", spec_path, "--out", workspace / "out"]) == 1
    assert any(m.startswith(f"market spec {spec_path}: {message}") for m in caplog.messages)


@pytest.mark.parametrize("document", ["config", "market spec", "job", "report"])
def test_input_file_that_is_not_json_names_the_file(workspace, document, caplog):
    bad = workspace / "bad.json"
    bad.write_text("not json\n")
    traces = workspace / "traces"
    assert run(["synth", "--spec", workspace / "markets.json", "--out", traces]) == 0
    argv = {
        "config": ["simulate", "--config", bad],
        "market spec": ["synth", "--spec", bad, "--out", workspace / "out"],
        "job": [*simulate_argv(workspace, traces), "--job", bad],
        "report": ["report", "--in", bad],
    }[document]
    assert run(argv) == 1
    assert f"{document} {bad}: Expecting value: line 1 column 1 (char 0)" in caplog.messages


def test_vm_ids_sharing_a_file_name_are_a_conflict(workspace, caplog):
    # "a/b" would be written to a_b.jsonl, the file of "a_b"
    catalog = workspace / "slash.csv"
    catalog.write_text(
        "id,instance_type,zone,region,family,cpu_capacity,mem_capacity,on_demand_price\n"
        "a/b,m4.large,z1,r1,general,2,8,10\n"
        "a_b,m4.large,z2,r1,general,2,8,10\n"
    )
    raw = workspace / "raw.csv"
    raw.write_text("timestamp,vm_id,price\n0,a/b,1.0\n0,a_b,2.0\n")
    spec = workspace / "slash.json"
    spec.write_text(json.dumps([{"vm_id": vm, "mean": 4.5, "stddev": 0.5} for vm in ("a/b", "a_b")]))
    commands = (
        ["ingest", "--in", raw, "--catalog", catalog, "--out"],
        ["synth", "--spec", spec, "--out"],
    )
    for command in commands:
        out = workspace / command[0]
        caplog.clear()
        assert run([*command, out]) == 1
        assert "vm ids 'a/b' and 'a_b' would both be written to a_b.jsonl" in caplog.messages
        assert not out.exists()


@pytest.mark.parametrize("stamp", ["Infinity", "1e300", "9223372036854775808"])
def test_ingest_timestamp_outside_int64_is_a_located_domain_error(workspace, stamp, caplog):
    # the record's VM is unknown and skipped under --unknown warn, but its
    # timestamp is still checked
    raw = workspace / "raw.jsonl"
    raw.write_text(
        '{"timestamp": 0, "vm_id": "m4.large", "price": 4.5}\n'
        f'{{"timestamp": {stamp}, "vm_id": "ghost", "price": 4.5}}\n'
    )
    out = workspace / "canon"
    assert run(["ingest", "--in", raw, "--catalog", workspace / "catalog.csv", "--out", out]) == 1
    assert f"{raw}: line 2: field 'timestamp': timestamp must fit in int64 seconds" in caplog.text
    assert not out.exists()


def test_ingest_locates_an_int_too_long_to_read(workspace, caplog):
    # it ended as a bare "Exceeds the limit (4300 digits)" with no file or line
    raw = workspace / "raw.jsonl"
    raw.write_text(
        '{"timestamp": 0, "vm_id": "m4.large", "price": 4.5}\n'
        f'{{"timestamp": 60, "vm_id": "m4.large", "price": {"9" * 5001}}}\n'
    )
    out = workspace / "canon"
    assert run(["ingest", "--in", raw, "--catalog", workspace / "catalog.csv", "--out", out]) == 1
    assert f"{raw}: line 2: invalid JSON: " in caplog.text
    assert not out.exists()


# Malformed inputs: each key of a valid input document, and the whole
# document, replaced in turn by each of these JSON values. Numbers stay
# small: a valid but huge task count would simulate that many tasks.
JSON_VALUES = [None, True, False, -1, 0, 0.5, 2, math.nan, math.inf, -math.inf, "", "x", [], [1], {}, {"a": 1}]

FULL_JOB = {**JOB_JSON, "kind": "long_running", "tasks": 1, "requirement": [2.0, 8.0], "max_price": 100.0}

FULL_MARKET = {
    **MARKETS_JSON["markets"][0],
    "change_period": 60,
    "volatility_scale": 1.0,
    "enforce_sample_moments": True,
}

CATALOG_ROW = {
    "id": "m4.large",
    "instance_type": "m4.large",
    "zone": "us-east-1a",
    "region": "us-east-1",
    "family": "general",
    "cpu_capacity": 2.0,
    "mem_capacity": 8.0,
    "on_demand_price": 10.0,
}

TRACE_RECORD = {"timestamp": 0, "vm_id": "m4.large", "price": 4.5}


def simulate_config(inputs):
    return {
        "job": str(inputs / "job.json"),
        "policy": "static",
        "traces": str(inputs / "traces"),
        "catalog": str(inputs / "catalog.csv"),
        "epoch": 300,
        "horizon": 3600,
        "sigma_window": 3600,
        "bsp_superstep": 300,
        "migration_rate": 1.0,
        "migration_floor": 0.0,
        "restart": 90,
        "max_wallclock": 7200,
        "seed": 0,
        "out": "report.json",
    }


def write_doc(name, *docs):
    """docs as JSON lines in file `name` of the working directory."""
    path = Path(name).resolve()
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    return path


# document -> (its valid form, given the shared inputs directory; the argv
# that reads a version of it)
DOCUMENTS = {
    "job": (
        lambda inputs: FULL_JOB,
        lambda inputs, doc: [
            "simulate", "--job", write_doc("job.json", doc), "--policy", "static",
            "--traces", inputs / "traces", "--catalog", inputs / "catalog.csv", "--out", "report.json",
        ],
    ),
    "market": (
        lambda inputs: FULL_MARKET,
        lambda inputs, doc: ["synth", "--spec", write_doc("spec.json", [doc]), "--out", "out"],
    ),
    "config": (
        simulate_config,
        lambda inputs, doc: ["simulate", "--config", write_doc("config.json", doc)],
    ),
    "catalog row": (
        lambda inputs: CATALOG_ROW,
        lambda inputs, doc: [
            "ingest", "--in", inputs / "raw.jsonl", "--catalog", write_doc("catalog.jsonl", doc), "--out", "out",
        ],
    ),
    "trace record": (
        lambda inputs: TRACE_RECORD,
        lambda inputs, doc: [
            "ingest", "--in", write_doc("raw.jsonl", doc), "--catalog", inputs / "catalog.csv", "--out", "out",
        ],
    ),
}


# the file that each document's argv writes it to
DOCUMENT_FILES = {
    "job": "job.json",
    "market": "spec.json",
    "config": "config.json",
    "catalog row": "catalog.jsonl",
    "trace record": "raw.jsonl",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The catalog, traces, job and raw trace file that the documents not
    under test point at."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "catalog.csv").write_text(CATALOG_CSV)
    (root / "markets.json").write_text(json.dumps(MARKETS_JSON))
    (root / "job.json").write_text(json.dumps(FULL_JOB))
    (root / "raw.jsonl").write_text(json.dumps(TRACE_RECORD) + "\n")
    assert run(["synth", "--spec", root / "markets.json", "--out", root / "traces"]) == 0
    return root


# a job that no candidate fits at this max_price is valid, and its error
# is the engine's, which knows no file
UNLOCATED = [("job", "max_price", 0.5), ("job", "max_price", 2)]


@pytest.mark.parametrize(
    "document, key",
    [(name, key) for name, (valid, _) in DOCUMENTS.items() for key in [*valid(Path()), None]],
)
def test_malformed_input_is_a_domain_or_usage_error(inputs, tmp_path, monkeypatch, caplog, document, key):
    # key None replaces the whole document; an error (exit 1) about any
    # document but the config names the document's file
    valid, argv = DOCUMENTS[document]
    monkeypatch.chdir(tmp_path)
    escaped = []
    unlocated = []
    for value in JSON_VALUES:
        doc = value if key is None else {**valid(inputs), key: value}
        caplog.clear()
        try:
            outcome = run(argv(inputs, doc))
        except SystemExit as exc:
            outcome = "usage" if exc.code == 2 else exc
        except Exception as exc:
            outcome = exc
        if outcome not in (0, 1, "usage"):
            escaped.append((value, outcome))
        located = document == "config" or (document, key, value) in UNLOCATED
        written = str(tmp_path / DOCUMENT_FILES[document])
        if outcome == 1 and not located and written not in caplog.text:
            unlocated.append((value, caplog.text))
    assert not escaped
    assert not unlocated


@pytest.mark.parametrize("key", [*FULL_JOB, None])
def test_job_from_dict_raises_only_domain_errors(key):
    for value in JSON_VALUES:
        try:
            JobSpec.from_dict(value if key is None else {**FULL_JOB, key: value})
        except (ValueError, SpotIndexError):
            pass


# One HOSTILE value at one key of a valid market spec, catalog or simulate
# config, through the CLI; and each record's scalar fields given a HOSTILE
# value by a library caller.

# two short markets with every key given
HOSTILE_MARKETS = [
    {**FULL_MARKET, "vm_id": vm, "mean": mean, "stddev": std, "duration": 600}
    for vm, _, _, _, _, mean, std in MARKET_ROWS[:2]
]


def with_value(doc, path, value) -> str:
    """doc as JSON text with value at key path, a LONG value bare."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    reached = doc
    for parent in parents:
        reached = reached[parent]
    reached[last] = "\0"
    return json.dumps(doc).replace(json.dumps("\0"), json_text(value))


def cli_outcome(argv) -> tuple:
    """The exit code of the CLI over argv, the errors it logged, and the
    last line it wrote to stderr, where argparse writes a usage error."""
    stderr = io.StringIO()
    with logged_errors() as messages, redirect_stderr(stderr):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, messages, stderr.getvalue().strip().rpartition("\n")[2]


def synthesized(workspace, text: str) -> tuple:
    """The outcome of spotindex synth over a spec file holding text, and
    the bytes of each trace file it wrote."""
    spec, out = workspace / "spec.json", workspace / "synth"
    spec.write_text(text)
    shutil.rmtree(out, ignore_errors=True)
    code, messages, _ = cli_outcome(["synth", "--spec", spec, "--out", out])
    return code, messages, {p.name: p.read_bytes() for p in sorted(out.glob("*.jsonl"))}


def market_meaning(key: str, value):
    """What value at key of a market spec means, as the plain value that
    says it; None where it means nothing there: a string is a vm id, true
    is enforce_sample_moments, and -0.0 is a stddev or volatility_scale of
    0.0. null is no default here: a key given must hold a value."""
    if key == "vm_id" and isinstance(value, str) and value is not LONG:
        return value
    if key == "enforce_sample_moments" and isinstance(value, bool):
        return value
    if key in ("stddev", "volatility_scale") and type(value) is float and value == 0:
        return 0.0
    return None


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 1), st.sampled_from(sorted(FULL_MARKET)), st.sampled_from(HOSTILE))
def test_synth_names_a_hostile_spec_value_or_writes_what_it_means(hostile_workspace, i, key, value):
    # exit 1 with a message that names the spec file, the market and the
    # key (only the file, for a value json cannot read); or exit 0 with the
    # traces of what the value means
    code, messages, written = synthesized(hostile_workspace, with_value(HOSTILE_MARKETS, (i, key), value))
    meant = market_meaning(key, value)
    if meant is not None:
        assert (code, messages) == (0, [])
        assert synthesized(hostile_workspace, with_value(HOSTILE_MARKETS, (i, key), meant)) == (0, [], written)
        return
    spec = re.escape(str(hostile_workspace / "spec.json"))
    unread = "|.*digits.*" if value is LONG else ""
    assert (code, len(messages)) == (1, 1), messages
    assert re.fullmatch(f"market spec {spec}: (market {i}: {key} must .*{unread})", messages[0], re.S)


CATALOG_RECORDS = [
    dict(zip(_FIELDS, (vm, vm, "us-east-1a", "us-east-1", family, cpu, mem, od)))
    for vm, family, cpu, mem, od, _, _ in MARKET_ROWS
]


def catalog_text(suffix: str, at, value) -> str:
    """CATALOG_RECORDS as a CSV or JSON-lines file, with value at (record
    index, field) at."""
    i, key = at
    if suffix == "jsonl":
        lines = [json.dumps(r) for r in CATALOG_RECORDS]
        lines[i] = with_value(CATALOG_RECORDS[i], (key,), value)
        return "".join(line + "\n" for line in lines)
    rows = [[{**r, key: value}[f] if n == i else r[f] for f in _FIELDS] for n, r in enumerate(CATALOG_RECORDS)]
    return "".join(",".join(map(csv_text, row)) + "\n" for row in [list(_FIELDS), *rows])


def catalog_meaning(key: str, value, suffix: str):
    """What value at key of a catalog record means, as the plain value that
    says it; None where it means nothing there: text where text is due,
    and a JSON number or numeric text that is finite and > 0 where a
    number is due."""
    if suffix == "csv":
        value = csv_text(value) or None
    elif value is LONG:
        return None  # not JSON
    if key in _TEXT_FIELDS:
        return value if isinstance(value, str) else None
    if key == "family" or isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        number = float(value)
    except (ValueError, OverflowError):
        return None
    return number if math.isfinite(number) and number > 0 else None


def indexed(workspace, suffix: str, text: str) -> tuple:
    """The outcome of spotindex index over a catalog file holding text, and
    the sample rows it wrote."""
    catalog, out = workspace / f"hostile.{suffix}", workspace / "index.csv"
    catalog.write_text(text)
    out.unlink(missing_ok=True)
    argv = ["index", "--traces", workspace / "traces", "--catalog", catalog]
    code, messages, _ = cli_outcome([*argv, "--start", 0, "--end", 3600, "--period", 600, "--out", out])
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")] if code == 0 else None
    return code, messages, rows


def check_hostile_catalog_value(workspace, suffix: str, at, value):
    # exit 1 with a message that names the catalog file, the record's line
    # and the field; or exit 0 with the index of what the value means
    i, key = at
    code, messages, rows = indexed(workspace, suffix, catalog_text(suffix, at, value))
    meant = catalog_meaning(key, value, suffix)
    if meant is not None:
        assert (code, messages) == (0, [])
        assert indexed(workspace, suffix, catalog_text(suffix, at, meant)) == (0, [], rows)
        return
    path = re.escape(str(workspace / f"hostile.{suffix}"))
    line = i + 2 if suffix == "csv" else i + 1
    unread = "|invalid JSON: .*" if suffix == "jsonl" and value is LONG else ""
    assert (code, len(messages)) == (1, 1), messages
    assert re.fullmatch(f"{path}: line {line}: (field '{key}': .*|{key} must .*{unread})", messages[0], re.S)


CATALOG_EDITS = st.tuples(st.integers(0, len(MARKET_ROWS) - 1), st.sampled_from(_FIELDS))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(CATALOG_EDITS, st.sampled_from(HOSTILE))
def test_a_hostile_csv_catalog_value_is_named_or_read_as_what_it_means(hostile_workspace, at, value):
    check_hostile_catalog_value(hostile_workspace, "csv", at, value)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(CATALOG_EDITS, st.sampled_from(HOSTILE))
def test_a_hostile_json_lines_catalog_value_is_named_or_read_as_what_it_means(hostile_workspace, at, value):
    check_hostile_catalog_value(hostile_workspace, "jsonl", at, value)


def hostile_config(workspace) -> dict:
    """A simulate config that sets every option but --out, --events and the
    balanced policy's."""
    return {
        "job": str(workspace / "job.json"),
        "policy": "cost",
        "traces": str(workspace / "traces"),
        "catalog": str(workspace / "catalog.csv"),
        "composition": "m4.large,r4.xlarge",
        "epoch": 300,
        "horizon": 3600,
        "sigma_window": 3600,
        "index_reference": "window",
        "bsp_superstep": 300,
        "migration_rate": 1.0,
        "migration_floor": 0.0,
        "restart": 90,
        "cap_as_revocation": False,
        "max_wallclock": 7200,
        "region": "us-east-1",
        "zone": "us-east-1a",
        "family": "general",
        "unknown": "warn",
        "seed": 0,
    }


def simulated_with(workspace, *argv) -> tuple:
    """The outcome of spotindex simulate with argv, and its report."""
    out = workspace / "config-report.json"
    out.unlink(missing_ok=True)
    code, messages, usage = cli_outcome(["simulate", *argv, "--out", out])
    return code, messages, usage, json.loads(out.read_text())["report"] if code == 0 else None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(hostile_config(Path()))), st.sampled_from(HOSTILE))
def test_a_hostile_config_value_means_what_it_means_after_its_flag(hostile_workspace, key, value):
    # a config value is the words that would follow its flag: a string or
    # number one word, a list several, true a switch, false or null none.
    # So each outcome, an exit 2 usage error naming the flag included, is
    # that of the words on the command line; a value json cannot read is an
    # exit 1 error naming the config file, and an empty list, which would
    # be the bare flag, an exit 2 usage error naming its key.
    (hostile_workspace / "job.json").write_text(json.dumps(JOB_JSON))
    config = hostile_workspace / "config.json"
    config.write_text(with_value(hostile_config(hostile_workspace), (key,), value))
    outcome = simulated_with(hostile_workspace, "--config", config)
    if value is LONG:
        code, [message] = outcome[:2]
        assert code == 1 and message.startswith(f"config {config}: "), message
        return
    words = []
    for name, given_value in {**hostile_config(hostile_workspace), key: value}.items():
        flag = "--" + name.replace("_", "-")
        if given_value == []:
            code, messages, usage, _ = outcome
            assert (code, messages) == (2, []), outcome
            assert usage.endswith(f"error: config key {name!r} is an empty list"), usage
            return
        if given_value is True:
            words.append(flag)
        elif isinstance(given_value, list):
            words += [flag, *map(str, given_value)]
        elif given_value is not None and given_value is not False:
            words.append(f"{flag}={given_value}")
    assert outcome == simulated_with(hostile_workspace, *words)


# each record's fields that hold one value, and the kind each is cast to
SCALAR_KINDS = {"str": str, "int": int, "float": float, "bool": bool, "float | None": float, "VmFamily": VmFamily}
RECORDS = {
    SynthMarketSpec: dict(vm_id="m", mean=6.5, stddev=1.0),
    VmSpec: CATALOG_RECORDS[0],
    JobSpec: dict(name="j", phases=(Phase(60, 1.0, 1.0),)),
}


@pytest.mark.parametrize(
    "record, key",
    [(cls, f.name) for cls in RECORDS for f in dataclasses.fields(cls) if f.init and f.type in SCALAR_KINDS]
    # JobSpec's composite fields, which the job reader shapes before it
    # builds the job
    + [(JobSpec, key) for key in ("phases", "requirement", "reference_capacity")],
)
def test_a_record_names_a_hostile_field_or_holds_its_cast_value(record, key):
    # as the readers above do, since they build the same records
    kind = SCALAR_KINDS.get({f.name: f.type for f in dataclasses.fields(record)}[key])
    for value in HOSTILE:
        try:
            built = record(**{**RECORDS[record], key: value})
        except ValueError as exc:  # InvariantError is one
            assert re.match(f"(job )?{key} must |.* is not a valid VmFamily$", str(exc)), (value, exc)
            continue
        # a composite field holds no hostile value but None, its default
        assert kind is not None or value is None, value
        meant = record(**RECORDS[record]) if value is None else record(**{**RECORDS[record], key: kind(value)})
        assert built == meant and type(getattr(built, key)) is type(getattr(meant, key)), value


@pytest.mark.parametrize(
    "key, value",
    [
        ("phases", 5),
        ("phases", [(60, 1.0, 1.0)]),
        ("requirement", 5),
        ("requirement", (1.0, 1.0)),
        ("reference_capacity", 5),
        ("reference_capacity", (8.0,)),
    ],
)
def test_a_job_spec_names_a_composite_field_of_another_shape(key, value):
    # each was a raw TypeError, or (requirement) a job that failed later
    with pytest.raises(InvariantError, match=f"^{key} must be "):
        JobSpec(**{**RECORDS[JobSpec], key: value})


def test_simulate_balanced_with_nan_scores_is_a_located_error(workspace):
    # every market at 1e200 under a max_price above it: every window's
    # squares overflow, so every balanced score is NaN, and its select at
    # t=0 fails with a located error, where it was min()'s raw ValueError
    traces = workspace / "traces"
    traces.mkdir()
    for vm, *_ in MARKET_ROWS:
        write_trace_jsonl(PriceTrace(vm, [PricePoint(0, 1e200)]), traces / f"{vm}.jsonl")
    (workspace / "job.json").write_text(json.dumps({**JOB_JSON, "max_price": 1e300}))
    out = workspace / "report.json"
    with np.errstate(all="ignore"), logged_errors() as messages:
        code = run(simulate_argv(workspace, traces, "--policy", "balanced", "--out", out))
    assert code == 1
    assert messages == [
        "selection failed at t=0 for task 0: no highest score among "
        "['c4.2xlarge', 'm4.2xlarge', 'r4.xlarge']: a score is NaN"
    ]
    assert not out.exists()
