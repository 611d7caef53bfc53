import json
import math
from pathlib import Path

import pytest

from spotindex import (
    BalancedPolicy,
    JobSpec,
    MigrationModel,
    RunParams,
    SpotIndexError,
    SynthMarketSpec,
    generate_market_suite,
    load_catalog,
    load_trace_dir,
    normalize_report,
    on_demand_baseline,
    run_simulation,
    write_trace_jsonl,
)
from spotindex.cli import main
from spotindex.synth import DEFAULT_SEED

from conftest import MARKET_ROWS

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
        ({**JOB_JSON, "phases": [[600, float("nan"), 16.0]]}, "phase cpu"),
        ({**JOB_JSON, "tasks": "x"}, "tasks"),
        # would build one task per task, until memory ran out
        ({**JOB_JSON, "tasks": 1e300}, "tasks"),
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
    # a bad value is located by the file and its market, the last entry
    if not message.startswith("market "):
        message = f"market spec {spec_path}: market {len(spec) - 1}: {message}"
    assert message in caplog.messages
    assert not out.exists()


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


@pytest.mark.parametrize(
    "document, key",
    [(name, key) for name, (valid, _) in DOCUMENTS.items() for key in [*valid(Path()), None]],
)
def test_malformed_input_is_a_domain_or_usage_error(inputs, tmp_path, monkeypatch, document, key):
    # key None replaces the whole document
    valid, argv = DOCUMENTS[document]
    monkeypatch.chdir(tmp_path)
    escaped = []
    for value in JSON_VALUES:
        doc = value if key is None else {**valid(inputs), key: value}
        try:
            outcome = run(argv(inputs, doc))
        except SystemExit as exc:
            outcome = "usage" if exc.code == 2 else exc
        except Exception as exc:
            outcome = exc
        if outcome not in (0, 1, "usage"):
            escaped.append((value, outcome))
    assert not escaped


@pytest.mark.parametrize("key", [*FULL_JOB, None])
def test_job_from_dict_raises_only_domain_errors(key):
    for value in JSON_VALUES:
        try:
            JobSpec.from_dict(value if key is None else {**FULL_JOB, key: value})
        except (ValueError, SpotIndexError):
            pass
