"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

FAST_RUN = ["--periods", "2", "--period-seconds", "20",
            "--control-interval", "10"]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_command_prints_tables(capsys):
    code = main(["run", "--controller", "none"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "Per-period goal metrics" in out
    assert "Attainment" in out
    assert "class3" in out


def test_run_qs_prints_plan_table(capsys):
    code = main(["run", "--controller", "qs"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "Class cost limits" in out
    assert "Query Scheduler" in out
    # Telemetry summaries (wall-clock overhead included) need --telemetry.
    assert "One-step prediction error" not in out
    assert "Controller overhead" not in out


def test_run_rejects_unknown_controller():
    with pytest.raises(SystemExit):
        main(["run", "--controller", "chaos"])


def test_trace_command_stdout_jsonl(tmp_path, capsys):
    """`run --telemetry` writes one JSONL record per control interval."""
    import json

    path = str(tmp_path / "telemetry.jsonl")
    code = main(["run", "--telemetry", path] + FAST_RUN)
    capsys.readouterr()
    assert code == 0
    with open(path) as handle:
        lines = [line for line in handle if line.strip()]
    assert lines, "run --telemetry produced no JSONL records"
    for line in lines:
        record = json.loads(line)
        assert {"time", "interval_index", "trigger", "solver",
                "dispatcher"} <= set(record)


def test_trace_command_writes_file(tmp_path, capsys):
    """`run --telemetry` reports the file and prints the trace summaries."""
    import json

    path = str(tmp_path / "telemetry.jsonl")
    code = main(["run", "--telemetry", path] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote {} (".format(path) in out
    assert "One-step prediction error" in out
    assert "Dispatcher balance" in out
    with open(path) as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    assert rows
    assert rows[0]["interval_index"] == 0


def test_trace_rejects_non_qs_controller(tmp_path, capsys):
    """A telemetry trace needs a controller that records one."""
    path = tmp_path / "telemetry.jsonl"
    code = main(
        ["run", "--controller", "none", "--telemetry", str(path)] + FAST_RUN
    )
    assert code == 2
    assert (
        "controller 'none' produces no telemetry (use qs or qs_detect)"
        in capsys.readouterr().err
    )
    assert not path.exists()


def test_check_command_clean_run(capsys):
    """`run --invariants strict` replaces `check`: a clean run exits 0."""
    code = main(["run", "--invariants", "strict"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "Invariants" in out
    assert "no violations" in out
    assert "mode=strict" in out


def test_check_command_list(capsys):
    """The run's invariant summary lists every registered invariant."""
    code = main(["run", "--invariants", "strict"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "dispatcher_in_flight_consistent" in out
    assert "oltp_slope_in_clamp_band" in out
    assert "CRITICAL" in out


def test_run_with_invariants_prints_summary(capsys):
    code = main(["run", "--controller", "qs", "--invariants", "strict"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "Invariants" in out
    assert "no violations" in out
    assert "0 violations" in out


def test_trace_embeds_violations_field(tmp_path, capsys):
    """The exported telemetry trace carries each interval's violations."""
    import json

    path = str(tmp_path / "telemetry.jsonl")
    code = main(
        ["run", "--invariants", "warn", "--telemetry", path] + FAST_RUN
    )
    assert code == 0
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    assert records
    assert all("violations" in record for record in records)
    assert all(record["violations"] == [] for record in records)


def test_run_warn_violation_exits_1(monkeypatch, capsys):
    import repro.cli as cli_module
    from repro.validation import Severity, Violation

    real_run_spec = cli_module.run_spec

    def run_spec(spec, hub=None):
        result = real_run_spec(spec, hub=hub)
        result.extras["validation"].violations.append(Violation(
            name="class_conservation", message="injected", severity=Severity.ERROR,
            time=0.0,
        ))
        return result

    monkeypatch.setattr(cli_module, "run_spec", run_spec)
    code = main(["run", "--invariants", "warn"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 1
    assert "class_conservation" in out
    assert "1 violations" in out
    assert "injected" in out


def test_run_periods_zero_is_a_clean_error(capsys):
    code = main(["run", "--periods", "0"])
    assert code == 2
    assert "run error: num_periods must be >= 1" in capsys.readouterr().err


def test_run_invariant_violation_exits_1_and_stops_dashboard(monkeypatch, capsys):
    import repro.cli as cli_module
    from repro.errors import InvariantViolation
    from repro.obs.live import LiveServer

    servers = []
    real_start = LiveServer.start

    def start(self):
        servers.append(self)
        return real_start(self)

    def run_spec(spec, hub=None):
        raise InvariantViolation("[CRITICAL] class_conservation at t=0.0: boom")

    monkeypatch.setattr(LiveServer, "start", start)
    monkeypatch.setattr(cli_module, "run_spec", run_spec)
    code = main(["run", "--dashboard", "--port", "0"] + FAST_RUN)
    err = capsys.readouterr().err
    assert code == 1
    assert "invariant violation: [CRITICAL] class_conservation" in err
    assert len(servers) == 1
    assert not servers[0].running


def test_calibrate_command(capsys):
    code = main([
        "calibrate", "--limits", "10000", "30000",
        "--clients", "8", "--period-seconds", "30",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "queries/sec" in out
    assert "suggested system cost limit" in out


def test_figure3_command(capsys):
    code = main(["figure", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Figure 3" in out
    assert out.count("\n") >= 20  # 18 period rows plus header


def test_figure4_command(capsys):
    code = main(["figure", "4"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "controller=none" in out


def test_figure_unknown_number(capsys):
    code = main(["figure", "12"] + FAST_RUN)
    assert code == 2
    assert "unknown figure" in capsys.readouterr().err


def test_seed_changes_results(capsys):
    main(["run", "--controller", "none", "--seed", "1"] + FAST_RUN)
    first = capsys.readouterr().out
    main(["run", "--controller", "none", "--seed", "1"] + FAST_RUN)
    second = capsys.readouterr().out
    assert first == second  # deterministic
    main(["run", "--controller", "none", "--seed", "2"] + FAST_RUN)
    third = capsys.readouterr().out
    assert third != first


def test_run_output_json(tmp_path, capsys):
    path = str(tmp_path / "out.json")
    code = main(["run", "--controller", "none", "--output", path] + FAST_RUN)
    assert code == 0
    import json
    with open(path) as handle:
        data = json.load(handle)
    assert data["controller"] == "none"
    assert "wrote" in capsys.readouterr().out


def test_run_output_csv(tmp_path, capsys):
    path = str(tmp_path / "out.csv")
    code = main(["run", "--controller", "none", "--output", path] + FAST_RUN)
    assert code == 0
    with open(path) as handle:
        assert handle.readline().startswith("period,")


def test_report_command(tmp_path, capsys, monkeypatch):
    """`repro report` writes a Markdown comparison (patched to a tiny
    config so the test stays fast)."""
    from repro.config import (
        MonitorConfig,
        PlannerConfig,
        WorkloadScaleConfig,
        default_config,
    )
    import repro.cli as cli_module
    import repro.experiments.reportgen as reportgen

    tiny = default_config(
        scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=1),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=10.0),
        planner=PlannerConfig(control_interval=10.0),
    )
    monkeypatch.setattr(reportgen, "quick_report_config", lambda: tiny)
    path = str(tmp_path / "report.md")
    code = main(["report", "--output", path])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    with open(path) as handle:
        text = handle.read()
    assert "Generated experiment report" in text


def test_replicate_command_serial(capsys):
    code = main([
        "replicate", "--controllers", "none", "--seeds", "1", "2",
    ] + FAST_RUN)
    captured = capsys.readouterr()
    assert code == 0
    assert "controller" in captured.out
    assert "none" in captured.out
    # Progress lines land on stderr, one per run.
    assert "[1/2]" in captured.err
    assert "[2/2]" in captured.err


def test_replicate_command_parallel_matches_serial(capsys):
    serial_code = main([
        "replicate", "--controllers", "none", "--seeds", "1", "2", "--quiet",
    ] + FAST_RUN)
    serial_out = capsys.readouterr().out
    parallel_code = main([
        "replicate", "--controllers", "none", "--seeds", "1", "2",
        "--jobs", "2", "--quiet",
    ] + FAST_RUN)
    parallel_out = capsys.readouterr().out
    assert serial_code == parallel_code == 0
    assert serial_out == parallel_out


def test_replicate_rejects_unknown_controller():
    with pytest.raises(SystemExit):
        main(["replicate", "--controllers", "chaos"] + FAST_RUN)


def test_sweep_command(capsys):
    code = main([
        "sweep", "optimizer.noise_sigma", "--values", "0.0", "0.2",
        "--controller", "none", "--jobs", "2", "--quiet",
    ] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "optimizer.noise_sigma" in out
    assert "class3" in out


def test_sweep_rejects_unknown_field(capsys):
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        main([
            "sweep", "planner.warp_speed", "--values", "1", "--quiet",
        ] + FAST_RUN)


def test_run_trace_events_writes_chrome_trace(tmp_path, capsys):
    import json

    path = str(tmp_path / "trace.json")
    code = main(["run", "--trace-events", path] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "balanced=True" in out
    with open(path) as handle:
        document = json.load(handle)
    events = document["traceEvents"]
    assert isinstance(events, list) and events
    assert any(event.get("ph") == "X" for event in events)


def test_run_trace_events_rejects_a_malformed_trace(tmp_path, monkeypatch, capsys):
    import repro.cli as cli_module

    real_run_spec = cli_module.run_spec

    def run_spec(spec, hub=None):
        result = real_run_spec(spec, hub=hub)
        result.extras["tracer"].validate = lambda: ["span 3 ends before it begins"]
        return result

    monkeypatch.setattr(cli_module, "run_spec", run_spec)
    code = main(["run", "--trace-events", str(tmp_path / "t.json")] + FAST_RUN)
    assert code == 1
    assert "problem: span 3 ends before it begins" in capsys.readouterr().err


def test_spans_command_fresh_run(tmp_path, capsys):
    """A fresh traced run is `run --trace-events` followed by `spans`."""
    path = str(tmp_path / "trace.json")
    assert main(["run", "--trace-events", path] + FAST_RUN) == 0
    assert "balanced=True" in capsys.readouterr().out
    code = main(["spans", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "Per-class phase breakdown" in out
    assert "queue_wait" in out
    assert "execute" in out
    assert "slowest queue waits" in out


def test_spans_command_from_saved_trace(tmp_path, capsys):
    path = str(tmp_path / "trace.json")
    main(["run", "--trace-events", path] + FAST_RUN)
    capsys.readouterr()
    code = main(["spans", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "loaded" in out
    assert "Per-class phase breakdown" in out


def test_spans_command_requires_an_input():
    with pytest.raises(SystemExit):
        main(["spans"])


def test_spans_command_writes_jsonl(tmp_path, capsys):
    import json

    trace = str(tmp_path / "trace.json")
    main(["run", "--trace-events", trace] + FAST_RUN)
    path = str(tmp_path / "spans.jsonl")
    code = main(["spans", trace, "--output", path])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    with open(path) as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    assert rows
    assert {"query_id", "class", "phase", "begin", "end"} <= set(rows[0])


def test_trace_summary_prints_controller_overhead(tmp_path, capsys):
    """The telemetry trace's summary includes the controller's own cost."""
    code = main(
        ["run", "--telemetry", str(tmp_path / "t.jsonl")] + FAST_RUN
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Controller overhead (wall-clock per control interval):" in out
    assert "total_s" in out
    assert "mean=" in out and "max=" in out


def test_run_sharded_smoke(capsys, tmp_path):
    import json

    path = str(tmp_path / "sharded.json")
    code = main(
        ["run", "--shards", "2", "--router", "least-loaded",
         "--invariants", "strict", "--jobs", "2", "--output", path] + FAST_RUN
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "sharded run" in out
    assert "2 shards" in out
    assert "global invariants: ok" in out
    payload = json.loads(open(path).read())
    assert payload["shards"] == 2
    assert payload["ok"] is True


def test_run_sharded_telemetry_writes_one_file_per_shard(tmp_path, capsys):
    import json

    path = str(tmp_path / "telemetry.jsonl")
    code = main(["run", "--shards", "2", "--telemetry", path] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    for index in range(2):
        shard_file = tmp_path / "telemetry.shard{:02d}.jsonl".format(index)
        assert "wrote {}".format(shard_file) in out
        rows = [json.loads(line) for line in shard_file.read_text().splitlines()]
        assert rows and rows[0]["interval_index"] == 0
    assert not (tmp_path / "telemetry.jsonl").exists()


def test_run_shards_one_uses_unsharded_path(capsys):
    code = main(["run", "--shards", "1", "--controller", "qs"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "sharded run" not in out


def test_run_router_without_shards_is_an_error(capsys):
    code = main(["run", "--router", "hash"] + FAST_RUN)
    err = capsys.readouterr().err
    assert code == 2
    assert "--shards" in err


def test_run_sharded_rejects_trace_events(capsys):
    code = main(
        ["run", "--shards", "2", "--trace-events", "x.jsonl"] + FAST_RUN
    )
    assert code == 2


def test_run_sharded_underprovisioned_limit_exits_2(capsys):
    # 16 shards x 3 classes x 1000-timeron floor exceeds the default
    # 30k global budget; must fail fast with a config error, not crash.
    code = main(["run", "--shards", "16"] + FAST_RUN)
    err = capsys.readouterr().err
    assert code == 2
    assert "cost limit" in err
