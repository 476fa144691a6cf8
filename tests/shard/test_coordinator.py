"""Tests for the sharded coordinator: both modes, determinism, invariants."""

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.errors import ConfigurationError
from repro.experiments.parallel import summarize_result
from repro.experiments.runner import ExperimentSpec, run_spec
from repro.faults import ScheduledFault
from repro.shard import ShardedExperimentSpec, coordinator, run_sharded
from repro.workloads.schedule import constant_schedule


def tiny_config():
    return default_config(
        scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=10.0),
        planner=PlannerConfig(control_interval=10.0),
    )


def tiny_base(controller="qs", invariants="strict"):
    return ExperimentSpec(
        controller=controller,
        config=tiny_config(),
        schedule=constant_schedule(20.0, 2, {"class1": 4, "class2": 4, "class3": 12}),
        invariants=invariants,
    )


def test_single_shard_matches_unsharded_run_bitwise():
    base = tiny_base()
    direct = run_spec(base)
    sharded = run_sharded(ShardedExperimentSpec(base=base, shards=1))
    assert len(sharded.summaries) == 1
    summary = sharded.summaries[0]
    assert summary.total_completions == direct.collector.total_completions
    assert summary.attainment == direct.goal_attainment()
    assert summary.performance_series == direct.performance_series()
    assert summary.class_completions == direct.collector.completions_by_class()


def test_static_mode_worker_count_never_changes_results():
    spec = ShardedExperimentSpec(base=tiny_base(), shards=2, router="hash")
    serial = run_sharded(spec, jobs=1)
    parallel = run_sharded(spec, jobs=2)
    for left, right in zip(serial.summaries, parallel.summaries):
        assert left.attainment == right.attainment
        assert left.total_completions == right.total_completions
        assert left.class_completions == right.class_completions
        assert left.performance_series == right.performance_series
    assert serial.report.attainment == parallel.report.attainment
    assert serial.final_cost_limits == parallel.final_cost_limits


def test_global_invariants_hold_on_clean_run():
    result = run_sharded(
        ShardedExperimentSpec(base=tiny_base(), shards=3, router="least-loaded")
    )
    assert result.ok
    assert result.report.ok
    assert result.report.violations == []
    assert sum(result.final_cost_limits) == tiny_config().system_cost_limit


def test_report_merges_all_shards():
    result = run_sharded(
        ShardedExperimentSpec(base=tiny_base(), shards=2, router="cost-aware")
    )
    assert result.report.shards == 2
    assert result.report.total_completions == sum(
        s.total_completions for s in result.summaries
    )
    assert len(result.report.per_shard) == 2
    assert result.report.per_shard[0].seed == 7
    assert result.report.per_shard[1].seed == 1007


def test_interval_rebalance_runs_and_conserves_budget():
    spec = ShardedExperimentSpec(
        base=tiny_base(), shards=2, router="cost-aware", rebalance="interval"
    )
    result = run_sharded(spec, jobs=1)
    assert result.ok
    assert sum(result.final_cost_limits) == pytest.approx(
        tiny_config().system_cost_limit
    )
    assert result.report.total_completions > 0


def _without_overhead(record):
    """A telemetry record as a dict, minus its wall-clock ``overhead``."""
    data = record.to_dict()
    data.pop("overhead", None)
    return data


def test_single_shard_lockstep_matches_unsharded_run():
    base = tiny_base()
    direct = summarize_result(run_spec(base))
    sharded = run_sharded(
        ShardedExperimentSpec(base=base, shards=1, rebalance="interval")
    )
    assert len(sharded.summaries) == 1
    summary = sharded.summaries[0]
    assert summary.total_completions == direct.total_completions
    assert summary.class_completions == direct.class_completions
    assert summary.attainment == direct.attainment
    assert summary.performance_series == direct.performance_series
    assert len(summary.telemetry_records) == len(direct.telemetry_records) > 0
    for left, right in zip(summary.telemetry_records, direct.telemetry_records):
        assert _without_overhead(left) == _without_overhead(right)


def test_interval_rebalance_supports_tracing_and_faults(monkeypatch):
    results = []

    def keep(result, label=None):
        results.append(result)
        return summarize_result(result, label=label)

    monkeypatch.setattr(coordinator, "summarize_result", keep)
    faults = (
        ScheduledFault(
            kind="arrival_burst", at=5.0, params={"class_name": "class1", "count": 2}
        ),
        ScheduledFault(kind="cancel_storm", at=15.0, params={"fraction": 0.5}),
    )
    base = tiny_base().with_overrides(tracing=True, faults=faults)
    result = run_sharded(
        ShardedExperimentSpec(base=base, shards=2, rebalance="interval"), jobs=1
    )
    assert result.ok
    assert len(results) == 2
    for shard_result in results:
        tracer = shard_result.extras["tracer"]
        assert tracer.spans
        assert tracer.balanced
        assert [entry["fault"] for entry in shard_result.extras["faults"].injected] == [
            "arrival_burst",
            "cancel_storm",
        ]


def test_interval_rebalance_requires_serial_execution():
    spec = ShardedExperimentSpec(
        base=tiny_base(), shards=2, rebalance="interval"
    )
    with pytest.raises(ConfigurationError, match="jobs=1"):
        run_sharded(spec, jobs=2)


def test_interval_rebalance_requires_query_scheduler():
    spec = ShardedExperimentSpec(
        base=tiny_base(controller="none", invariants="off"),
        shards=2,
        rebalance="interval",
    )
    with pytest.raises(ConfigurationError, match="Query Scheduler"):
        run_sharded(spec, jobs=1)


def test_interval_rebalance_is_deterministic():
    spec = ShardedExperimentSpec(
        base=tiny_base(), shards=2, rebalance="interval"
    )
    first = run_sharded(spec, jobs=1)
    second = run_sharded(spec, jobs=1)
    assert first.final_cost_limits == second.final_cost_limits
    for left, right in zip(first.summaries, second.summaries):
        assert left.attainment == right.attainment
        assert left.total_completions == right.total_completions


def test_sharded_sweep_smoke():
    """2 shards x 3 swept seeds through the parallel fan-out (jobs=2)."""
    from repro.experiments.parallel import RunRequest, run_requests

    spec = ShardedExperimentSpec(base=tiny_base(), shards=2)
    requests = []
    for seed in (1, 2, 3):
        for index, shard_spec in enumerate(spec.shard_specs()):
            requests.append(
                RunRequest(
                    controller=shard_spec.controller,
                    label="seed={}:shard{:02d}".format(seed, index),
                    spec=shard_spec.with_overrides(
                        config=shard_spec.config.with_updates(seed=seed + index * 1000)
                    ),
                )
            )
    labels = [r.request_label for r in requests]
    assert len(set(labels)) == len(labels)
    outcomes = run_requests(requests, jobs=2)
    assert [o.index for o in outcomes] == list(range(len(requests)))
    assert all(o.ok for o in outcomes)
