"""Tests for the controller telemetry subsystem."""

import json
import math

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.experiments.runner import run_experiment
from repro.metrics.report import format_prediction_summary
from repro.metrics.telemetry import (
    ControlIntervalRecord,
    DispatcherClassTelemetry,
    MeasurementTelemetry,
    PredictionTelemetry,
    SolverTelemetry,
    TelemetryStore,
)


def _record(time=0.0, index=0, trigger="scheduled", predictions=None):
    return ControlIntervalRecord(
        time=time,
        interval_index=index,
        trigger=trigger,
        measurements={
            "class1": MeasurementTelemetry(
                metric="velocity", value=0.4, sample_count=3, staleness=0.0
            )
        },
        predictions=predictions
        or {
            "class1": PredictionTelemetry(predicted=0.5, realized=0.4, error=-0.1)
        },
        solver=SolverTelemetry(
            allocation={"class1": 10_000.0},
            objective=1.5,
            evaluations=42,
            solve_calls=index + 1,
        ),
        dispatcher={
            "class1": DispatcherClassTelemetry(
                queue_length=2,
                in_flight_cost=900.0,
                in_flight_count=1,
                released_total=5,
                completed_total=3,
                cancelled_total=1,
                released_this_interval=2,
            )
        },
    )


class TestTelemetryStore:
    def test_append_len_last(self):
        store = TelemetryStore()
        assert len(store) == 0
        assert store.last is None
        store.append(_record(time=10.0))
        store.append(_record(time=20.0, index=1))
        assert len(store) == 2
        assert store.last.time == 20.0
        assert [r.interval_index for r in store] == [0, 1]

    def test_between(self):
        store = TelemetryStore()
        for index, time in enumerate([10.0, 20.0, 30.0]):
            store.append(_record(time=time, index=index))
        assert [r.time for r in store.between(15.0, 30.0)] == [20.0, 30.0]

    def test_allocation_series(self):
        store = TelemetryStore()
        store.append(_record())
        store.append(_record(index=1))
        assert store.allocation_series("class1") == [10_000.0, 10_000.0]
        assert store.allocation_series("unknown") == []

    def test_jsonl_roundtrip(self, tmp_path):
        store = TelemetryStore()
        store.append(_record(time=10.0))
        store.append(_record(time=20.0, index=1, trigger="early"))
        path = str(tmp_path / "trace.jsonl")
        store.save_jsonl(path)
        rows = TelemetryStore.load_jsonl(path)
        assert len(rows) == 2
        assert rows[0]["time"] == 10.0
        assert rows[1]["trigger"] == "early"
        assert rows[0]["solver"]["allocation"]["class1"] == 10_000.0
        assert rows[0]["dispatcher"]["class1"]["released_total"] == 5

    def test_to_dict_sanitises_non_finite(self):
        record = _record(
            predictions={
                "class1": PredictionTelemetry(
                    predicted=float("nan"),
                    realized=float("inf"),
                    error=None,
                )
            }
        )
        payload = json.loads(json.dumps(record.to_dict()))
        assert payload["predictions"]["class1"]["predicted"] is None
        assert payload["predictions"]["class1"]["realized"] is None
        assert payload["predictions"]["class1"]["error"] is None

    def test_prediction_error_summary(self):
        store = TelemetryStore()
        store.append(_record())
        store.append(
            _record(
                index=1,
                predictions={
                    "class1": PredictionTelemetry(
                        predicted=0.5, realized=0.6, error=0.3
                    )
                },
            )
        )
        summary = store.prediction_error_summary()["class1"]
        assert summary.count == 2
        assert summary.mean_abs_error == pytest.approx(0.2)
        assert summary.mean_error == pytest.approx(0.1)
        assert summary.to_dict()["count"] == 2

    def test_prediction_errors_skips_none(self):
        store = TelemetryStore()
        store.append(
            _record(
                predictions={
                    "class1": PredictionTelemetry(
                        predicted=0.5, realized=None, error=None
                    )
                }
            )
        )
        store.append(_record(index=1))
        assert store.prediction_errors("class1") == [-0.1]

    def test_dispatcher_balance(self):
        store = TelemetryStore()
        assert store.dispatcher_balance() == {}
        store.append(_record())
        balance = store.dispatcher_balance()["class1"]
        assert balance == {
            "released": 5,
            "completed": 3,
            "cancelled": 1,
            "in_flight": 1,
            "queue_cancelled": 0,
        }


def test_format_prediction_summary():
    store = TelemetryStore()
    store.append(_record())
    text = format_prediction_summary(
        store.prediction_error_summary(), title="Prediction error"
    )
    assert "Prediction error" in text
    assert "class1" in text
    assert "mean_|err|" in text


def test_format_prediction_summary_empty():
    assert "(no prediction telemetry)" in format_prediction_summary({})


@pytest.fixture(scope="module")
def qs_run():
    config = default_config(
        scale=WorkloadScaleConfig(period_seconds=30.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=15.0),
        planner=PlannerConfig(control_interval=10.0),
    )
    return run_experiment(controller="qs", config=config)


class TestLiveTelemetry:
    def test_exactly_one_record_per_control_interval(self, qs_run):
        scheduler = qs_run.bundle.controller
        store = qs_run.extras["telemetry"]
        assert len(store) == scheduler.planner.intervals_run
        assert len(store) == len(scheduler.planner.history)
        assert [r.interval_index for r in store] == list(range(len(store)))
        assert all(r.trigger == "scheduled" for r in store)

    def test_records_cover_all_classes(self, qs_run):
        store = qs_run.extras["telemetry"]
        names = {c.name for c in qs_run.classes}
        for record in store:
            assert set(record.dispatcher) == names
            assert set(record.solver.allocation) == names

    def test_allocation_matches_plan_history(self, qs_run):
        scheduler = qs_run.bundle.controller
        store = qs_run.extras["telemetry"]
        for record, plan_record in zip(store, scheduler.planner.history):
            assert record.solver.allocation == plan_record.plan.as_dict()
            assert record.time == plan_record.time

    def test_dispatcher_balance_invariant_every_interval(self, qs_run):
        """released == completed + cancelled + in-flight at every snapshot."""
        store = qs_run.extras["telemetry"]
        for record in store:
            for name, snapshot in record.dispatcher.items():
                assert snapshot.released_total == (
                    snapshot.completed_total
                    + snapshot.cancelled_total
                    + snapshot.in_flight_count
                ), name

    def test_solver_state_recorded(self, qs_run):
        store = qs_run.extras["telemetry"]
        last = store.last
        assert last.solver.evaluations > 0
        assert last.solver.solve_calls == len(store)
        assert last.solver.objective is not None
        assert last.solver.model.get("slope") < 0

    def test_predictions_and_errors_populated(self, qs_run):
        store = qs_run.extras["telemetry"]
        errors = [
            p.error
            for record in store.records[1:]
            for p in record.predictions.values()
            if p.error is not None
        ]
        assert errors, "no prediction errors recorded across intervals"
        assert all(math.isfinite(e) for e in errors)

    def test_export_includes_telemetry_block(self, qs_run):
        from repro.metrics.export import result_to_dict

        payload = result_to_dict(qs_run)
        assert payload["telemetry"]["intervals"] == len(
            qs_run.extras["telemetry"]
        )
        assert "dispatcher_balance" in payload["telemetry"]
        json.dumps(payload)  # JSON-serialisable end to end

    def test_jsonl_export_of_live_run(self, qs_run, tmp_path):
        store = qs_run.extras["telemetry"]
        path = str(tmp_path / "live.jsonl")
        store.save_jsonl(path)
        rows = TelemetryStore.load_jsonl(path)
        assert len(rows) == len(store)
        for row in rows:
            assert {"time", "interval_index", "trigger", "measurements",
                    "predictions", "solver", "dispatcher"} <= set(row)


def test_deficit_allocator_yields_records_without_model_data():
    config = default_config(
        scale=WorkloadScaleConfig(period_seconds=30.0, num_periods=1),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=15.0),
        planner=PlannerConfig(control_interval=10.0, allocator="deficit"),
    )
    result = run_experiment(controller="qs", config=config)
    store = result.extras["telemetry"]
    assert len(store) > 0
    for record in store:
        assert record.predictions == {} or all(
            p.predicted is None for p in record.predictions.values()
        )
        assert record.solver.objective is None
        assert record.solver.model.get("slope") is None


class TestOverheadTelemetry:
    def test_record_carries_overhead_dict(self):
        record = _record()
        assert record.overhead == {}
        payload = record.to_dict()
        assert payload["overhead"] == {}

    def test_to_dict_sanitises_overhead_values(self):
        record = _record()
        record.overhead.update({"solver_s": float("nan"), "total_s": 1.5})
        payload = json.loads(json.dumps(record.to_dict()))
        assert payload["overhead"]["solver_s"] is None
        assert payload["overhead"]["total_s"] == 1.5

    def test_overhead_summary_aggregates_records(self):
        store = TelemetryStore()
        first = _record()
        first.overhead.update({"solver_s": 1.0, "total_s": 2.0})
        second = _record(index=1)
        second.overhead.update({"solver_s": 3.0, "total_s": 4.0})
        store.append(first)
        store.append(second)
        summary = store.overhead_summary()
        assert summary["solver_s"]["mean_s"] == pytest.approx(2.0)
        assert summary["solver_s"]["max_s"] == pytest.approx(3.0)
        assert summary["total_s"]["count"] == 2

    def test_live_run_records_wall_clock_overhead(self, qs_run):
        store = qs_run.extras["telemetry"]
        assert len(store) > 0
        for record in store:
            for key in ("monitor_s", "solver_s", "dispatcher_s", "total_s"):
                assert key in record.overhead
                assert record.overhead[key] >= 0.0
            assert record.overhead["total_s"] >= record.overhead["solver_s"]
            assert "overhead" in record.to_dict()
        summary = store.overhead_summary()
        assert summary["total_s"]["count"] == len(store)


class TestSaveJsonlOverwriteGuard:
    def test_refuses_existing_file_by_default(self, tmp_path):
        from repro.errors import ExportError

        store = TelemetryStore()
        store.append(_record(time=10.0))
        path = tmp_path / "trace.jsonl"
        path.write_text("precious\n")
        with pytest.raises(ExportError, match="overwrite"):
            store.save_jsonl(str(path))
        assert path.read_text() == "precious\n"

    def test_overwrite_flag_replaces_file(self, tmp_path):
        store = TelemetryStore()
        store.append(_record(time=10.0))
        path = tmp_path / "trace.jsonl"
        path.write_text("precious\n")
        store.save_jsonl(str(path), overwrite=True)
        rows = TelemetryStore.load_jsonl(str(path))
        assert len(rows) == 1 and rows[0]["time"] == 10.0
