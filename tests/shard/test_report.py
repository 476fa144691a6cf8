"""Tests for cross-shard report merging and per-shard exports."""

import json

import pytest

from repro.errors import ExportError
from repro.experiments.parallel import RunSummary
from repro.metrics.telemetry import ControlIntervalRecord, SolverTelemetry
from repro.shard.report import (
    build_sharded_report,
    export_shard_telemetry,
    format_sharded_report,
    save_sharded_report,
    shard_path,
    sharded_report_to_dict,
)
from repro.sim.stats import Histogram


def make_summary(seed, attainment, completions, histogram=None, records=()):
    return RunSummary(
        controller="qs",
        seed=seed,
        class_names=tuple(attainment),
        attainment=dict(attainment),
        performance_series={name: [1.0] for name in attainment},
        total_completions=sum(completions.values()),
        label="shard{:02d}".format(seed % 100),
        telemetry_records=tuple(records),
        class_completions=dict(completions),
        response_histograms=(
            {name: histogram.to_dict() for name in attainment} if histogram else {}
        ),
    )


class TestShardPath:
    def test_inserts_suffix_before_extension(self):
        assert shard_path("out.jsonl", 3) == "out.shard03.jsonl"

    def test_appends_when_no_extension(self):
        assert shard_path("telemetry", 0) == "telemetry.shard00"

    def test_preserves_directories(self):
        assert shard_path("a/b/run.json", 11) == "a/b/run.shard11.json"


class TestBuildShardedReport:
    def test_attainment_is_completion_weighted(self):
        # The aggregation-bug regression at shard level: 1.0 over 10
        # completions and 0.0 over 990 must pool to 0.01, not 0.5.
        summaries = [
            make_summary(0, {"c": 1.0}, {"c": 10}),
            make_summary(1, {"c": 0.0}, {"c": 990}),
        ]
        report = build_sharded_report(summaries, 2, "hash", "static", [1.0, 1.0])
        assert report.attainment["c"] == pytest.approx(0.01)
        assert report.completions["c"] == 1000

    def test_percentiles_come_from_merged_histograms(self):
        low = Histogram(0.0, 10.0, bins=10)
        high = Histogram(0.0, 10.0, bins=10)
        for _ in range(95):
            low.add(1.0)
        for _ in range(5):
            high.add(9.5)
        summaries = [
            make_summary(0, {"c": 1.0}, {"c": 95}, histogram=low),
            make_summary(1, {"c": 1.0}, {"c": 5}, histogram=high),
        ]
        report = build_sharded_report(summaries, 2, "hash", "static", [1.0, 1.0])
        tails = report.percentiles["c"]
        assert tails["p50"] < 2.0
        assert tails["p99"] > 5.0

    def test_idle_class_has_no_percentiles(self):
        report = build_sharded_report(
            [make_summary(0, {"c": 0.0}, {"c": 0})], 1, "hash", "static", [1.0]
        )
        assert "c" not in report.percentiles

    def test_format_includes_shard_rows(self):
        summaries = [
            make_summary(0, {"c": 1.0}, {"c": 5}),
            make_summary(1, {"c": 1.0}, {"c": 7}),
        ]
        report = build_sharded_report(
            summaries, 2, "cost-aware", "static", [100.0, 200.0]
        )
        text = format_sharded_report(report)
        assert "2 shards" in text
        assert "cost-aware" in text
        assert "shard00" in text and "shard01" in text
        assert "global invariants: ok" in text


class TestSaveShardedReport:
    def test_writes_json(self, tmp_path):
        report = build_sharded_report(
            [make_summary(0, {"c": 1.0}, {"c": 5})], 1, "hash", "static", [1.0]
        )
        target = tmp_path / "report.json"
        save_sharded_report(report, str(target))
        payload = json.loads(target.read_text())
        assert payload["ok"] is True
        assert payload["attainment"]["c"] == 1.0
        assert payload == sharded_report_to_dict(report)

    def test_refuses_to_overwrite(self, tmp_path):
        report = build_sharded_report(
            [make_summary(0, {"c": 1.0}, {"c": 5})], 1, "hash", "static", [1.0]
        )
        target = tmp_path / "report.json"
        target.write_text("precious")
        with pytest.raises(ExportError, match="overwrite"):
            save_sharded_report(report, str(target))
        assert target.read_text() == "precious"
        save_sharded_report(report, str(target), overwrite=True)
        assert target.read_text() != "precious"


class TestExportShardTelemetry:
    def record(self):
        return ControlIntervalRecord(
            time=1.0,
            interval_index=0,
            trigger="scheduled",
            measurements={},
            predictions={},
            solver=SolverTelemetry(
                allocation={},
                objective=None,
                evaluations=0,
                solve_calls=1,
            ),
            dispatcher={},
        )

    def test_writes_suffixed_paths(self, tmp_path):
        summaries = [
            make_summary(0, {"c": 1.0}, {"c": 1}, records=[self.record()]),
            make_summary(1, {"c": 1.0}, {"c": 1}, records=[self.record()]),
        ]
        base = tmp_path / "telemetry.jsonl"
        written = export_shard_telemetry(summaries, str(base))
        assert written == [
            str(tmp_path / "telemetry.shard00.jsonl"),
            str(tmp_path / "telemetry.shard01.jsonl"),
        ]
        for path in written:
            assert json.loads(open(path).readline())["time"] == 1.0

    def test_skips_shards_without_telemetry(self, tmp_path):
        summaries = [
            make_summary(0, {"c": 1.0}, {"c": 1}),
            make_summary(1, {"c": 1.0}, {"c": 1}, records=[self.record()]),
        ]
        written = export_shard_telemetry(summaries, str(tmp_path / "t.jsonl"))
        assert written == [str(tmp_path / "t.shard01.jsonl")]

    def test_refuses_to_overwrite_existing_shard_file(self, tmp_path):
        summaries = [
            make_summary(0, {"c": 1.0}, {"c": 1}, records=[self.record()]),
        ]
        target = tmp_path / "t.shard00.jsonl"
        target.write_text("precious")
        with pytest.raises(ExportError, match="overwrite"):
            export_shard_telemetry(summaries, str(tmp_path / "t.jsonl"))
        assert target.read_text() == "precious"
