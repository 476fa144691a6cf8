"""Tests for the unified instrument registry."""

import pytest

from repro.errors import MetricsError, ReproError
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    HistogramInstrument,
    MetricsRegistry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounters:
    def test_inc_accumulates(self, registry):
        counter = registry.counter("releases_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_negative_inc_rejected(self, registry):
        counter = registry.counter("releases_total")
        with pytest.raises(MetricsError):
            counter.inc(-1.0)

    def test_get_or_create_returns_same_instrument(self, registry):
        first = registry.counter("releases_total", labels={"class": "class1"})
        second = registry.counter("releases_total", labels={"class": "class1"})
        assert first is second
        other = registry.counter("releases_total", labels={"class": "class2"})
        assert other is not first

    def test_callback_counter_reads_live_state(self, registry):
        state = {"n": 0}
        counter = registry.counter("live_total", callback=lambda: state["n"])
        state["n"] = 7
        assert counter.value == 7.0

    def test_callback_counter_cannot_be_mutated(self, registry):
        counter = registry.counter("live_total", callback=lambda: 1.0)
        with pytest.raises(MetricsError):
            counter.inc()


class TestGauges:
    def test_set_and_inc(self, registry):
        gauge = registry.gauge("queue_length")
        gauge.set(4.0)
        gauge.inc(-1.5)
        assert gauge.value == pytest.approx(2.5)

    def test_callback_gauge_cannot_be_set(self, registry):
        gauge = registry.gauge("queue_length", callback=lambda: 3.0)
        assert gauge.value == 3.0
        with pytest.raises(MetricsError):
            gauge.set(1.0)

    def test_non_finite_values_become_nan(self, registry):
        import math

        gauge = registry.gauge("score")
        gauge.set(float("inf"))
        assert math.isnan(gauge.value)


class TestHistograms:
    def test_observe_counts_buckets(self, registry):
        histogram = registry.histogram("wait", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 2.0, 7.0, 70.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(79.5)
        assert histogram.mean == pytest.approx(19.875)
        assert histogram.cumulative_counts() == [1, 2, 3]
        assert histogram.value == 4.0  # samples as its count

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_unsorted_buckets_rejected(self, registry):
        with pytest.raises(MetricsError):
            registry.histogram("wait", buckets=(5.0, 1.0))


class TestRegistry:
    def test_kind_clash_is_an_error(self, registry):
        registry.counter("thing_total")
        with pytest.raises(MetricsError) as err:
            registry.gauge("thing_total")
        assert "already registered" in str(err.value)

    def test_bad_name_rejected(self, registry):
        with pytest.raises(MetricsError):
            registry.counter("bad name!")
        with pytest.raises(MetricsError):
            registry.counter("")

    def test_get_unknown_name_lists_registered(self, registry):
        registry.counter("alpha_total")
        registry.gauge("beta")
        with pytest.raises(MetricsError) as err:
            registry.get("gamma")
        message = str(err.value)
        assert "gamma" in message
        assert "alpha_total" in message and "beta" in message

    def test_get_unknown_labels_lists_members(self, registry):
        registry.counter("alpha_total", labels={"class": "class1"})
        with pytest.raises(MetricsError) as err:
            registry.get("alpha_total", {"class": "nope"})
        assert "class1" in str(err.value)

    def test_metrics_error_is_a_repro_error(self):
        assert issubclass(MetricsError, ReproError)

    def test_len_and_iter(self, registry):
        registry.counter("a_total", labels={"class": "class1"})
        registry.counter("a_total", labels={"class": "class2"})
        registry.gauge("b")
        assert len(registry) == 3
        assert registry.names == ["a_total", "b"]
        kinds = [instrument.kind for instrument in registry]
        assert kinds == ["counter", "counter", "gauge"]

    def test_instrument_types(self, registry):
        assert isinstance(registry.counter("c_total"), Counter)
        assert isinstance(registry.gauge("g"), Gauge)
        assert isinstance(registry.histogram("h"), HistogramInstrument)


class TestSampling:
    def test_sample_builds_series(self, registry):
        counter = registry.counter("done_total", labels={"class": "class1"})
        registry.sample(10.0)
        counter.inc(3)
        registry.sample(20.0)
        series = registry.series("done_total", {"class": "class1"})
        assert series == [(10.0, 0.0), (20.0, 3.0)]
        assert len(registry.samples) == 2

    def test_histogram_samples_count_and_sum(self, registry):
        histogram = registry.histogram("wait")
        histogram.observe(0.2)
        histogram.observe(0.4)
        values = registry.sample(5.0)
        assert values["wait_count"] == 2.0
        assert values["wait_sum"] == pytest.approx(0.6)
        assert registry.series("wait") == [(5.0, 2.0)]

    def test_series_on_unknown_name_raises(self, registry):
        with pytest.raises(MetricsError):
            registry.series("missing")

    def test_member_registered_after_sample_takes_its_sorted_place(self):
        # The sample order is cached; creating a member must invalidate
        # it, whether the member starts a family or joins one.
        def populate(registry, late):
            registry.counter("b_total", labels={"class": "class1"}).inc()
            registry.gauge("d").set(4.0)
            registry.histogram("e").observe(0.5)
            if late:
                registry.sample(0.0)
            registry.counter("a_total").inc(2)
            registry.counter("b_total", labels={"class": "class0"}).inc(3)
            registry.gauge("c", callback=lambda: 7.0)
            return registry.sample(1.0)

        late = populate(MetricsRegistry(), late=True)
        upfront = populate(MetricsRegistry(), late=False)
        assert list(late) == list(upfront) == [
            "a_total",
            'b_total{class="class0"}',
            'b_total{class="class1"}',
            "c",
            "d",
            "e_count",
            "e_sum",
        ]
        assert late == upfront

    def test_series_resolves_hostile_label_value(self, registry):
        hostile = 'say "hi"\\path\nnext'
        gauge = registry.gauge("template_load", labels={"template": hostile})
        gauge.set(1.0)
        registry.sample(0.0)
        gauge.set(2.0)
        registry.sample(1.0)
        assert registry.series("template_load", {"template": hostile}) == [
            (0.0, 1.0),
            (1.0, 2.0),
        ]


class TestPrometheusExport:
    def test_renders_types_labels_and_values(self, registry):
        counter = registry.counter(
            "released_total", description="queries released",
            labels={"class": "class1"},
        )
        counter.inc(5)
        registry.gauge("queue_length").set(2.0)
        text = registry.to_prometheus()
        assert "# HELP released_total queries released" in text
        assert "# TYPE released_total counter" in text
        assert 'released_total{class="class1"} 5.0' in text
        assert "# TYPE queue_length gauge" in text
        assert "queue_length 2.0" in text
        assert text.endswith("\n")

    def test_renders_histogram_buckets(self, registry):
        histogram = registry.histogram("wait", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(1.5)
        text = registry.to_prometheus()
        assert 'wait_bucket{le="1.0"} 1' in text
        assert 'wait_bucket{le="2.0"} 2' in text
        assert 'wait_bucket{le="+Inf"} 2' in text
        assert "wait_sum 2.0" in text
        assert "wait_count 2" in text

    def test_empty_registry_renders_empty(self, registry):
        assert registry.to_prometheus() == ""


class TestLiveWiring:
    """The assembled controller registers and samples real instruments."""

    @pytest.fixture(scope="class")
    def qs_result(self):
        from repro.config import (
            MonitorConfig,
            PlannerConfig,
            WorkloadScaleConfig,
            default_config,
        )
        from repro.experiments.runner import run_experiment

        config = default_config(
            scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=2),
            monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=10.0),
            planner=PlannerConfig(control_interval=10.0),
        )
        return run_experiment(controller="qs", config=config)

    def test_components_register_instruments(self, qs_result):
        registry = qs_result.extras["metrics_registry"]
        names = set(registry.names)
        assert {
            "dispatcher_enqueued_total",
            "dispatcher_released_total",
            "dispatcher_completed_total",
            "dispatcher_queue_length",
            "monitor_open_queries",
            "monitor_snapshots_total",
            "planner_intervals_total",
            "solver_solve_calls_total",
            "patroller_intercepted_total",
        } <= names

    def test_sampled_once_per_control_interval(self, qs_result):
        registry = qs_result.extras["metrics_registry"]
        store = qs_result.extras["telemetry"]
        assert len(registry.samples) == len(store)

    def test_registry_counters_match_dispatcher_accessors(self, qs_result):
        dispatcher = qs_result.bundle.controller.dispatcher
        registry = qs_result.extras["metrics_registry"]
        for service_class in qs_result.classes:
            if not service_class.directly_controlled:
                continue
            labels = {"class": service_class.name}
            released = registry.get("dispatcher_released_total", labels)
            assert released.value == dispatcher.released_count(service_class.name)
            completed = registry.get("dispatcher_completed_total", labels)
            assert completed.value == dispatcher.completed_count(service_class.name)

    def test_prometheus_snapshot_of_live_run(self, qs_result):
        registry = qs_result.extras["metrics_registry"]
        text = registry.to_prometheus()
        assert "# TYPE dispatcher_released_total counter" in text
        assert 'class="class1"' in text


class TestLabelEscaping:
    """Prometheus exposition escaping (satellite: hostile label values)."""

    def test_hostile_label_value_is_escaped(self, registry):
        hostile = 'he said "hi"\nback\\slash'
        registry.counter(
            "queries_total", labels={"template": hostile},
            description="Queries",
        ).inc()
        text = registry.to_prometheus()
        line = next(l for l in text.splitlines() if l.startswith("queries_total"))
        assert line == (
            'queries_total{template="he said \\"hi\\"\\nback\\\\slash"} 1.0'
        )
        # The rendered line must stay a single physical line.
        assert "\n" not in line

    def test_escaping_keeps_exposition_parseable(self, registry):
        registry.counter(
            "a_total", labels={"v": 'x"y'}, description="A"
        ).inc()
        registry.counter(
            "a_total", labels={"v": "plain"}, description="A"
        ).inc(2)
        lines = registry.to_prometheus().splitlines()
        # One HELP, one TYPE, two member lines — nothing smuggled in.
        assert sum(1 for l in lines if l.startswith("#")) == 2
        assert sum(1 for l in lines if l.startswith("a_total")) == 2

    def test_help_text_newlines_escaped(self, registry):
        registry.counter("b_total", description="line1\nline2").inc()
        text = registry.to_prometheus()
        assert "# HELP b_total line1\\nline2" in text

    def test_extra_labels_escaped_too(self, registry):
        registry.counter("c_total", description="C").inc()
        text = registry.to_prometheus(extra_labels={"shard": '0"evil'})
        assert 'c_total{shard="0\\"evil"} 1.0' in text


class TestSampleBounding:
    """Ring-buffer sampling memory bound (satellite: serve-mode runs)."""

    def test_unbounded_by_default(self, registry):
        registry.counter("n_total")
        for now in range(1000):
            registry.sample(float(now))
        assert len(registry.samples) == 1000
        assert registry.samples_dropped == 0
        assert registry.max_samples is None

    def test_bounded_registry_drops_oldest(self):
        registry = MetricsRegistry(max_samples=10)
        registry.counter("n_total")
        for now in range(25):
            registry.sample(float(now))
        assert len(registry.samples) == 10
        assert registry.samples_dropped == 15
        # Newest samples survive.
        assert registry.samples[0][0] == 15.0
        assert registry.samples[-1][0] == 24.0

    def test_series_reads_surviving_window(self):
        registry = MetricsRegistry(max_samples=5)
        counter = registry.counter("n_total")
        for now in range(8):
            counter.inc()
            registry.sample(float(now))
        series = registry.series("n_total")
        assert [point[0] for point in series] == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_shrinking_bound_trims_existing(self, registry):
        registry.counter("n_total")
        for now in range(20):
            registry.sample(float(now))
        registry.max_samples = 4
        assert len(registry.samples) == 4
        assert registry.samples_dropped == 16
        assert registry.samples[0][0] == 16.0

    def test_invalid_bound_rejected(self, registry):
        for bad in (0, -3, 2.5, True, "10"):
            with pytest.raises(MetricsError):
                registry.max_samples = bad
