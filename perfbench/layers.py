"""Which public entry points belong to which layer, and the probes.

:func:`install_spans` wraps every layer's entry points in spans of a
:class:`~tracing.LayerTracer` (the traced run only).  :class:`Probes`
are the few always-on hooks the end-to-end metrics need: the CPU time of
each control interval, the instant the first event runs, and the bundles
and controllers a run assembles (read after the run for counts).  Each
probe runs a handful of times per control interval or per run, never per
query.
"""

from __future__ import annotations

from time import process_time, thread_time
from typing import Callable, List, Optional

from tracing import LayerTracer, Patcher


def _wrap_all(patcher: Patcher, tracer: LayerTracer, layer: str, owner, *names: str) -> None:
    for name in names:
        patcher.replace(owner, name, lambda fn: tracer.span(layer, fn))


class Probes:
    """Always-on hooks: interval CPU times, first event, built objects.

    ``interval_s`` holds the loop thread's CPU seconds per control
    interval; ``first_run_at`` is the process CPU clock when the first
    event ran.
    """

    def __init__(self) -> None:
        self.interval_s: List[float] = []
        self.first_run_at: Optional[float] = None
        self.bundles: List[object] = []
        self.controllers: List[object] = []

    def reset(self) -> None:
        # Cleared in place: the installed wrappers hold these lists.
        self.interval_s.clear()
        self.first_run_at = None
        self.bundles.clear()
        self.controllers.clear()

    def install(self, patcher: Patcher) -> None:
        from repro.core.planner import SchedulingPlanner
        from repro.experiments import runner
        from repro.shard import coordinator

        def time_interval(fn: Callable) -> Callable:
            def run_interval(planner, *args, **kwargs):
                start = thread_time()
                try:
                    return fn(planner, *args, **kwargs)
                finally:
                    self.interval_s.append(thread_time() - start)

            return run_interval

        def mark_first_run(fn: Callable) -> Callable:
            def run(bundle, *args, **kwargs):
                if self.first_run_at is None:
                    self.first_run_at = process_time()
                return fn(bundle, *args, **kwargs)

            return run

        def keep(store: List[object]) -> Callable[[Callable], Callable]:
            def make(fn: Callable) -> Callable:
                def built(*args, **kwargs):
                    value = fn(*args, **kwargs)
                    store.append(value)
                    return value

                return built

            return make

        patcher.replace(SchedulingPlanner, "run_interval", time_interval)
        patcher.replace(runner.SimulationBundle, "run", mark_first_run)
        # The coordinator imported these by name, so patch both namespaces.
        for module in (runner, coordinator):
            patcher.replace(module, "build_bundle", keep(self.bundles))
            patcher.replace(module, "make_controller", keep(self.controllers))


class LayerStats:
    """Counts the traced run gathers beside the spans."""

    def __init__(self) -> None:
        self.held_s: List[float] = []
        self.lateness_s: List[float] = []
        self.rebalances = 0


def install_spans(tracer: LayerTracer, patcher: Patcher, stats: LayerStats) -> None:
    """Wrap every layer's public entry points in spans."""
    from repro.core.dispatcher import Dispatcher
    from repro.core.monitor import Monitor
    from repro.core.planner import SchedulingPlanner
    from repro.core.solver import PerformanceSolver
    from repro.dbms.engine import DatabaseEngine
    from repro.experiments import runner
    from repro.metrics.collector import MetricsCollector
    from repro.metrics.telemetry import ControllerTelemetry
    from repro.obs.live.hub import TelemetryHub
    from repro.obs.live.publish import RunPublisher
    from repro.obs.registry import MetricsRegistry
    from repro.patroller.patroller import QueryPatroller
    from repro.runtime.realtime import RealTimeTimerService
    from repro.runtime.sqlite_engine import SQLiteEngine
    from repro.scenarios import loader
    from repro.scenarios import spec as scenario_spec
    from repro.shard import coordinator
    from repro.sim.engine import Simulator
    from repro.sim.resources import ProcessorSharingResource, PSJob
    from repro.validation import harness
    from repro.workloads.spec import QueryFactory

    enter = tracer.enter
    exit_ = tracer.exit
    attributed = tracer.attributed

    # sim.engine: the loop, and scheduling with each callback attributed
    # to the layer that owns it.
    _wrap_all(patcher, tracer, "sim.engine", Simulator, "run_until")

    def sim_schedule(fn: Callable) -> Callable:
        def schedule(self, when, callback, *args, **kwargs):
            if not enter("sim.engine"):
                return fn(self, when, attributed(callback), *args, **kwargs)
            try:
                return fn(self, when, attributed(callback), *args, **kwargs)
            finally:
                exit_()

        return schedule

    patcher.replace(Simulator, "schedule", sim_schedule)
    patcher.replace(Simulator, "schedule_at", sim_schedule)

    # sim.resources
    _wrap_all(patcher, tracer, "sim.resources", ProcessorSharingResource, "submit", "cancel")

    # dbms: engine entry points and each PS job's completion callback.
    _wrap_all(patcher, tracer, "dbms", DatabaseEngine, "execute", "admit_released")

    def job_init(fn: Callable) -> Callable:
        def __init__(self, name, demand, on_complete=None):
            if on_complete is not None:
                on_complete = tracer.span("dbms", on_complete)
            fn(self, name, demand, on_complete)

        return __init__

    patcher.replace(PSJob, "__init__", job_init)

    _wrap_all(patcher, tracer, "workloads", QueryFactory, "create")
    _wrap_all(patcher, tracer, "metrics", MetricsCollector, "on_completion", "on_plan")

    # patroller, with the time each released query was held.
    _wrap_all(patcher, tracer, "patroller", QueryPatroller, "submit", "cancel")

    def release(fn: Callable) -> Callable:
        traced = tracer.span("patroller", fn)

        def release(self, query):
            traced(self, query)
            if query.intercept_time is not None and query.release_time is not None:
                stats.held_s.append(query.release_time - query.intercept_time)

        return release

    patcher.replace(QueryPatroller, "release", release)

    # core
    _wrap_all(patcher, tracer, "core.monitor", Monitor, "measure_all")
    _wrap_all(patcher, tracer, "core.solver", PerformanceSolver, "solve")
    _wrap_all(patcher, tracer, "core.dispatcher", Dispatcher, "install_plan", "enqueue")
    _wrap_all(patcher, tracer, "core.planner", SchedulingPlanner, "run_interval")

    # obs
    _wrap_all(patcher, tracer, "obs", ControllerTelemetry, "record_interval")
    _wrap_all(patcher, tracer, "obs", RunPublisher, "on_plan", "publish_start", "publish_end")
    _wrap_all(patcher, tracer, "obs", TelemetryHub, "publish")
    _wrap_all(patcher, tracer, "obs", MetricsRegistry, "sample")

    # validation
    _wrap_all(patcher, tracer, "validation", harness.ValidationHarness, "check")

    # shard: the coordinator itself, its limit split and solver retarget.
    _wrap_all(patcher, tracer, "shard", coordinator, "run_sharded")

    def split(fn: Callable) -> Callable:
        traced = tracer.span("shard", fn)

        def split_cost_limit(*args, **kwargs):
            stats.rebalances += 1
            return traced(*args, **kwargs)

        return split_cost_limit

    patcher.replace(coordinator, "split_cost_limit", split)
    _wrap_all(patcher, tracer, "shard", PerformanceSolver, "set_system_cost_limit")

    # runtime: the real-time loop, its timers (with lateness), SQLite.
    _wrap_all(patcher, tracer, "runtime.timers", RealTimeTimerService, "run_until")

    def rt_schedule(absolute: bool) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            def schedule(self, when, callback, *args, **kwargs):
                due = when if absolute else self.clock.now + when
                inner = attributed(callback)

                def fire():
                    stats.lateness_s.append(self.clock.now - due)
                    return inner()

                if not enter("runtime.timers"):
                    return fn(self, when, fire, *args, **kwargs)
                try:
                    return fn(self, when, fire, *args, **kwargs)
                finally:
                    exit_()

            return schedule

        return make

    patcher.replace(RealTimeTimerService, "schedule", rt_schedule(False))
    patcher.replace(RealTimeTimerService, "schedule_at", rt_schedule(True))
    _wrap_all(patcher, tracer, "runtime.sql", SQLiteEngine, "execute", "admit_released")

    # setup: scenario load/compile and run assembly.
    _wrap_all(patcher, tracer, "setup", loader, "load_scenario")
    _wrap_all(
        patcher, tracer, "setup", scenario_spec,
        "to_experiment_spec", "to_sharded_experiment_spec",
    )
    for module in (runner, coordinator):
        _wrap_all(patcher, tracer, "setup", module, "build_bundle", "make_controller", "attach_harness")
    _wrap_all(patcher, tracer, "setup", runner, "run_spec")
