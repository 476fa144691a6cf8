"""Publisher hooks: from the live control loop into a TelemetryHub.

A :class:`RunPublisher` is attached to one deployment (one shard, or the
single unsharded run) and bridges the existing observability instruments
onto the hub's wire protocol:

* the controller's plan listener → one ``interval`` event per control
  interval, carrying the full
  :class:`~repro.metrics.telemetry.ControlIntervalRecord` dict (the
  harness has already embedded any invariant violations by the time the
  publisher fires — it is registered *after* the validation harness)
  plus collector-derived per-class progress;
* the (optional) :class:`~repro.obs.QueryTracer` → a ``spans`` event per
  interval with the slowest spans that finished since the previous one;
* run completion → a ``run_end`` event with final attainment.

Everything here is read-only over the run's state: no RNG draws, no
timer scheduling, no mutation of any component — a run with publishers
attached is bit-identical to the same run without them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.obs.live.hub import TelemetryHub

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.planner import PlanRecord
    from repro.experiments.runner import ExperimentResult, SimulationBundle
    from repro.obs.tracer import QueryTracer

#: Registry sampling bound applied to serve-mode runs (satellite: long
#: wall-clock dashboard runs must not grow sampling memory unboundedly).
LIVE_MAX_SAMPLES = 4096

#: Slowest spans carried per ``spans`` event.
SPANS_PER_EVENT = 8


def run_start_data(bundle: "SimulationBundle", controller_name: str) -> Dict:
    """The ``snapshot`` event payload describing one deployment."""
    schedule = bundle.schedule
    return {
        "controller": controller_name,
        "backend": type(bundle.backend).__name__,
        "seed": bundle.config.seed,
        "system_cost_limit": bundle.config.system_cost_limit,
        "control_interval": bundle.config.planner.control_interval,
        "periods": schedule.num_periods,
        "period_seconds": schedule.period_seconds,
        "horizon": schedule.horizon,
        "classes": [
            {
                "name": c.name,
                "kind": c.kind,
                "goal_metric": c.goal.metric,
                "goal_target": c.goal.target,
                "importance": c.importance,
            }
            for c in bundle.classes
        ],
    }


class RunPublisher:
    """Publishes one deployment's live telemetry into a hub."""

    def __init__(
        self,
        hub: TelemetryHub,
        bundle: "SimulationBundle",
        controller: object,
        shard: Optional[int] = None,
        tracer: Optional["QueryTracer"] = None,
    ) -> None:
        self.hub = hub
        self.bundle = bundle
        self.controller = controller
        self.shard = shard
        self.tracer = tracer
        self._spans_published = 0
        self.intervals_published = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self) -> bool:
        """Register the per-interval hook on the controller's planner.

        Returns whether interval events will flow — controllers without a
        planner (the static baselines) publish only start/end events.
        Call *after* the validation harness is attached so each interval
        event sees its record's violations already embedded.
        """
        planner = getattr(self.controller, "planner", None)
        if planner is None:
            return False
        planner.add_plan_listener(self.on_plan)
        registry = getattr(self.controller, "registry", None)
        if registry is not None:
            self.hub.register_registry(registry, shard=self.shard)
            if registry.max_samples is None:
                registry.max_samples = LIVE_MAX_SAMPLES
        return True

    # ------------------------------------------------------------------
    # Event assembly
    # ------------------------------------------------------------------
    def _class_progress(self) -> Dict[str, Dict]:
        collector = self.bundle.collector
        completions = collector.completions_by_class()
        progress: Dict[str, Dict] = {}
        for service_class in self.bundle.classes:
            name = service_class.name
            progress[name] = {
                "completions": completions.get(name, 0),
                "attainment": collector.goal_attainment(service_class),
                "goal_metric": service_class.goal.metric,
                "goal_target": service_class.goal.target,
            }
        return progress

    def on_plan(self, record: "PlanRecord") -> None:
        """Plan-listener hook: publish this control interval."""
        telemetry = getattr(self.controller, "telemetry", None)
        record_dict: Optional[Dict] = None
        if telemetry is not None and telemetry.store.last is not None:
            last = telemetry.store.last
            if last.time == record.time:
                record_dict = last.to_dict()
        data = {
            "interval_index": record.interval_index,
            "trigger": record.trigger,
            "cost_limits": record.plan.as_dict(),
            "classes": self._class_progress(),
            "total_completions": self.bundle.collector.total_completions,
            "record": record_dict,
        }
        self.hub.publish("interval", data, time=record.time, shard=self.shard)
        self.intervals_published += 1
        self._publish_recent_spans(record.time)

    def _publish_recent_spans(self, now: float) -> None:
        if self.tracer is None:
            return
        spans = self.tracer.spans
        new = spans[self._spans_published:]
        self._spans_published = len(spans)
        finished = [
            s for s in new
            if s.end is not None and s.phase in ("queue_wait", "execute")
        ]
        if not finished:
            return
        finished.sort(key=lambda s: s.duration, reverse=True)
        payload: List[Dict] = [
            {
                "query_id": s.query_id,
                "class": s.class_name,
                "phase": s.phase,
                "duration": s.duration,
                "begin": s.begin,
                "end": s.end,
                "estimated_cost": s.estimated_cost,
                "period": s.period,
            }
            for s in finished[:SPANS_PER_EVENT]
        ]
        self.hub.publish("spans", {"slowest": payload}, time=now, shard=self.shard)

    def publish_start(self) -> None:
        """Publish the run-metadata ``snapshot`` event (unsharded runs)."""
        controller_name = getattr(self.controller, "name", type(self.controller).__name__)
        self.hub.publish(
            "snapshot",
            run_start_data(self.bundle, controller_name),
            time=0.0,
            shard=self.shard,
        )

    def publish_end(self, result: "ExperimentResult") -> None:
        """Publish this deployment's final ``run_end`` event."""
        data = {
            "controller": result.controller_name,
            "attainment": result.goal_attainment(),
            "completions": result.collector.completions_by_class(),
            "total_completions": result.collector.total_completions,
            "intervals": self.intervals_published,
        }
        self.hub.publish(
            "run_end",
            data,
            time=self.bundle.schedule.horizon,
            shard=self.shard,
        )
