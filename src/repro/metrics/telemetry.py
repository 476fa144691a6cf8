"""Controller telemetry: one structured record per control interval.

The Query Scheduler is a closed-loop controller (Monitor -> Planner/Solver
-> Dispatcher), and a controller whose per-interval decisions are invisible
cannot be debugged or trusted — accounting leaks in exactly this loop went
unnoticed until it was traced.  :class:`ControllerTelemetry` attaches to the
Scheduling Planner and, at every control interval, snapshots the whole loop
into one :class:`ControlIntervalRecord`:

* **measurements** — each class's monitored value, sample count and
  staleness (how old the freshest sample is);
* **predictions** — what the performance models promised last interval
  versus what was realised this interval (the per-class prediction error),
  plus what they promise under the plan just installed;
* **solver** — the chosen allocation, its objective score, and how many
  candidate allocations were evaluated to find it;
* **dispatcher** — per-class queue length, in-flight cost/count, and the
  released / completed / cancelled counters whose balance proves the
  accounting is leak-free.

Records accumulate in a queryable in-memory :class:`TelemetryStore` and
export as JSONL (`repro run --telemetry PATH` on the command line).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.errors import ExportError

if TYPE_CHECKING:  # imported lazily to keep this importable from anywhere
    from repro.core.dispatcher import Dispatcher
    from repro.core.planner import PlanRecord, SchedulingPlanner
    from repro.core.service_class import ServiceClass


def _finite(value: Optional[float]) -> Optional[float]:
    """A float made JSON-safe: non-finite values become None."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class MeasurementTelemetry:
    """One class's monitored state at a control interval."""

    metric: str  # "velocity" or "response_time"
    value: float
    sample_count: int
    staleness: float  # seconds since the measurement was taken

    def to_dict(self) -> Dict:
        """JSON-ready representation."""
        return {
            "metric": self.metric,
            "value": _finite(self.value),
            "sample_count": self.sample_count,
            "staleness": _finite(self.staleness),
        }


@dataclass(frozen=True)
class PredictionTelemetry:
    """Model prediction bookkeeping for one class at one interval.

    ``predicted`` is the model's promise under the plan just installed
    (checked against the *next* interval's measurement); ``realized`` is
    this interval's measured value; ``error`` is ``realized`` minus the
    *previous* interval's promise — the one-step prediction error.
    """

    predicted: Optional[float]
    realized: Optional[float]
    error: Optional[float]

    def to_dict(self) -> Dict:
        """JSON-ready representation."""
        return {
            "predicted": _finite(self.predicted),
            "realized": _finite(self.realized),
            "error": _finite(self.error),
        }


@dataclass(frozen=True)
class SolverTelemetry:
    """The solver's decision at one control interval."""

    allocation: Dict[str, float]
    objective: Optional[float]
    evaluations: int
    solve_calls: int
    #: The performance model's self-description (``model.describe()``) —
    #: name, state summary, per-class weights for learned models.
    model: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """JSON-ready representation."""
        return {
            "allocation": {name: _finite(v) for name, v in self.allocation.items()},
            "objective": _finite(self.objective),
            "evaluations": self.evaluations,
            "solve_calls": self.solve_calls,
            "model": self.model,
        }


@dataclass(frozen=True)
class DispatcherClassTelemetry:
    """Dispatcher accounting for one class at one control interval."""

    queue_length: int
    in_flight_cost: float
    in_flight_count: int
    released_total: int
    completed_total: int
    cancelled_total: int
    released_this_interval: int
    enqueued_total: int = 0
    queue_cancelled_total: int = 0

    def to_dict(self) -> Dict:
        """JSON-ready representation."""
        return {
            "queue_length": self.queue_length,
            "in_flight_cost": _finite(self.in_flight_cost),
            "in_flight_count": self.in_flight_count,
            "released_total": self.released_total,
            "completed_total": self.completed_total,
            "cancelled_total": self.cancelled_total,
            "released_this_interval": self.released_this_interval,
            "enqueued_total": self.enqueued_total,
            "queue_cancelled_total": self.queue_cancelled_total,
        }


@dataclass(frozen=True)
class ControlIntervalRecord:
    """Everything the control loop saw and decided in one interval.

    ``violations`` holds the invariant violations the validation harness
    observed at this interval boundary (as JSON-ready dicts; empty when the
    harness is off or the loop is consistent).  The harness appends into
    the list after the record is created, which is why the field is a
    mutable list on an otherwise frozen record.

    ``overhead`` is the controller's own wall-clock cost for this decision
    (``monitor_s``/``solver_s``/``dispatcher_s``/``total_s`` from
    ``time.perf_counter``) — real seconds spent computing, never simulated
    time.
    """

    time: float
    interval_index: int
    trigger: str  # "scheduled" or "early"
    measurements: Dict[str, MeasurementTelemetry]
    predictions: Dict[str, PredictionTelemetry]
    solver: SolverTelemetry
    dispatcher: Dict[str, DispatcherClassTelemetry]
    violations: List[Dict] = field(default_factory=list)
    overhead: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """Flatten into a JSON-serialisable dict (one JSONL line)."""
        return {
            "time": self.time,
            "interval_index": self.interval_index,
            "trigger": self.trigger,
            "measurements": {n: m.to_dict() for n, m in self.measurements.items()},
            "predictions": {n: p.to_dict() for n, p in self.predictions.items()},
            "solver": self.solver.to_dict(),
            "dispatcher": {n: d.to_dict() for n, d in self.dispatcher.items()},
            "violations": [dict(v) for v in self.violations],
            "overhead": {k: _finite(v) for k, v in self.overhead.items()},
        }


@dataclass
class PredictionErrorSummary:
    """Across-interval prediction-error aggregate for one class."""

    class_name: str
    count: int = 0
    _abs_sum: float = field(default=0.0, repr=False)
    _sum: float = field(default=0.0, repr=False)

    def add(self, error: float) -> None:
        """Fold in one interval's prediction error."""
        self.count += 1
        self._abs_sum += abs(error)
        self._sum += error

    @property
    def mean_abs_error(self) -> float:
        """Mean absolute one-step prediction error."""
        return self._abs_sum / self.count if self.count else 0.0

    @property
    def mean_error(self) -> float:
        """Mean signed error (bias: positive = model under-predicted)."""
        return self._sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict:
        """JSON-ready summary."""
        return {
            "count": self.count,
            "mean_abs_error": _finite(self.mean_abs_error),
            "mean_error": _finite(self.mean_error),
        }


class TelemetryStore:
    """Queryable in-memory sequence of control-interval records."""

    def __init__(self) -> None:
        self._records: List[ControlIntervalRecord] = []

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def append(self, record: ControlIntervalRecord) -> None:
        """Add one interval record (recorder hook)."""
        self._records.append(record)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ControlIntervalRecord]:
        return iter(self._records)

    @property
    def records(self) -> List[ControlIntervalRecord]:
        """All records in interval order (a copy)."""
        return list(self._records)

    @property
    def last(self) -> Optional[ControlIntervalRecord]:
        """The most recent record (None when empty)."""
        return self._records[-1] if self._records else None

    def between(self, start: float, end: float) -> List[ControlIntervalRecord]:
        """Records with ``start <= time <= end``."""
        return [r for r in self._records if start <= r.time <= end]

    def allocation_series(self, class_name: str) -> List[float]:
        """The class's cost limit at every interval."""
        return [
            r.solver.allocation[class_name]
            for r in self._records
            if class_name in r.solver.allocation
        ]

    def prediction_errors(self, class_name: str) -> List[float]:
        """The class's realised one-step prediction errors, in order."""
        return [
            r.predictions[class_name].error
            for r in self._records
            if class_name in r.predictions
            and r.predictions[class_name].error is not None
        ]

    def prediction_error_summary(self) -> Dict[str, PredictionErrorSummary]:
        """Per-class aggregate of one-step prediction errors."""
        summaries: Dict[str, PredictionErrorSummary] = {}
        for record in self._records:
            for name, prediction in record.predictions.items():
                if prediction.error is None:
                    continue
                summary = summaries.setdefault(name, PredictionErrorSummary(name))
                summary.add(prediction.error)
        return summaries

    def violations(self) -> List[Dict]:
        """All invariant-violation dicts across records, in interval order."""
        return [v for record in self._records for v in record.violations]

    def overhead_summary(self) -> Dict[str, Dict[str, float]]:
        """Mean/max controller wall-time per overhead section across records.

        Keys are the profiled section names (``monitor_s``, ``solver_s``,
        ``dispatcher_s``, ``total_s``); empty when no record carries
        overhead data (e.g. replayed from a pre-overhead JSONL export).
        """
        from repro.obs.profiling import summarize_overhead

        return summarize_overhead([r.overhead for r in self._records])

    def dispatcher_balance(self) -> Dict[str, Dict[str, int]]:
        """Final released/completed/cancelled/in-flight counters per class.

        In a leak-free dispatcher ``released == completed + cancelled +
        in_flight_count`` for every class — the invariant the accounting
        regression tests pin.
        """
        last = self.last
        if last is None:
            return {}
        return {
            name: {
                "released": d.released_total,
                "completed": d.completed_total,
                "cancelled": d.cancelled_total,
                "in_flight": d.in_flight_count,
                "queue_cancelled": d.queue_cancelled_total,
            }
            for name, d in last.dispatcher.items()
        }

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """All records as JSON Lines text (one record per line)."""
        return "".join(json.dumps(r.to_dict()) + "\n" for r in self._records)

    def save_jsonl(self, path: str, overwrite: bool = False) -> None:
        """Write the JSONL export to ``path``.

        Refuses to clobber an existing file unless ``overwrite=True``
        (raising :class:`~repro.errors.ExportError`): several runs — or
        several shards of one run — exporting into the same directory
        must never silently truncate each other's records.
        """
        if not overwrite and os.path.exists(path):
            raise ExportError(
                "telemetry export target {!r} already exists; pass "
                "overwrite=True to replace it".format(path)
            )
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())

    @staticmethod
    def load_jsonl(path: str) -> List[Dict]:
        """Read back a JSONL export as plain dicts."""
        with open(path) as handle:
            return [json.loads(line) for line in handle if line.strip()]


class ControllerTelemetry:
    """The recorder: subscribes to the planner, snapshots the whole loop.

    Construct with the live controller components and every subsequent
    control interval (scheduled or early-triggered) appends exactly one
    :class:`ControlIntervalRecord` to :attr:`store`.  Works with any solver
    that quacks like :class:`~repro.core.solver.PerformanceSolver`; model-
    free allocators simply yield records without objective/prediction data.
    """

    def __init__(
        self,
        planner: "SchedulingPlanner",
        dispatcher: "Dispatcher",
        solver: object,
        classes: List["ServiceClass"],
        store: Optional[TelemetryStore] = None,
    ) -> None:
        self.planner = planner
        self.dispatcher = dispatcher
        self.solver = solver
        self.classes = list(classes)
        self.store = store if store is not None else TelemetryStore()
        self._previous_predictions: Dict[str, float] = {}
        self._previous_released: Dict[str, int] = {
            c.name: 0 for c in self.classes
        }
        planner.add_plan_listener(self.record_interval)

    def record_interval(self, record: "PlanRecord") -> None:
        """Planner plan-listener hook: snapshot one control interval."""
        measurements = {
            name: MeasurementTelemetry(
                metric=m.metric,
                value=m.value,
                sample_count=m.sample_count,
                staleness=record.time - m.measured_at,
            )
            for name, m in record.measurements.items()
        }
        predictions: Dict[str, PredictionTelemetry] = {}
        class_names = set(record.predictions) | set(record.measurements)
        for name in class_names:
            realized = (
                record.measurements[name].value
                if name in record.measurements
                else None
            )
            previous = self._previous_predictions.get(name)
            error = (
                realized - previous
                if realized is not None and previous is not None
                else None
            )
            predictions[name] = PredictionTelemetry(
                predicted=record.predictions.get(name),
                realized=realized,
                error=error,
            )
        self._previous_predictions = dict(record.predictions)
        model = getattr(self.solver, "model", None)
        description = model.describe() if model is not None else {}
        solver_snapshot = SolverTelemetry(
            allocation=record.plan.as_dict(),
            objective=getattr(self.solver, "last_score", None),
            evaluations=getattr(self.solver, "last_evaluations", 0),
            solve_calls=getattr(self.solver, "solve_calls", 0),
            model=description,
        )
        dispatcher_snapshot: Dict[str, DispatcherClassTelemetry] = {}
        for service_class in self.classes:
            name = service_class.name
            released = self.dispatcher.released_count(name)
            dispatcher_snapshot[name] = DispatcherClassTelemetry(
                queue_length=self.dispatcher.queue_length(name),
                in_flight_cost=self.dispatcher.in_flight_cost(name),
                in_flight_count=self.dispatcher.in_flight_count(name),
                released_total=released,
                completed_total=self.dispatcher.completed_count(name),
                cancelled_total=self.dispatcher.cancelled_count(name),
                released_this_interval=released - self._previous_released[name],
                enqueued_total=self.dispatcher.enqueued_count(name),
                queue_cancelled_total=self.dispatcher.queue_cancelled_count(name),
            )
            self._previous_released[name] = released
        self.store.append(
            ControlIntervalRecord(
                time=record.time,
                interval_index=record.interval_index,
                trigger=record.trigger,
                measurements=measurements,
                predictions=predictions,
                solver=solver_snapshot,
                dispatcher=dispatcher_snapshot,
                overhead=dict(record.overhead),
            )
        )
