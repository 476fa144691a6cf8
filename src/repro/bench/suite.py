"""The ``repro bench`` micro + macro benchmark suite.

Micro benchmarks isolate the hot subsystems the
:class:`~repro.obs.profiling.IntervalProfiler` already points at — the
event/timer heap, the processor-sharing resource core, and the Performance
Solver — while the macro benchmark runs the full replication experiment
and reports simulated-queries per wall-second, the headline number for
"how cheap is a million-query scenario sweep".

All benchmarks are deterministic given their scale (fixed seeds, no wall
clock inside the measured work); only the *wall time* varies between
machines and commits, which is exactly what the ``BENCH_<n>.json``
trajectory tracks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.report import (
    BenchReport,
    BenchmarkResult,
    git_sha,
    machine_info,
    stat_from_accumulator,
)
from repro.errors import BenchError
from repro.sim.stats import WelfordAccumulator

#: Default number of repeated trials per benchmark.
DEFAULT_TRIALS = 3


@dataclass(frozen=True)
class BenchScale:
    """Knobs that size every benchmark (full vs ``--smoke``)."""

    smoke: bool = False

    @property
    def timer_events(self) -> int:
        """Events scheduled by the timer-heap micro benchmark."""
        return 20_000 if self.smoke else 300_000

    @property
    def ps_jobs(self) -> int:
        """Jobs pushed through the PS-resource micro benchmark."""
        return 5_000 if self.smoke else 100_000

    @property
    def solver_solves(self) -> int:
        """Solver invocations per solver micro benchmark."""
        return 20 if self.smoke else 200

    @property
    def replication_periods(self) -> int:
        """Schedule periods of the macro replication benchmark."""
        return 2 if self.smoke else 9

    @property
    def replication_period_seconds(self) -> float:
        """Seconds of simulated time per macro period."""
        return 30.0 if self.smoke else 120.0

    @property
    def replication_control_interval(self) -> float:
        """Control interval of the macro replication benchmark."""
        return 15.0 if self.smoke else 60.0


@dataclass(frozen=True)
class BenchCase:
    """One named benchmark: a callable returning ``{metric: value}``."""

    name: str
    kind: str  # "micro" or "macro"
    description: str
    run: Callable[[BenchScale], Dict[str, float]]


def _bench_timer_heap(scale: BenchScale) -> Dict[str, float]:
    """Schedule/cancel/fire a deterministic storm of simulator events.

    A third of the events are cancelled after scheduling, so the run
    exercises tombstone handling (and, post-optimisation, heap
    compaction), not just push/pop throughput.
    """
    from repro.sim.engine import Simulator

    sim = Simulator()
    count = scale.timer_events
    sink = [0]

    def _tick() -> None:
        sink[0] += 1

    handles = []
    # Deterministic pseudo-random delays (Weyl sequence; no RNG draws).
    state = 0
    started = time.perf_counter()
    for index in range(count):
        state = (state + 2654435761) % 4294967296
        delay = (state / 4294967296.0) * 100.0
        handle = sim.schedule(delay, _tick, label="bench:tick")
        if index % 3 == 0:
            handles.append(handle)
        if len(handles) >= 64:
            for pending in handles:
                pending.cancel()
            handles.clear()
    for pending in handles:
        pending.cancel()
    sim.run_until(101.0)
    elapsed = time.perf_counter() - started
    ops = count + sim.fired_events  # one push each + live pops
    return {
        "ops_per_s": ops / elapsed,
        "fired_events": float(sim.fired_events),
        "wall_s": elapsed,
    }


def _bench_ps_resource(scale: BenchScale) -> Dict[str, float]:
    """Closed-loop job churn through one processor-sharing pool."""
    from repro.sim.engine import Simulator
    from repro.sim.resources import ProcessorSharingResource, PSJob

    sim = Simulator()
    pool = ProcessorSharingResource(sim, "bench", servers=4, speed=1.0)
    total = scale.ps_jobs
    submitted = [0]

    def _resubmit(_job: PSJob) -> None:
        if submitted[0] < total:
            submitted[0] += 1
            demand = 0.5 + (submitted[0] % 7) * 0.25
            pool.submit(PSJob("bench", demand, on_complete=_resubmit))

    started = time.perf_counter()
    # 16 concurrent closed-loop streams over a 4-server pool.
    for _ in range(16):
        _resubmit(PSJob("seed", 0.0))
    sim.run(max_events=None)
    elapsed = time.perf_counter() - started
    return {
        "jobs_per_s": pool.completed_jobs / elapsed,
        "completed_jobs": float(pool.completed_jobs),
        "wall_s": elapsed,
    }


def _solver_inputs(num_classes: int, variant: int):
    """Deterministic randomized ClassStatus inputs for the solver benches."""
    from repro.core.service_class import (
        ResponseTimeGoal,
        ServiceClass,
        VelocityGoal,
    )
    from repro.core.solver import ClassStatus

    statuses: List[ClassStatus] = []
    for index in range(num_classes):
        mixed = (variant * 31 + index * 17) % 97
        if index == num_classes - 1:
            service_class = ServiceClass(
                "bench_oltp",
                "oltp",
                ResponseTimeGoal(0.25),
                importance=3,
            )
            value = 0.1 + (mixed / 97.0) * 0.4
        else:
            service_class = ServiceClass(
                "bench_olap{}".format(index),
                "olap",
                VelocityGoal(0.3 + 0.05 * index),
                importance=1 + index % 3,
            )
            value = 0.1 + (mixed / 97.0) * 0.8
        statuses.append(
            ClassStatus(
                service_class,
                current_limit=2_000.0 + 1_000.0 * index,
                current_value=value,
            )
        )
    return statuses


def _make_solver(num_classes: int):
    from repro.core.modeling import OLTPResponseTimeModel
    from repro.core.solver import PerformanceSolver
    from repro.core.utility import make_utility

    return PerformanceSolver(
        utility=make_utility("piecewise"),
        oltp_model=OLTPResponseTimeModel(),
        system_cost_limit=10_000.0 * num_classes,
        grid_timerons=1_000.0,
        min_class_limit=1_000.0,
    )


def _bench_solver(num_classes: int, scale: BenchScale) -> Dict[str, float]:
    solver = _make_solver(num_classes)
    solves = scale.solver_solves
    started = time.perf_counter()
    for variant in range(solves):
        solver.solve(_solver_inputs(num_classes, variant), now=float(variant))
    elapsed = time.perf_counter() - started
    return {
        "solves_per_s": solves / elapsed,
        "evaluations": float(solver.evaluations),
        "wall_s": elapsed,
    }


def _bench_solver_exhaustive(scale: BenchScale) -> Dict[str, float]:
    """3-class solves (the paper's configuration; exhaustive search)."""
    return _bench_solver(3, scale)


def _bench_solver_greedy(scale: BenchScale) -> Dict[str, float]:
    """8-class solves (past the exhaustive cut-off; greedy ascent)."""
    return _bench_solver(8, scale)


def _bench_replication(scale: BenchScale) -> Dict[str, float]:
    """The macro benchmark: one full Query Scheduler replication run.

    The headline metric is ``queries_per_s`` — completed simulated queries
    per wall-second — plus control-intervals/sec, fired events/sec, and
    the wall/sim time ratio.
    """
    from repro.config import (
        MonitorConfig,
        PlannerConfig,
        WorkloadScaleConfig,
        default_config,
    )
    from repro.experiments.runner import run_experiment

    config = default_config(
        seed=7,
        scale=WorkloadScaleConfig(
            period_seconds=scale.replication_period_seconds,
            num_periods=scale.replication_periods,
        ),
        monitor=MonitorConfig(
            snapshot_interval=min(30.0, scale.replication_control_interval / 2.0),
            response_time_window=30.0,
        ),
        planner=PlannerConfig(
            control_interval=scale.replication_control_interval
        ),
    )
    started = time.perf_counter()
    result = run_experiment(controller="qs", config=config)
    elapsed = time.perf_counter() - started
    engine = result.bundle.engine
    sim = result.bundle.sim
    store = result.extras.get("telemetry")
    intervals = len(store) if store is not None else 0
    horizon = scale.replication_period_seconds * scale.replication_periods
    return {
        "queries_per_s": engine.completed_queries / elapsed,
        "control_intervals_per_s": intervals / elapsed,
        "events_per_s": sim.fired_events / elapsed,
        "completed_queries": float(engine.completed_queries),
        "sim_time_ratio": horizon / elapsed,
        "wall_s": elapsed,
    }


def _bench_model_ablation(scale: BenchScale) -> Dict[str, float]:
    """Macro benchmark over the model seam: the single-scenario ablation.

    Replays ``paper-figure3`` under the paper-analytic, learned (trained
    on the paper run's own trace) and oracle models, and reports each
    model's mean SLO attainment and one-step prediction MAE plus the
    total wall time — so a perf trajectory also tracks whether the
    learned model keeps its edge.
    """
    from repro.experiments.model_ablation import run_model_ablation

    started = time.perf_counter()
    report = run_model_ablation(scenarios=("paper-figure3",), smoke=scale.smoke)
    elapsed = time.perf_counter() - started
    entry = report["scenarios"]["paper-figure3"]
    metrics: Dict[str, float] = {"wall_s": elapsed}
    for model_spec, summary in entry.items():
        attainment = summary.get("attainment_mean")
        mae = summary.get("prediction_mae_mean")
        if attainment is not None:
            metrics["{}_attainment".format(model_spec)] = attainment
        if mae is not None:
            metrics["{}_mae".format(model_spec)] = mae
    return metrics


#: Every benchmark in suite order.
BENCH_CASES = (
    BenchCase(
        "timer_heap",
        "micro",
        "simulator event heap: schedule/cancel/fire ops per second",
        _bench_timer_heap,
    ),
    BenchCase(
        "ps_resource",
        "micro",
        "processor-sharing pool: closed-loop jobs per second",
        _bench_ps_resource,
    ),
    BenchCase(
        "solver_exhaustive",
        "micro",
        "3-class Performance Solver solves per second (exhaustive path)",
        _bench_solver_exhaustive,
    ),
    BenchCase(
        "solver_greedy",
        "micro",
        "8-class Performance Solver solves per second (greedy path)",
        _bench_solver_greedy,
    ),
    BenchCase(
        "replication",
        "macro",
        "full qs replication run: simulated queries per wall-second",
        _bench_replication,
    ),
    BenchCase(
        "model_ablation",
        "macro",
        "paper vs learned vs oracle models on paper-figure3: attainment + MAE",
        _bench_model_ablation,
    ),
)

#: Benchmark names in suite order (the ``--only`` vocabulary).
BENCH_NAMES = tuple(case.name for case in BENCH_CASES)


def run_suite(
    trials: int = DEFAULT_TRIALS,
    smoke: bool = False,
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str, int, Dict[str, float]], None]] = None,
) -> BenchReport:
    """Run the suite and aggregate per-metric stats across trials.

    ``only`` restricts to a subset of :data:`BENCH_NAMES`; ``progress``
    (if given) is called as ``progress(name, trial_index, metrics)`` after
    every trial.
    """
    if trials < 1:
        raise BenchError("bench needs at least one trial")
    selected: List[BenchCase] = []
    if only:
        by_name = {case.name: case for case in BENCH_CASES}
        for name in only:
            case = by_name.get(name)
            if case is None:
                raise BenchError(
                    "unknown benchmark {!r}; expected one of {}".format(
                        name, list(BENCH_NAMES)
                    )
                )
            selected.append(case)
    else:
        selected = list(BENCH_CASES)

    scale = BenchScale(smoke=smoke)
    report = BenchReport(
        machine=machine_info(),
        sha=git_sha(),
        trials=trials,
        smoke=smoke,
    )
    for case in selected:
        accumulators: Dict[str, WelfordAccumulator] = {}
        for trial in range(trials):
            metrics = case.run(scale)
            for metric, value in metrics.items():
                accumulators.setdefault(metric, WelfordAccumulator()).add(
                    float(value)
                )
            if progress is not None:
                progress(case.name, trial, metrics)
        report.benchmarks[case.name] = BenchmarkResult(
            name=case.name,
            kind=case.kind,
            description=case.description,
            metrics={
                metric: stat_from_accumulator(acc)
                for metric, acc in sorted(accumulators.items())
            },
        )
    return report


def format_report(report: BenchReport) -> str:
    """ASCII table of one report's per-benchmark metric means."""
    lines = [
        "bench report (schema v{}, sha={}, trials={}{})".format(
            report.schema_version,
            (report.sha or "none")[:12],
            report.trials,
            ", smoke" if report.smoke else "",
        ),
        "{:<20} {:<6} {:<24} {:>14} {:>12}".format(
            "benchmark", "kind", "metric", "mean", "std"
        ),
    ]
    lines.append("-" * len(lines[1]))
    for name in sorted(report.benchmarks):
        result = report.benchmarks[name]
        for metric in sorted(result.metrics):
            stat = result.metrics[metric]
            lines.append(
                "{:<20} {:<6} {:<24} {:>14.4g} {:>12.4g}".format(
                    name, result.kind, metric, stat["mean"], stat["std"]
                )
            )
    return "\n".join(lines)
