"""Builds complete deployments and runs the paper's experiments.

The assembly order mirrors the real deployment: an execution backend first
(simulated hardware + engine, or the real-time SQLite engine), Query
Patroller on top, workload clients connecting through QP, then one
*controller* — the Query Scheduler or a baseline — installed as QP's
release handler.

Backend selection flows through ``build_bundle(backend=...)`` /
``run_experiment(backend=...)`` / ``ExperimentSpec(backend=...)``: the
controller stack itself only ever sees the :mod:`repro.runtime` protocols,
so the same controller code drives both substrates.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.config import SimulationConfig, default_config
from repro.core.controllers import (
    NoControlController,
    QPPriorityController,
)
from repro.core.direct import DirectScheduler
from repro.core.mpl import MPLController
from repro.core.scheduler import QueryScheduler
from repro.core.service_class import ServiceClass, paper_classes
from repro.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector
from repro.obs.tracer import QueryTracer
from repro.patroller.patroller import QueryPatroller
from repro.runtime import (
    BACKEND_NAMES,
    ExecutionBackend,
    ExecutionEngine,
    TimerService,
    make_backend,
)
from repro.sim.rng import RandomStreams
from repro.validation import attach_harness
from repro.workloads.client import ClosedLoopClient
from repro.workloads.schedule import (
    ClientPoolManager,
    PeriodSchedule,
    constant_schedule,
    paper_schedule,
)
from repro.workloads.spec import QueryFactory, WorkloadMix
from repro.workloads.tpcc import tpcc_mix
from repro.workloads.tpch import tpch_mix

#: Controller names accepted by :func:`make_controller`.
CONTROLLER_NAMES = ("none", "qp", "qp_nopriority", "qs", "qs_detect", "mpl", "direct")


@dataclass
class SimulationBundle:
    """Everything that makes up one runnable deployment.

    ``sim`` is the backend's timer service and ``engine`` its execution
    engine — under the simulation backend these are the familiar
    ``Simulator``/``DatabaseEngine`` pair, kept as first-class fields so
    existing code and tests keep reading ``bundle.sim``/``bundle.engine``.
    """

    config: SimulationConfig
    sim: TimerService
    rng: RandomStreams
    engine: ExecutionEngine
    patroller: QueryPatroller
    factory: QueryFactory
    classes: List[ServiceClass]
    mixes: Dict[str, WorkloadMix]
    schedule: PeriodSchedule
    manager: ClientPoolManager
    collector: MetricsCollector
    backend: ExecutionBackend
    controller: Optional[object] = None

    def historical_olap_costs(self) -> List[float]:
        """Exact template costs of the OLAP mixes (QP group calibration)."""
        costs: List[float] = []
        seen = set()
        for service_class in self.classes:
            if not service_class.directly_controlled:
                continue
            mix = self.mixes[service_class.name]
            if mix.name in seen:
                continue
            seen.add(mix.name)
            for template in mix.templates:
                costs.append(
                    self.engine.estimator.true_cost(
                        template.cpu_demand, template.io_demand
                    )
                )
        return costs

    def run(self, horizon: Optional[float] = None) -> None:
        """Run the deployment to its schedule horizon (or ``horizon``)."""
        end = horizon if horizon is not None else self.schedule.horizon
        self.backend.run_until(end)

    def close(self) -> None:
        """Release backend resources (idempotent; no-op for the sim)."""
        self.backend.close()


@dataclass
class ExperimentSpec:
    """One experiment, as data.

    Replaces :func:`run_experiment`'s keyword sprawl: build a spec, tweak
    it with :func:`dataclasses.replace`, hand it to :func:`run_spec` (or
    ``run_experiment(spec=...)``).  The old ``run_experiment`` keywords
    remain a thin shim over this.

    ``faults`` are behavioral :class:`~repro.faults.ScheduledFault`
    injections applied to the assembled bundle before the run starts (the
    scenario format's ``faults:`` section compiles to these).
    """

    controller: str = "qs"
    config: Optional[SimulationConfig] = None
    schedule: Optional[PeriodSchedule] = None
    classes: Optional[List[ServiceClass]] = None
    static_olap_limit: Optional[float] = None
    invariants: str = "off"
    tracing: bool = False
    backend: str = "sim"
    backend_options: Dict[str, Any] = field(default_factory=dict)
    horizon: Optional[float] = None
    faults: Tuple["ScheduledFault", ...] = ()  # noqa: F821

    def __post_init__(self) -> None:
        # Every spec owns its options: ``replace``/``with_overrides`` run
        # through here again, so two specs derived from one base can never
        # alias (and mutate) the same dict — scenario sweeps tweak
        # ``backend_options`` per run.
        self.backend_options = copy.deepcopy(self.backend_options)
        self.faults = tuple(self.faults)

    def with_overrides(self, **changes: Any) -> "ExperimentSpec":
        """A copy with the given fields replaced (no shared mutable state)."""
        return replace(self, **changes)


@dataclass
class ExperimentResult:
    """Outcome of one experiment run."""

    controller_name: str
    config: SimulationConfig
    classes: List[ServiceClass]
    schedule: PeriodSchedule
    collector: MetricsCollector
    bundle: SimulationBundle
    extras: Dict[str, object] = field(default_factory=dict)

    def performance_series(self) -> Dict[str, List[Optional[float]]]:
        """Per-class goal-metric series (the Figures 4-6 payload)."""
        return {
            c.name: self.collector.performance_series(c) for c in self.classes
        }

    def goal_attainment(self) -> Dict[str, float]:
        """Per-class fraction of periods meeting the goal."""
        return {c.name: self.collector.goal_attainment(c) for c in self.classes}


def realtime_smoke_schedule(
    config: SimulationConfig, classes: List[ServiceClass]
) -> PeriodSchedule:
    """Default schedule for real-time backends: a light constant load.

    The paper schedule drives tens of clients for minutes of period time —
    fine in virtual time, not in wall-clock smoke runs.  This keeps one
    client per OLAP class and two per OLTP class over the configured
    number of (short) periods.
    """
    return constant_schedule(
        config.scale.period_seconds,
        config.scale.num_periods,
        {c.name: (1 if c.kind == "olap" else 2) for c in classes},
    )


def default_schedule(
    config: SimulationConfig,
    classes: List[ServiceClass],
    backend: str = "sim",
) -> PeriodSchedule:
    """The schedule a spec without an explicit one runs (backend-aware).

    The simulation backend gets the paper's Figure 3 schedule trimmed to
    the configured period count; real-time backends get the light
    :func:`realtime_smoke_schedule`.  Factored out of :func:`build_bundle`
    so harnesses that pre-partition schedules (the sharded control plane)
    resolve exactly the schedule a plain run would.
    """
    if backend != "sim":
        return realtime_smoke_schedule(config, classes)
    schedule = paper_schedule(config.scale.period_seconds)
    if schedule.num_periods != config.scale.num_periods:
        schedule = PeriodSchedule(
            config.scale.period_seconds,
            {
                name: series[: config.scale.num_periods]
                for name, series in schedule.counts.items()
            },
        )
    return schedule


def build_bundle(
    config: Optional[SimulationConfig] = None,
    schedule: Optional[PeriodSchedule] = None,
    classes: Optional[List[ServiceClass]] = None,
    mixes: Optional[Dict[str, WorkloadMix]] = None,
    backend: str = "sim",
    backend_options: Optional[Dict[str, Any]] = None,
) -> SimulationBundle:
    """Assemble backend, patroller, workloads and metrics (no controller yet).

    ``backend`` selects the execution substrate (see
    :data:`repro.runtime.BACKEND_NAMES`); ``backend_options`` pass through
    to the backend constructor.  With a real-time backend and no explicit
    ``schedule``, :func:`realtime_smoke_schedule` is used — the paper
    schedule's client counts are sized for virtual time.
    """
    config = (config or default_config()).validate()
    classes = list(classes) if classes is not None else list(paper_classes())
    if schedule is None:
        schedule = default_schedule(config, classes, backend)
    if mixes is None:
        olap = tpch_mix()
        oltp = tpcc_mix()
        mixes = {}
        for service_class in classes:
            mixes[service_class.name] = olap if service_class.kind == "olap" else oltp
    missing = [c.name for c in classes if c.name not in mixes]
    if missing:
        raise ConfigurationError("no workload mix for classes {}".format(missing))
    unknown = [name for name in schedule.counts if name not in {c.name for c in classes}]
    if unknown:
        raise ConfigurationError("schedule covers unknown classes {}".format(unknown))

    rng = RandomStreams(config.seed)
    backend_obj = make_backend(backend, config, rng, **(backend_options or {}))
    sim = backend_obj.timers
    engine = backend_obj.engine
    patroller = QueryPatroller(sim, engine, config.patroller)
    factory = QueryFactory(engine.estimator, rng)
    collector = MetricsCollector(engine, schedule, classes)

    def client_builder(class_name: str, client_id: str) -> ClosedLoopClient:
        return ClosedLoopClient(
            sim=sim,
            patroller=patroller,
            factory=factory,
            mix=mixes[class_name],
            class_name=class_name,
            client_id=client_id,
            think_time=config.scale.think_time,
        )

    manager = ClientPoolManager(sim, schedule, client_builder)
    return SimulationBundle(
        config=config,
        sim=sim,
        rng=rng,
        engine=engine,
        patroller=patroller,
        factory=factory,
        classes=classes,
        mixes=mixes,
        schedule=schedule,
        manager=manager,
        collector=collector,
        backend=backend_obj,
    )


def make_controller(
    bundle: SimulationBundle,
    name: str,
    static_olap_limit: Optional[float] = None,
) -> object:
    """Build and attach the named controller to a bundle.

    ``"none"``          -- system cost limit only (Figure 4 baseline)
    ``"qp"``            -- DB2 QP static groups + priorities (Figure 5)
    ``"qp_nopriority"`` -- same with priority control off (Section 4.2.2)
    ``"qs"``            -- the Query Scheduler (Figure 6/7)
    ``"qs_detect"``     -- Query Scheduler + explicit workload detection
    ``"mpl"``           -- MPL admission control extension ([5])
    ``"direct"``        -- in-engine direct control extension (Section 5)
    """
    config = bundle.config
    if name == "none":
        controller: object = NoControlController(
            bundle.patroller, bundle.engine, bundle.classes, config.system_cost_limit
        )
    elif name in ("qp", "qp_nopriority"):
        controller = QPPriorityController(
            bundle.patroller,
            bundle.engine,
            bundle.classes,
            historical_costs=bundle.historical_olap_costs(),
            static_olap_limit=(
                static_olap_limit
                if static_olap_limit is not None
                else config.system_cost_limit
            ),
            priority_control=(name == "qp"),
        )
    elif name in ("qs", "qs_detect"):
        scheduler = QueryScheduler(
            bundle.sim, bundle.engine, bundle.patroller, bundle.classes, config
        )
        if name == "qs_detect":
            scheduler.enable_detection()
        controller = scheduler
    elif name == "mpl":
        controller = MPLController(
            bundle.sim,
            bundle.patroller,
            bundle.engine,
            bundle.classes,
            control_interval=config.planner.control_interval,
        )
    elif name == "direct":
        controller = DirectScheduler(
            bundle.sim, bundle.engine, bundle.classes, config
        )
    else:
        raise ConfigurationError(
            "unknown controller {!r}; expected one of {}".format(name, CONTROLLER_NAMES)
        )
    bundle.controller = controller
    return controller


@dataclass
class Run:
    """One assembled, started deployment (see :func:`assemble`).

    Advance it through ``run.bundle.run(horizon=...)`` — once, or in
    slices — then close the bundle and call :meth:`finish` once.
    """

    spec: ExperimentSpec
    bundle: SimulationBundle
    controller: object
    harness: Optional["ValidationHarness"] = None  # noqa: F821
    tracer: Optional[QueryTracer] = None
    publisher: Optional["RunPublisher"] = None  # noqa: F821
    injector: Optional["FaultInjector"] = None  # noqa: F821

    def finish(self) -> ExperimentResult:
        """Build the result, with every attached observer in its extras."""
        bundle = self.bundle
        result = ExperimentResult(
            controller_name=self.spec.controller,
            config=bundle.config,
            classes=bundle.classes,
            schedule=bundle.schedule,
            collector=bundle.collector,
            bundle=bundle,
        )
        if isinstance(self.controller, QueryScheduler):
            result.extras["telemetry"] = self.controller.telemetry.store
            result.extras["metrics_registry"] = self.controller.registry
        if self.harness is not None:
            result.extras["validation"] = self.harness
        if self.injector is not None:
            result.extras["faults"] = self.injector
        if self.tracer is not None:
            self.tracer.finalize()
            result.extras["tracer"] = self.tracer
        if self.publisher is not None:
            result.extras["live_publisher"] = self.publisher
            self.publisher.publish_end(result)
        return result


def assemble(
    spec: ExperimentSpec,
    hub: Optional["TelemetryHub"] = None,  # noqa: F821
    shard: Optional[int] = None,
) -> Run:
    """Build and start the deployment ``spec`` describes, not yet advanced.

    Wires the paper's loop and everything observing it, in order: bundle,
    controller, the collector's plan listener, tracer, invariant harness,
    live publisher, then starts the controller and client pools and
    schedules the spec's faults.  The bundle is closed if any step fails.
    ``hub``/``shard`` are as for :func:`run_spec`; a fleet-level caller
    (``shard`` set) publishes its own start event.
    """
    if spec.backend not in BACKEND_NAMES:
        raise ConfigurationError(
            "unknown backend {!r}; expected one of {}".format(
                spec.backend, BACKEND_NAMES
            )
        )
    bundle = build_bundle(
        config=spec.config,
        schedule=spec.schedule,
        classes=spec.classes,
        backend=spec.backend,
        backend_options=dict(spec.backend_options),
    )
    try:
        controller = make_controller(
            bundle, spec.controller, static_olap_limit=spec.static_olap_limit
        )
        if isinstance(controller, QueryScheduler):  # covers qs and qs_detect
            controller.planner.add_plan_listener(bundle.collector.on_plan)
        run = Run(spec=spec, bundle=bundle, controller=controller)
        if spec.tracing:
            run.tracer = QueryTracer(
                clock=bundle.sim,
                patroller=bundle.patroller,
                engine=bundle.engine,
                schedule=bundle.schedule,
            )
        # The harness attaches after the telemetry and collector listeners
        # so a check at an interval boundary sees the interval's record
        # already written (and can embed its violations there).
        run.harness = attach_harness(bundle, mode=spec.invariants)
        if hub is not None:
            from repro.obs.live.publish import RunPublisher

            # After the harness: each interval event then carries the
            # record with any violations already embedded.
            run.publisher = RunPublisher(
                hub, bundle, controller, shard=shard, tracer=run.tracer
            )
            run.publisher.attach()
            if shard is None:
                run.publisher.publish_start()
        controller.start()
        bundle.manager.start()
        if spec.faults:
            from repro.faults import FaultInjector

            run.injector = FaultInjector(bundle)
            for fault in spec.faults:
                run.injector.apply(fault)
    except BaseException:
        bundle.close()
        raise
    return run


def run_spec(
    spec: ExperimentSpec,
    hub: Optional["TelemetryHub"] = None,  # noqa: F821
    shard: Optional[int] = None,
) -> ExperimentResult:
    """Run one full scheduled experiment described by ``spec``.

    ``spec.invariants`` selects the runtime validation mode: ``"off"`` (no
    harness), ``"warn"`` (check at every control interval, record
    violations into telemetry) or ``"strict"`` (additionally raise
    :class:`~repro.errors.InvariantViolation` on the first ERROR-or-worse
    violation).  The attached harness rides along in
    ``result.extras["validation"]``.

    ``spec.tracing`` attaches a :class:`~repro.obs.QueryTracer` that
    records one balanced span per query lifecycle phase; it rides along
    (finalised) in ``result.extras["tracer"]``.

    ``hub`` optionally attaches a
    :class:`~repro.obs.live.TelemetryHub`: a
    :class:`~repro.obs.live.RunPublisher` then streams one ``interval``
    event per control interval (plus ``spans``/``run_end``) tagged with
    ``shard``.  The hub is deliberately *not* a spec field — specs stay
    picklable for the parallel runners, hubs carry live threads.
    Publishing is observation-only: results are bit-identical with or
    without a hub.

    Real-time backends are closed (worker threads stopped, database
    removed) before this returns, even on failure; the collected metrics
    remain readable afterwards.
    """
    run = assemble(spec, hub=hub, shard=shard)
    try:
        run.bundle.run(horizon=spec.horizon)
    finally:
        run.bundle.close()
    return run.finish()


def run_experiment(
    controller: str = "qs",
    config: Optional[SimulationConfig] = None,
    schedule: Optional[PeriodSchedule] = None,
    classes: Optional[List[ServiceClass]] = None,
    static_olap_limit: Optional[float] = None,
    invariants: str = "off",
    tracing: bool = False,
    backend: str = "sim",
    horizon: Optional[float] = None,
    spec: Optional[ExperimentSpec] = None,
) -> ExperimentResult:
    """Run one experiment (thin keyword shim over :func:`run_spec`).

    Pass ``spec=`` to supply an :class:`ExperimentSpec` directly; the
    individual keywords are then ignored.
    """
    if spec is None:
        spec = ExperimentSpec(
            controller=controller,
            config=config,
            schedule=schedule,
            classes=classes,
            static_olap_limit=static_olap_limit,
            invariants=invariants,
            tracing=tracing,
            backend=backend,
            horizon=horizon,
        )
    return run_spec(spec)
