"""The three benchmark workloads, driven through the public API only.

Each workload offers ``setup_sample()`` (assemble a deployment and tear it
down, timing scenario load to first event) and ``rep()`` (one complete,
seeded unit of work returning a :class:`Rep`).  A rep's outcome fields
(``outcome``) depend only on the seed for the simulated workloads; the
runner compares them between repeats and between the traced and the
untraced run.

Set-up and simulated runs are timed with the process CPU clock: the
simulator is single-threaded and never waits, so on an idle host CPU time
equals wall time, and unlike wall time it leaves out the time a shared
virtual machine's CPU is taken by other tenants.  The real-time workload
runs for a fixed wall-clock horizon and counts per wall-second.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, List

from layers import Probes

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE / "scenarios"

#: Open-loop OLTP arrival rate of ``sqlite-mixed`` (requests per second).
OLTP_RATE = 1000.0
#: How long ``sqlite-mixed`` waits for open-loop arrivals after the horizon.
DRAIN_SECONDS = 10.0
#: Set-up samples taken at the start of a run and after each repeat.
SETUP_SAMPLES = 2


@dataclasses.dataclass
class Rep:
    """One unit of work and what it produced."""

    #: Process CPU seconds from scenario load to the first event.
    setup_s: float
    #: Length of the timed phase: CPU seconds for simulated workloads,
    #: wall seconds for the real-time one.
    run_s: float
    #: Seconds of the backend's own clock the timed phase covered
    #: (simulated seconds, or wall seconds on the real-time backend).
    clock_s: float
    completions: int
    olap_completions: int
    attempted: int
    failed: int
    slo_attainment: float
    oltp_latency_s: List[float]
    interval_s: List[float]
    outcome: Dict[str, object]
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    problems: List[str] = dataclasses.field(default_factory=list)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _attainment(classes, attainment: Dict[str, float]) -> float:
    return _mean(attainment[c.name] for c in classes)


# ----------------------------------------------------------------------
# paper-figure3: the shipped library scenario through run_spec.
# ----------------------------------------------------------------------
class PaperFigure3:
    name = "paper-figure3"
    simulated = True
    #: Wall seconds one repeat takes on the defining host (sets the
    #: repeat count for a given ``--seconds``).
    rep_seconds = 12.0

    def __init__(self, probes: Probes, workdir: Path) -> None:
        from repro.scenarios.loader import library_paths

        self.probes = probes
        self.path = library_paths()["paper-figure3"]

    def _spec(self, seed: int):
        from repro.scenarios import loader
        from repro.scenarios import spec as scenario_spec

        return scenario_spec.to_experiment_spec(loader.load_scenario(self.path), seed=seed)

    def setup_sample(self, seed: int) -> float:
        from repro.experiments import runner

        self.probes.reset()
        start = process_time()
        spec = self._spec(seed)
        runner.run_spec(spec.with_overrides(horizon=1e-6))
        return self.probes.first_run_at - start

    def rep(self, seed: int, seconds: float) -> Rep:
        from repro.experiments import runner

        probes = self.probes
        probes.reset()
        start = process_time()
        spec = self._spec(seed)
        result = runner.run_spec(spec)
        end = process_time()
        bundle = result.bundle
        collector = result.collector
        by_class = collector.completions_by_class()
        harness = result.extras.get("validation")
        violations = len(harness.violations) if harness is not None else 0
        solver = bundle.controller.solver
        rep = Rep(
            setup_s=probes.first_run_at - start,
            run_s=end - probes.first_run_at,
            clock_s=result.schedule.horizon,
            completions=collector.total_completions,
            olap_completions=sum(
                by_class[c.name] for c in result.classes if c.kind == "olap"
            ),
            attempted=bundle.factory.queries_created,
            failed=violations,
            slo_attainment=_attainment(result.classes, result.goal_attainment()),
            oltp_latency_s=[],
            interval_s=list(probes.interval_s),
            outcome={
                "completions": by_class,
                "attainment": result.goal_attainment(),
                "events": bundle.sim.fired_events,
            },
            counts={
                "events": bundle.sim.fired_events,
                "solves": solver.solve_calls,
                "evaluations": solver.evaluations,
                "cache_hits": solver.cache_hits,
                "intercepted": bundle.patroller.intercepted_count,
                "bypassed": bundle.patroller.bypassed_count,
            },
        )
        if violations:
            rep.problems.append("{} invariant violations".format(violations))
        if spec.invariants != "strict":
            rep.problems.append("scenario is not running strict invariants")
        return rep


# ----------------------------------------------------------------------
# control-fleet: the benchmark's own 8-class, 4-shard lockstep scenario.
# ----------------------------------------------------------------------
class ControlFleet:
    name = "control-fleet"
    simulated = True
    rep_seconds = 8.0

    def __init__(self, probes: Probes, workdir: Path) -> None:
        self.probes = probes
        self.path = SCENARIOS / "control-fleet.yaml"

    def _spec(self, seed: int):
        from repro.scenarios import loader
        from repro.scenarios import spec as scenario_spec

        return scenario_spec.to_sharded_experiment_spec(
            loader.load_scenario(self.path), seed=seed
        )

    def _run(self, spec):
        from repro.obs.live import TelemetryHub
        from repro.shard import coordinator

        hub = TelemetryHub()  # attached, with no subscriber
        return coordinator.run_sharded(spec, hub=hub), hub

    def setup_sample(self, seed: int) -> float:
        self.probes.reset()
        start = process_time()
        spec = self._spec(seed)
        spec = dataclasses.replace(spec, base=spec.base.with_overrides(horizon=1e-6))
        self._run(spec)
        return self.probes.first_run_at - start

    def rep(self, seed: int, seconds: float) -> Rep:
        probes = self.probes
        probes.reset()
        start = process_time()
        spec = self._spec(seed)
        result, hub = self._run(spec)
        end = process_time()
        report = result.report
        classes = spec.resolved_classes()
        solvers = [c.solver for c in probes.controllers]
        rep = Rep(
            setup_s=probes.first_run_at - start,
            run_s=end - probes.first_run_at,
            clock_s=spec.resolved_schedule().horizon,
            completions=report.total_completions,
            olap_completions=sum(
                report.completions.get(c.name, 0) for c in classes if c.kind == "olap"
            ),
            attempted=sum(b.factory.queries_created for b in probes.bundles),
            failed=len(result.violations),
            slo_attainment=_attainment(classes, report.attainment),
            oltp_latency_s=[],
            interval_s=list(probes.interval_s),
            outcome={
                "completions": dict(report.completions),
                "attainment": dict(report.attainment),
                "limits": list(result.final_cost_limits),
                "events": sum(b.sim.fired_events for b in probes.bundles),
            },
            counts={
                "events": sum(b.sim.fired_events for b in probes.bundles),
                "solves": sum(s.solve_calls for s in solvers),
                "evaluations": sum(s.evaluations for s in solvers),
                "cache_hits": sum(s.cache_hits for s in solvers),
                "intercepted": sum(b.patroller.intercepted_count for b in probes.bundles),
                "bypassed": sum(b.patroller.bypassed_count for b in probes.bundles),
                "hub_events": hub.seq,
            },
        )
        if not result.ok:
            rep.problems.append("global shard invariants violated")
        if spec.base.invariants != "strict":
            rep.problems.append("scenario is not running strict invariants")
        if len(probes.bundles) != spec.shards:
            rep.problems.append("expected {} shard deployments, saw {}".format(
                spec.shards, len(probes.bundles)))
        if sum(report.completions.values()) != report.total_completions:
            rep.problems.append("per-class completions do not sum to the total")
        return rep


# ----------------------------------------------------------------------
# sqlite-mixed: the control plane on wall-clock time over real SQL.
# ----------------------------------------------------------------------
class OpenLoopOLTP:
    """Open-loop Poisson OLTP arrivals at precomputed due times.

    Each arrival is created with :meth:`QueryFactory.create` and handed to
    :meth:`QueryPatroller.submit` when its due time comes; its latency is
    measured from the due time, so a stalled loop shows up as latency of
    the arrivals it delayed.
    """

    def __init__(self, bundle, class_name: str, due_offsets: List[float]) -> None:
        self.bundle = bundle
        self.class_name = class_name
        self.mix = bundle.mixes[class_name]
        self.offsets = due_offsets
        self.base = 0.0
        self.next = 0
        self.pending: Dict[int, float] = {}
        self.latency_s: List[float] = []
        self.lag_s: List[float] = []

    def start(self) -> None:
        self.base = self.bundle.sim.now
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self.next < len(self.offsets):
            due = self.base + self.offsets[self.next]
            self.bundle.sim.schedule_at(due, lambda: self._arrive(due), label="bench:oltp")

    def _arrive(self, due: float) -> None:
        self.lag_s.append(self.bundle.sim.now - due)
        index = self.next
        self.next += 1
        query = self.bundle.factory.create(
            self.mix, self.class_name, "{}-open{}".format(self.class_name, index)
        )
        query.on_complete = self._done
        self.pending[query.query_id] = due
        self.bundle.patroller.submit(query)
        self._schedule_next()

    def _done(self, query) -> None:
        due = self.pending.pop(query.query_id)
        self.latency_s.append(query.finish_time - due)


class SQLiteMixed:
    name = "sqlite-mixed"
    simulated = False
    rep_seconds = None  # one repeat lasting ``--seconds`` of wall time

    def __init__(self, probes: Probes, workdir: Path) -> None:
        self.probes = probes
        self.path = SCENARIOS / "sqlite-mixed.yaml"
        self.workdir = workdir
        self.workers = os.cpu_count() or 1
        self._db_index = 0

    def _db_path(self) -> Path:
        self._db_index += 1
        return self.workdir / "sqlite-{}-{}.db".format(os.getpid(), self._db_index)

    def _assemble(self, seed: int, seconds: float):
        """Build the deployment (database populated) with its controller."""
        from repro.experiments import runner
        from repro.scenarios import loader
        from repro.scenarios import spec as scenario_spec
        from repro.validation import attach_harness

        scenario = loader.load_scenario(self.path)
        periods = max(1, int(round(seconds / scenario.period_seconds)))
        scenario = dataclasses.replace(scenario, num_periods=periods)
        spec = scenario_spec.to_experiment_spec(scenario, seed=seed)
        db_path = self._db_path()
        options = dict(spec.backend_options, db_path=str(db_path), workers=self.workers)
        bundle = runner.build_bundle(
            config=spec.config,
            schedule=spec.schedule,
            classes=spec.classes,
            backend=spec.backend,
            backend_options=options,
        )
        try:
            controller = runner.make_controller(bundle, spec.controller)
            controller.planner.add_plan_listener(bundle.collector.on_plan)
            harness = attach_harness(bundle, mode=spec.invariants)
        except BaseException:
            self._close(bundle, db_path)
            raise
        return bundle, controller, harness, db_path

    def _close(self, bundle, db_path: Path) -> None:
        bundle.close()
        for suffix in ("", "-wal", "-shm", "-journal"):
            target = Path(str(db_path) + suffix)
            if target.exists():
                target.unlink()

    def _arrivals(self, seed: int, horizon: float) -> List[float]:
        gen = random.Random(seed)
        offsets = []
        at = gen.expovariate(OLTP_RATE)
        while at < horizon:
            offsets.append(at)
            at += gen.expovariate(OLTP_RATE)
        return offsets

    def setup_sample(self, seed: int) -> float:
        start = process_time()
        bundle, _, _, db_path = self._assemble(seed, 1.0)
        elapsed = process_time() - start
        self._close(bundle, db_path)
        return elapsed

    def rep(self, seed: int, seconds: float) -> Rep:
        probes = self.probes
        probes.reset()
        start = process_time()
        bundle, controller, harness, db_path = self._assemble(seed, seconds)
        problems: List[str] = []
        try:
            oltp = [c.name for c in bundle.classes if c.kind == "oltp"][0]
            olap = [c.name for c in bundle.classes if c.kind == "olap"]
            horizon = bundle.schedule.horizon
            generator = OpenLoopOLTP(bundle, oltp, self._arrivals(seed, horizon))
            controller.start()
            bundle.manager.start()
            generator.start()
            setup_s = process_time() - start
            cpu_start = time.thread_time()
            run_start = perf_counter()
            bundle.run(horizon=generator.base + horizon)
            run_s = perf_counter() - run_start
            loop_cpu_s = time.thread_time() - cpu_start
            by_class = bundle.collector.completions_by_class()
            slo = _mean(bundle.collector.goal_attainment(c) for c in bundle.classes)
            interval_s = list(probes.interval_s)
            # Drain: stop the closed-loop clients, give open-loop arrivals
            # until the deadline to finish.
            for name in olap:
                for client in bundle.manager.pool(name):
                    client.deactivate()
            deadline = bundle.sim.now + DRAIN_SECONDS
            while generator.pending and bundle.sim.now < deadline:
                bundle.run(horizon=bundle.sim.now + 0.05)
            unfinished = len(generator.pending) + len(generator.offsets) - generator.next
            dispatcher = controller.dispatcher
            for name in olap:
                balance = (
                    dispatcher.completed_count(name)
                    + dispatcher.cancelled_count(name)
                    + dispatcher.in_flight_count(name)
                )
                if dispatcher.released_count(name) != balance:
                    problems.append("dispatcher accounting off for {}".format(name))
            engine = bundle.engine
            errors = engine.execution_errors
            violations = len(harness.violations) if harness is not None else 0
            counts = {
                "statements": engine.statements_issued,
                "engine_completed": engine.completed_queries,
                "sql_errors": errors,
                "solves": controller.solver.solve_calls,
                "evaluations": controller.solver.evaluations,
                "cache_hits": controller.solver.cache_hits,
                "intercepted": bundle.patroller.intercepted_count,
                "bypassed": bundle.patroller.bypassed_count,
                "loop_cpu_s": loop_cpu_s,
                "generator_lag_s": list(generator.lag_s),
            }
            attempted = bundle.factory.queries_created
        finally:
            self._close(bundle, db_path)
        if errors:
            problems.append("{} SQL execution errors".format(errors))
        if unfinished:
            problems.append("{} open-loop arrivals unfinished at the drain deadline".format(unfinished))
        if violations:
            problems.append("{} invariant violations".format(violations))
        return Rep(
            setup_s=setup_s,
            run_s=run_s,
            clock_s=run_s,
            completions=sum(by_class.values()),
            olap_completions=sum(by_class[name] for name in olap),
            attempted=attempted,
            failed=errors + unfinished + violations,
            slo_attainment=slo,
            oltp_latency_s=list(generator.latency_s),
            interval_s=interval_s,
            outcome={},
            counts=counts,
            problems=problems,
        )


WORKLOADS = {cls.name: cls for cls in (PaperFigure3, ControlFleet, SQLiteMixed)}
