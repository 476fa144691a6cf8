"""Tests for the Scheduling Planner control loop."""

import pytest

from repro.config import (
    MonitorConfig,
    PatrollerConfig,
    PlannerConfig,
    default_config,
)
from repro.core.dispatcher import Dispatcher
from repro.core.modeling import OLTPResponseTimeModel
from repro.core.monitor import Monitor
from repro.core.plan import SchedulingPlan
from repro.core.planner import SchedulingPlanner
from repro.core.service_class import (
    ResponseTimeGoal,
    ServiceClass,
    paper_classes,
)
from repro.core.solver import PerformanceSolver
from repro.core.utility import PiecewiseLinearUtility
from repro.dbms.engine import DatabaseEngine
from repro.errors import SchedulingError
from repro.patroller.patroller import QueryPatroller
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def make_planner(online_regression=False, classes=None):
    sim = Simulator()
    planner_config = PlannerConfig(
        control_interval=10.0, online_regression=online_regression
    )
    config = default_config(
        planner=planner_config,
        monitor=MonitorConfig(snapshot_interval=2.0),
        patroller=PatrollerConfig(
            interception_latency=0.0, release_latency=0.0, overhead_cpu_demand=0.0
        ),
    )
    engine = DatabaseEngine(sim, config, RandomStreams(13))
    patroller = QueryPatroller(sim, engine, config.patroller)
    classes = list(classes if classes is not None else paper_classes())
    for c in classes:
        if c.directly_controlled:
            patroller.enable_for_class(c.name)
    plan = SchedulingPlan.even_split([c.name for c in classes], 30_000.0)
    dispatcher = Dispatcher(patroller, engine, classes, plan)
    patroller.set_release_handler(dispatcher.enqueue)
    monitor = Monitor(sim, engine, classes, config.monitor)
    solver = PerformanceSolver(
        utility=PiecewiseLinearUtility(),
        oltp_model=OLTPResponseTimeModel(prior_slope=-4.2e-6),
        system_cost_limit=30_000.0,
    )
    planner = SchedulingPlanner(sim, monitor, dispatcher, solver, classes, planner_config)
    return sim, engine, monitor, dispatcher, planner


def test_start_schedules_recurring_intervals():
    sim, engine, monitor, dispatcher, planner = make_planner()
    planner.start()
    sim.run_until(35.0)
    assert planner.intervals_run == 3
    assert len(planner.history) == 3


def test_double_start_rejected():
    sim, engine, monitor, dispatcher, planner = make_planner()
    planner.start()
    with pytest.raises(SchedulingError):
        planner.start()


def test_run_interval_installs_plan_on_dispatcher():
    sim, engine, monitor, dispatcher, planner = make_planner()
    record = planner.run_interval()
    assert dispatcher.plan is record.plan
    assert record.plan.total_allocated <= 30_000.0 + 1e-6


def test_plan_listener_invoked():
    sim, engine, monitor, dispatcher, planner = make_planner()
    records = []
    planner.add_plan_listener(records.append)
    planner.run_interval()
    planner.run_interval()
    assert len(records) == 2
    assert records[0].plan is planner.history[0].plan


def test_no_measurements_yields_stable_plan():
    """With every class assumed at goal, consecutive plans agree."""
    sim, engine, monitor, dispatcher, planner = make_planner()
    first = planner.run_interval().plan
    second = planner.run_interval().plan
    assert first == second


def test_two_oltp_classes_rejected():
    oltp_a = ServiceClass("a", "oltp", ResponseTimeGoal(0.2), 1)
    oltp_b = ServiceClass("b", "oltp", ResponseTimeGoal(0.3), 2)
    with pytest.raises(SchedulingError):
        make_planner(classes=[oltp_a, oltp_b])


def test_offline_mode_never_feeds_regression():
    sim, engine, monitor, dispatcher, planner = make_planner(online_regression=False)
    # Fabricate OLTP measurements so regression *could* run.
    from repro.core.monitor import ClassMeasurement

    for i in range(4):
        monitor._last_measurement["class3"] = ClassMeasurement(
            "class3", "response_time", 0.3 + 0.01 * i, 5, float(i)
        )
        planner.run_interval()
    assert planner.oltp_model.observations == 0


def test_online_mode_feeds_regression_after_two_intervals():
    sim, engine, monitor, dispatcher, planner = make_planner(online_regression=True)
    from repro.core.monitor import ClassMeasurement

    # Alternate violating / meeting so the planned OLTP limit moves.
    values = [0.40, 0.15, 0.40, 0.15, 0.40]
    fed = 0
    for i, value in enumerate(values):
        monitor._last_measurement["class3"] = ClassMeasurement(
            "class3", "response_time", value, 5, float(i)
        )
        planner.run_interval()
    assert planner.oltp_model.observations > 0
