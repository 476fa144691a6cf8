"""Tests for the Performance Solver."""

import pytest

from repro.core.modeling import OLTPResponseTimeModel
from repro.core.plan import SchedulingPlan
from repro.core.service_class import (
    ResponseTimeGoal,
    ServiceClass,
    VelocityGoal,
)
from repro.core.solver import ClassStatus, PerformanceSolver, _compositions
from repro.core.utility import PiecewiseLinearUtility
from repro.errors import SchedulingError


def make_solver(system=30_000.0, grid=1_000.0, minimum=1_000.0, margin=1.0):
    return PerformanceSolver(
        utility=PiecewiseLinearUtility(),
        oltp_model=OLTPResponseTimeModel(prior_slope=-4.2e-6),
        system_cost_limit=system,
        grid_timerons=grid,
        min_class_limit=minimum,
        oltp_target_margin=margin,
    )


def olap(name, goal, importance):
    return ServiceClass(name, "olap", VelocityGoal(goal), importance)


def oltp(name, goal, importance):
    return ServiceClass(name, "oltp", ResponseTimeGoal(goal), importance)


def paper_statuses(v1=0.4, v2=0.6, t3=0.25, c1=10_000, c2=10_000, c3=10_000):
    return [
        ClassStatus(olap("class1", 0.4, 1), c1, v1),
        ClassStatus(olap("class2", 0.6, 2), c2, v2),
        ClassStatus(oltp("class3", 0.25, 3), c3, t3),
    ]


class TestCompositions:
    def test_enumerates_simplex(self):
        combos = list(_compositions(3, 2))
        assert sorted(combos) == [(0, 3), (1, 2), (2, 1), (3, 0)]

    def test_count_matches_stars_and_bars(self):
        # C(n + k - 1, k - 1) with n=5, k=3 -> C(7,2) = 21
        assert len(list(_compositions(5, 3))) == 21

    def test_single_part(self):
        assert list(_compositions(4, 1)) == [(4,)]


class TestSolve:
    def test_plan_respects_system_limit_and_minimums(self):
        solver = make_solver()
        plan = solver.solve(paper_statuses())
        assert plan.total_allocated <= 30_000.0 + 1e-6
        for name in plan:
            assert plan.limit(name) >= 1_000.0

    def test_spends_whole_budget(self):
        solver = make_solver()
        plan = solver.solve(paper_statuses())
        assert plan.total_allocated == pytest.approx(30_000.0)

    def test_violating_oltp_class_gains_resources(self):
        solver = make_solver()
        balanced = solver.solve(paper_statuses(t3=0.25))
        violating = solver.solve(paper_statuses(t3=0.40))
        assert violating.limit("class3") > balanced.limit("class3")

    def test_satisfied_oltp_class_stripped_to_need(self):
        """Figure 7: a class meeting its goal gets few resources."""
        solver = make_solver()
        plan = solver.solve(paper_statuses(t3=0.10, v1=0.2, v2=0.3))
        # class3 comfortably meets its goal; OLAP classes are starving.
        assert plan.limit("class3") < 10_000.0

    def test_importance_orders_violation_repair(self):
        """Two equally violating OLAP classes: the important one gets more."""
        solver = make_solver()
        statuses = [
            ClassStatus(olap("lo", 0.6, 1), 10_000, 0.3),
            ClassStatus(olap("hi", 0.6, 2), 10_000, 0.3),
            ClassStatus(oltp("class3", 0.25, 3), 10_000, 0.10),
        ]
        plan = solver.solve(statuses)
        assert plan.limit("hi") > plan.limit("lo")

    def test_missing_measurement_assumes_goal(self):
        status = ClassStatus(olap("c", 0.5, 1), 10_000, None)
        assert status.current_value == 0.5

    def test_oltp_margin_targets_below_goal(self):
        tight = make_solver(margin=0.9)
        loose = make_solver(margin=1.0)
        # Sitting exactly at goal: the margined solver still sees a
        # violation and reserves more for the OLTP class.
        tight_plan = tight.solve(paper_statuses(t3=0.25, v1=0.5, v2=0.7))
        loose_plan = loose.solve(paper_statuses(t3=0.25, v1=0.5, v2=0.7))
        assert tight_plan.limit("class3") >= loose_plan.limit("class3")

    def test_created_at_stamped(self):
        solver = make_solver()
        plan = solver.solve(paper_statuses(), now=123.0)
        assert plan.created_at == 123.0

    def test_duplicate_class_names_rejected(self):
        solver = make_solver()
        statuses = [
            ClassStatus(olap("same", 0.5, 1), 1_000, 0.5),
            ClassStatus(olap("same", 0.5, 1), 1_000, 0.5),
        ]
        with pytest.raises(SchedulingError):
            solver.solve(statuses)

    def test_infeasible_minimums_rejected(self):
        solver = make_solver(system=2_000.0, minimum=1_000.0)
        with pytest.raises(SchedulingError):
            solver.solve(paper_statuses())

    def test_empty_statuses_rejected(self):
        with pytest.raises(SchedulingError):
            make_solver().solve([])

    def test_counters(self):
        solver = make_solver()
        solver.solve(paper_statuses())
        assert solver.solve_calls == 1
        assert solver.evaluations > 100  # exhaustive enumeration happened


class TestGreedyPath:
    def _many_statuses(self, n=5):
        statuses = []
        for i in range(n):
            statuses.append(
                ClassStatus(olap("c{}".format(i), 0.5, 1 + (i % 3)), 6_000, 0.3 + 0.1 * i)
            )
        return statuses

    def test_greedy_used_above_three_classes(self):
        solver = make_solver()
        plan = solver.solve(self._many_statuses(5))
        assert plan.total_allocated <= 30_000.0 + 1e-6
        assert len(plan) == 5
        for name in plan:
            assert plan.limit(name) >= 1_000.0

    def test_greedy_matches_exhaustive_on_three_classes(self):
        """The greedy climber should land on (or near) the exhaustive
        optimum for a small instance."""
        solver = make_solver()
        statuses = paper_statuses(v1=0.2, v2=0.7, t3=0.35)
        exhaustive_plan, _ = solver._solve_exhaustive(statuses, 30, 1)
        greedy_plan, _ = solver._solve_greedy(statuses, 30, 1)
        exhaustive_score = solver.objective(
            statuses, [u * 1_000.0 for u in exhaustive_plan]
        )
        greedy_score = solver.objective(statuses, [u * 1_000.0 for u in greedy_plan])
        assert greedy_score >= exhaustive_score - 1e-6


class _NaNUtility:
    """A pathological utility: every achievement scores NaN."""

    def value(self, achievement, importance):
        return float("nan")


class TestNaNResilience:
    """Regression: an all-NaN objective used to make ``_solve_exhaustive``
    return an empty tuple (``max`` over no finite candidates), crashing
    plan construction downstream."""

    def _nan_solver(self):
        return PerformanceSolver(
            utility=_NaNUtility(),
            oltp_model=OLTPResponseTimeModel(prior_slope=-4.2e-6),
            system_cost_limit=30_000.0,
            grid_timerons=1_000.0,
            min_class_limit=1_000.0,
        )

    def test_exhaustive_all_nan_returns_full_fallback(self):
        solver = self._nan_solver()
        units, score = solver._solve_exhaustive(paper_statuses(), 30, 1)
        assert len(units) == 3
        assert sum(units) == 30
        assert all(u >= 1 for u in units)
        import math
        assert math.isnan(score)

    def test_solve_all_nan_yields_feasible_plan(self):
        solver = self._nan_solver()
        plan = solver.solve(paper_statuses())
        assert len(plan) == 3
        assert plan.total_allocated == pytest.approx(30_000.0)
        for name in plan:
            assert plan.limit(name) >= 1_000.0
        assert solver.last_score is None

    def test_greedy_all_nan_yields_feasible_plan(self):
        solver = self._nan_solver()
        statuses = [
            ClassStatus(olap("c{}".format(i), 0.5, 1), 6_000, 0.4)
            for i in range(5)
        ]
        plan = solver.solve(statuses)
        assert len(plan) == 5
        assert plan.total_allocated <= 30_000.0 + 1e-6
        assert solver.last_score is None

    def test_nan_measurement_still_produces_plan(self):
        """A NaN creeping in through a measurement must not break solve."""
        solver = make_solver()
        plan = solver.solve(paper_statuses(v1=float("nan")))
        assert len(plan) == 3
        assert plan.total_allocated <= 30_000.0 + 1e-6

    def test_last_score_and_evaluations_track_solves(self):
        solver = make_solver()
        solver.solve(paper_statuses())
        assert solver.last_score is not None
        first_evals = solver.last_evaluations
        assert first_evals > 100  # exhaustive enumeration
        solver.solve(paper_statuses(t3=0.4))
        assert solver.last_evaluations == first_evals
        assert solver.evaluations == 2 * first_evals


def test_solver_validation():
    with pytest.raises(SchedulingError):
        make_solver(grid=0.0)
    with pytest.raises(SchedulingError):
        make_solver(system=-1.0)
    with pytest.raises(SchedulingError):
        make_solver(margin=0.0)
    with pytest.raises(SchedulingError):
        PerformanceSolver(
            utility=PiecewiseLinearUtility(),
            oltp_model=OLTPResponseTimeModel(),
            system_cost_limit=1000.0,
            min_class_limit=-5.0,
        )
