"""Tests for the solver's table-driven search and solution cache.

The optimized solver must be a pure speedup: for any inputs, the plan it
produces (and the score it reports) must match a reference search that
re-evaluates the full objective for every candidate allocation, and a
repeat solve on unchanged inputs must be a cache hit that returns the
same plan without searching.
"""

import math
import random

import pytest

from repro.core.modeling import OLTPResponseTimeModel, PaperAnalyticModel
from repro.core.service_class import (
    ResponseTimeGoal,
    ServiceClass,
    VelocityGoal,
)
from repro.core.solver import (
    _SOLUTION_CACHE_MAX,
    ClassStatus,
    PerformanceSolver,
    _compositions,
)
from repro.core.utility import PiecewiseLinearUtility
from repro.obs.registry import MetricsRegistry


def make_solver(num_classes=3, system_per_class=10_000.0, model=None):
    if model is None:
        model = PaperAnalyticModel(
            oltp_model=OLTPResponseTimeModel(prior_slope=-4.2e-6)
        )
    return PerformanceSolver(
        utility=PiecewiseLinearUtility(),
        model=model,
        system_cost_limit=system_per_class * num_classes,
        grid_timerons=1_000.0,
        min_class_limit=1_000.0,
    )


class NaNAboveModel(PaperAnalyticModel):
    """The paper model, except it predicts NaN for limits above a threshold.

    A NaN OLTP response time makes that class's utility NaN, so every
    candidate giving the OLTP class more than ``threshold`` scores NaN.
    """

    def __init__(self, threshold):
        super().__init__(oltp_model=OLTPResponseTimeModel(prior_slope=-4.2e-6))
        self.threshold = threshold

    def predict(self, status, proposed_limit, mix=None):
        if proposed_limit > self.threshold:
            return float("nan")
        return super().predict(status, proposed_limit, mix)


def random_statuses(rng, num_classes):
    """Randomized ClassStatus inputs: OLAP classes plus one OLTP class."""
    statuses = []
    for index in range(num_classes):
        if index == num_classes - 1:
            service_class = ServiceClass(
                "oltp", "oltp", ResponseTimeGoal(rng.uniform(0.1, 0.5)),
                importance=rng.randint(1, 3),
            )
            value = rng.uniform(0.05, 0.6)
        else:
            service_class = ServiceClass(
                "olap{}".format(index), "olap",
                VelocityGoal(rng.uniform(0.2, 0.8)),
                importance=rng.randint(1, 3),
            )
            value = rng.uniform(0.05, 0.95)
        statuses.append(
            ClassStatus(
                service_class,
                current_limit=rng.uniform(2_000.0, 20_000.0),
                current_value=value,
            )
        )
    return statuses


def twin_statuses(rng, num_classes):
    """Two identical OLAP statuses under different names (plus OLTP for 3).

    Swapping the twins' unit counts leaves a candidate's score unchanged,
    so every optimum with unequal twin shares is a tie.
    """
    goal = VelocityGoal(rng.uniform(0.2, 0.8))
    importance = rng.randint(1, 3)
    limit = rng.uniform(2_000.0, 20_000.0)
    value = rng.uniform(0.05, 0.95)
    statuses = [
        ClassStatus(
            ServiceClass(name, "olap", goal, importance=importance),
            current_limit=limit,
            current_value=value,
        )
        for name in ("twin_a", "twin_b")
    ]
    if num_classes == 3:
        statuses.append(random_statuses(rng, 1)[0])
    return statuses


def solver_units(solver):
    """The solver's (min units, total units) search bounds."""
    min_units = max(0, int(round(solver.min_class_limit / solver.grid)))
    return min_units, int(solver.system_cost_limit // solver.grid)


def reference_exhaustive(solver, statuses):
    """Brute-force best allocation using the untabulated full objective.

    Returns the best units, their score and how many candidates scored NaN.
    """
    count = len(statuses)
    min_units, total_units = solver_units(solver)
    free = total_units - min_units * count
    best_units, best_score, nan_candidates = None, float("nan"), 0
    for combo in _compositions(free, count):
        units = tuple(min_units + c for c in combo)
        limits = [u * solver.grid for u in units]
        score = solver.objective(statuses, limits)
        if math.isnan(score):
            nan_candidates += 1
            continue
        if math.isnan(best_score) or score > best_score:
            best_units, best_score = units, score
    return best_units, best_score, nan_candidates


def reference_greedy(solver, statuses):
    """The greedy hill-climb, every candidate scored by the full objective.

    Same proportional start, sum repair and best-move rule as the solver;
    no utility is reused between candidates.
    """
    count = len(statuses)
    min_units, total_units = solver_units(solver)
    current_total = sum(max(s.current_limit, 1.0) for s in statuses)
    units = [
        max(min_units, int(round(max(s.current_limit, 1.0) / current_total * total_units)))
        for s in statuses
    ]
    while sum(units) > total_units:
        index = max(range(count), key=lambda i: units[i])
        if units[index] <= min_units:
            break
        units[index] -= 1
    while sum(units) < total_units:
        units[min(range(count), key=lambda i: units[i])] += 1

    def score(candidate):
        return solver.objective(statuses, [u * solver.grid for u in candidate])

    best_score = score(units)
    while True:
        best_move = None
        for donor in range(count):
            if units[donor] <= min_units:
                continue
            for recipient in range(count):
                if recipient == donor:
                    continue
                candidate = list(units)
                candidate[donor] -= 1
                candidate[recipient] += 1
                value = score(candidate)
                if math.isnan(value):
                    continue
                improves = math.isnan(best_score) or value > best_score
                if improves and (best_move is None or value > best_move[0]):
                    best_move = (value, donor, recipient)
        if best_move is None:
            return tuple(units), best_score
        best_score, donor, recipient = best_move
        units[donor] -= 1
        units[recipient] += 1


def expected_plan(statuses, units, grid):
    return {
        s.service_class.name: u * grid for s, u in zip(statuses, units)
    }


class TestMemoizedSearchConformance:
    def test_exhaustive_matches_unmemoized_reference_randomized(self):
        rng = random.Random(20260808)
        twin_ties = partial_nan = 0
        for trial in range(75):
            kind = trial % 3
            num_classes = rng.randint(1, 3)
            model = None
            if kind == 0:
                statuses = random_statuses(rng, num_classes)
            elif kind == 1:
                # Ties: the first candidate in _compositions order (the
                # first twin with fewer units) must win.
                num_classes = rng.randint(2, 3)
                statuses = twin_statuses(rng, num_classes)
            else:
                # Partial NaN: candidates giving the OLTP class (last)
                # more than the threshold score NaN and are skipped.
                num_classes = rng.randint(2, 3)
                statuses = random_statuses(rng, num_classes)
                model = NaNAboveModel(rng.uniform(1_000.0, 10_000.0 * num_classes))
            optimized = make_solver(num_classes, model=model)
            reference = make_solver(num_classes, model=model)
            plan = optimized.solve(statuses)
            ref_units, ref_score, nan_candidates = reference_exhaustive(
                reference, statuses
            )
            assert ref_units is not None
            assert plan.as_dict() == expected_plan(statuses, ref_units, optimized.grid)
            assert optimized.last_score == pytest.approx(ref_score, abs=0.0)
            assert optimized.last_evaluations == reference.evaluations
            if kind == 1 and ref_units[0] != ref_units[1]:
                assert ref_units[0] < ref_units[1]
                twin_ties += 1
            if kind == 2 and nan_candidates:
                partial_nan += 1
        # Both kinds of input actually exercised their edge case.
        assert twin_ties >= 5
        assert partial_nan >= 5

    def test_greedy_matches_unmemoized_reference_randomized(self):
        rng = random.Random(7)
        for trial in range(20):
            num_classes = rng.randint(4, 7)
            statuses = random_statuses(rng, num_classes)
            if trial % 2:
                # Twins start with equal shares, so moves feeding either
                # one tie exactly: the first move found must win.
                statuses[:2] = twin_statuses(rng, 2)
            optimized = make_solver(num_classes)
            reference = make_solver(num_classes)
            plan = optimized.solve(statuses)
            ref_units, ref_score = reference_greedy(reference, statuses)
            assert plan.as_dict() == expected_plan(statuses, ref_units, optimized.grid)
            assert optimized.last_score == pytest.approx(ref_score, abs=0.0)
            assert optimized.last_evaluations == reference.evaluations

    def test_memo_does_not_change_evaluation_count(self):
        # Every candidate allocation is still counted as one evaluation;
        # the tables only avoid recomputing per-class utilities.
        rng = random.Random(3)
        statuses = random_statuses(rng, 3)
        solver = make_solver(3)
        solver.solve(statuses)
        free = int(solver.system_cost_limit // solver.grid) - 3
        candidates = len(list(_compositions(free, 3)))
        assert solver.last_evaluations == candidates


class TestSolutionCache:
    def test_repeat_solve_is_cache_hit_with_same_plan(self):
        rng = random.Random(11)
        statuses = random_statuses(rng, 3)
        solver = make_solver(3)
        first = solver.solve(statuses, now=0.0)
        assert solver.cache_hits == 0
        second = solver.solve(statuses, now=60.0)
        assert solver.cache_hits == 1
        assert second.as_dict() == first.as_dict()
        assert second.created_at == 60.0
        assert solver.last_evaluations == 0  # served without searching
        assert solver.solve_calls == 2

    def test_changed_measurement_misses_cache(self):
        solver = make_solver(3)
        rng = random.Random(13)
        statuses = random_statuses(rng, 3)
        solver.solve(statuses)
        statuses[0].current_value *= 0.5
        solver.solve(statuses)
        assert solver.cache_hits == 0
        assert solver.last_evaluations > 0

    def test_model_learning_invalidates_cache(self):
        # observe() bumps the model's observation count, which is part of
        # the cache key: a learned slope must not be served a stale plan.
        solver = make_solver(3)
        rng = random.Random(17)
        statuses = random_statuses(rng, 3)
        solver.solve(statuses)
        solver.oltp_model.observe(2_000.0, -0.05)
        solver.solve(statuses)
        assert solver.cache_hits == 0

    def test_cache_capacity_is_bounded(self):
        solver = make_solver(3)
        rng = random.Random(19)
        for _ in range(_SOLUTION_CACHE_MAX + 10):
            solver.solve(random_statuses(rng, 3))
        assert len(solver._solution_cache) <= _SOLUTION_CACHE_MAX

    def test_cache_hits_instrument_registered(self):
        registry = MetricsRegistry()
        solver = make_solver(3)
        solver.register_instruments(registry)
        rng = random.Random(23)
        statuses = random_statuses(rng, 3)
        solver.solve(statuses)
        solver.solve(statuses)
        sample = registry.sample(now=0.0)
        assert sample["solver_cache_hits_total"] == 1
