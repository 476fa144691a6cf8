"""The Performance Solver.

"The Scheduling Planner consults with the Performance Solver at regular
intervals to determine an optimal scheduling plan" (Section 2): maximise the
summed utility of predicted per-class achievement, subject to the class cost
limits summing to the system cost limit.

The search space is the allocation simplex discretised at a timeron
granularity.  Utilities are non-decreasing in a class's own limit (more
budget never hurts a class), so the optimum always spends the whole system
limit; we therefore enumerate full allocations only.  For up to three
classes (the paper's experiment) exhaustive enumeration is a few hundred
points; beyond that a greedy unit-reallocation ascent is used.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.modeling import (
    MixSnapshot,
    OLTPResponseTimeModel,
    PaperAnalyticModel,
    PerformanceModel,
)
from repro.core.plan import SchedulingPlan
from repro.core.service_class import ServiceClass
from repro.core.utility import UtilityFunction
from repro.errors import SchedulingError

#: Class counts up to which the solver enumerates the simplex exhaustively.
_EXHAUSTIVE_MAX_CLASSES = 3

#: Solved-plan cache entries kept before the cache is dropped wholesale.
#: Statuses repeat only while measurements are stable, so the cache stays
#: tiny in practice; the cap merely bounds pathological churn.
_SOLUTION_CACHE_MAX = 64

_NAN = float("nan")


class ClassStatus:
    """Solver input for one class: where it is now."""

    __slots__ = ("service_class", "current_limit", "current_value")

    def __init__(
        self,
        service_class: ServiceClass,
        current_limit: float,
        current_value: Optional[float],
    ) -> None:
        self.service_class = service_class
        self.current_limit = current_limit
        # With no measurement yet, assume the class sits exactly at goal:
        # the solver then has no reason to move resources toward or away.
        if current_value is None:
            current_value = service_class.goal.target
        self.current_value = current_value


class PerformanceSolver:
    """Utility-maximising allocator of the system cost limit."""

    def __init__(
        self,
        utility: UtilityFunction,
        oltp_model: Optional[OLTPResponseTimeModel] = None,
        system_cost_limit: float = 0.0,
        grid_timerons: float = 1000.0,
        min_class_limit: float = 1000.0,
        oltp_target_margin: float = 1.0,
        model: Optional[PerformanceModel] = None,
    ) -> None:
        if grid_timerons <= 0:
            raise SchedulingError("grid_timerons must be positive")
        if min_class_limit < 0:
            raise SchedulingError("min_class_limit must be non-negative")
        if system_cost_limit <= 0:
            raise SchedulingError("system_cost_limit must be positive")
        if not 0 < oltp_target_margin <= 1:
            raise SchedulingError("oltp_target_margin must be in (0, 1]")
        if model is not None and oltp_model is not None:
            raise SchedulingError(
                "pass either a PerformanceModel or an oltp_model, not both"
            )
        if model is None:
            # Back-compat construction: an OLTP model (or nothing) wraps
            # into the paper's analytic pair, the bit-identical default.
            model = PaperAnalyticModel(oltp_model=oltp_model)
        self.model: PerformanceModel = model
        self.utility = utility
        self.system_cost_limit = system_cost_limit
        self.grid = grid_timerons
        self.min_class_limit = min_class_limit
        self.oltp_target_margin = oltp_target_margin
        self._solve_calls = 0
        self._evaluations = 0
        self._last_score: Optional[float] = None
        self._last_evaluations = 0
        # Solved (units, score) keyed by the full solver input: reused when
        # the class statuses and the OLTP model are unchanged between
        # control intervals.
        self._solution_cache: Dict[tuple, Tuple[Tuple[int, ...], float]] = {}
        self._cache_hits = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def solve_calls(self) -> int:
        """Number of plans produced."""
        return self._solve_calls

    @property
    def evaluations(self) -> int:
        """Candidate allocations evaluated across all solves."""
        return self._evaluations

    @property
    def last_score(self) -> Optional[float]:
        """Objective score of the most recent solve's chosen allocation.

        None before the first solve, and when every candidate scored NaN
        (the fallback allocation was used unscored).
        """
        return self._last_score

    @property
    def last_evaluations(self) -> int:
        """Candidate allocations evaluated by the most recent solve.

        Zero when the solve was served from the solution cache.
        """
        return self._last_evaluations

    @property
    def cache_hits(self) -> int:
        """Solves answered from the solution cache (inputs unchanged)."""
        return self._cache_hits

    @property
    def oltp_model(self) -> Optional[OLTPResponseTimeModel]:
        """The analytic OLTP regression, when the model keeps one.

        Back-compat accessor: the paper model exposes its
        :class:`OLTPResponseTimeModel` as ``.oltp``; learned/oracle
        models have no scalar-slope regression and yield ``None``.
        """
        return getattr(self.model, "oltp", None)

    def set_system_cost_limit(self, limit: float) -> None:
        """Retarget the solver to a new global budget.

        The solution cache is keyed only by class statuses and model
        state (the budget is normally fixed per instance), so changing
        the budget must drop it — a cached plan for the old budget would
        otherwise be replayed under the new one.  The sharded control
        plane's interval rebalancing re-splits the global limit across
        shard solvers through this.
        """
        if limit <= 0:
            raise SchedulingError("system_cost_limit must be positive")
        if limit != self.system_cost_limit:
            self.system_cost_limit = limit
            self._solution_cache.clear()

    def register_instruments(self, registry: "MetricsRegistry") -> None:  # noqa: F821
        """Publish the solver's search counters into a registry."""
        registry.counter(
            "solver_solve_calls_total",
            description="Plans produced by the Performance Solver",
            callback=lambda: self._solve_calls,
        )
        registry.counter(
            "solver_evaluations_total",
            description="Candidate allocations evaluated across all solves",
            callback=lambda: self._evaluations,
        )
        registry.gauge(
            "solver_last_score",
            description="Objective score of the most recent solve",
            callback=lambda: self._last_score if self._last_score is not None else 0.0,
        )
        registry.counter(
            "solver_cache_hits_total",
            description="Solves answered from the solution cache",
            callback=lambda: self._cache_hits,
        )

    # ------------------------------------------------------------------
    # Prediction and objective
    # ------------------------------------------------------------------
    def predict_value(
        self,
        status: ClassStatus,
        new_limit: float,
        mix: Optional[MixSnapshot] = None,
    ) -> float:
        """Predicted metric value for a class under a candidate limit."""
        return self.model.predict(status, new_limit, mix)

    def class_utility(
        self,
        status: ClassStatus,
        new_limit: float,
        mix: Optional[MixSnapshot] = None,
    ) -> float:
        """Utility contribution of one class under a candidate limit.

        The OLTP class is scored against ``goal * oltp_target_margin`` so
        the controller aims slightly below its SLO (control headroom);
        reported attainment elsewhere always uses the true goal.
        """
        predicted = self.predict_value(status, new_limit, mix)
        service_class = status.service_class
        if service_class.kind == "oltp" and self.oltp_target_margin < 1.0:
            # Equivalent to achievement against a margin-scaled target
            # (unclamped, like ResponseTimeGoal.achievement).
            target = service_class.goal.target * self.oltp_target_margin
            achievement = 2.0 - predicted / target
        else:
            achievement = service_class.goal.achievement(predicted)
        return self.utility.value(achievement, service_class.importance)

    def objective(
        self,
        statuses: Sequence[ClassStatus],
        limits: Sequence[float],
        mix: Optional[MixSnapshot] = None,
    ) -> float:
        """Total utility of a full candidate allocation.

        Summed left to right in status order from ``0.0`` — the float
        sequence the searches reproduce from their utility tables.  (An
        explicit loop, since ``sum`` of floats is compensated from
        Python 3.12 on.)
        """
        self._evaluations += 1
        score = 0.0
        for status, limit in zip(statuses, limits):
            score += self.class_utility(status, limit, mix)
        return score

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        statuses: Sequence[ClassStatus],
        now: float = 0.0,
        mix: Optional[MixSnapshot] = None,
    ) -> SchedulingPlan:
        """Produce the utility-optimal plan for the given class statuses."""
        if not statuses:
            raise SchedulingError("solver needs at least one class status")
        self._solve_calls += 1
        names = [s.service_class.name for s in statuses]
        if len(set(names)) != len(names):
            raise SchedulingError("duplicate class names in solver input")
        min_units = max(0, int(round(self.min_class_limit / self.grid)))
        total_units = int(self.system_cost_limit // self.grid)
        if total_units < min_units * len(statuses):
            raise SchedulingError(
                "system cost limit {} cannot give {} classes {} timerons each".format(
                    self.system_cost_limit, len(statuses), self.min_class_limit
                )
            )
        cache_key = self._cache_key(statuses, mix)
        cached = self._solution_cache.get(cache_key)
        if cached is not None:
            best_units, best_score = cached
            self._cache_hits += 1
            self._last_evaluations = 0
        else:
            evaluations_before = self._evaluations
            if len(statuses) <= _EXHAUSTIVE_MAX_CLASSES:
                best_units, best_score = self._solve_exhaustive(
                    statuses, total_units, min_units, mix
                )
            else:
                best_units, best_score = self._solve_greedy(
                    statuses, total_units, min_units, mix
                )
            self._last_evaluations = self._evaluations - evaluations_before
            if len(self._solution_cache) >= _SOLUTION_CACHE_MAX:
                self._solution_cache.clear()
            self._solution_cache[cache_key] = (best_units, best_score)
        self._last_score = None if math.isnan(best_score) else best_score
        if len(best_units) != len(names):
            raise SchedulingError(
                "solver produced {} limits for {} classes".format(
                    len(best_units), len(names)
                )
            )
        limits = {
            name: units * self.grid for name, units in zip(names, best_units)
        }
        return SchedulingPlan(limits, self.system_cost_limit, created_at=now)

    def _cache_key(
        self, statuses: Sequence[ClassStatus], mix: Optional[MixSnapshot] = None
    ) -> tuple:
        """Hashable fingerprint of everything a solve's outcome depends on.

        Covers each class's identity, goal, importance and measured state,
        plus the model's :meth:`~repro.core.modeling.PerformanceModel.fingerprint`
        — it changes whenever learned state shifts predictions, versioning
        the model without hashing its full internals.  Mix-aware models
        additionally contribute a mix fingerprint (mix-blind models return
        None there, preserving their cache behaviour).  The solver's own
        parameters (grid, limits, utility shape) are fixed per instance and
        need no key component.
        """
        parts = []
        for status in statuses:
            service_class = status.service_class
            goal = service_class.goal
            parts.append(
                (
                    service_class.name,
                    service_class.kind,
                    type(goal).__name__,
                    goal.target,
                    service_class.importance,
                    status.current_limit,
                    status.current_value,
                )
            )
        return (
            tuple(parts),
            self.model.fingerprint(),
            self.model.mix_fingerprint(mix),
        )

    @staticmethod
    def _fallback_units(count: int, total_units: int, min_units: int) -> Tuple[int, ...]:
        """An even full allocation, used when no candidate scores finitely."""
        free_units = total_units - min_units * count
        base, remainder = divmod(free_units, count)
        return tuple(
            min_units + base + (1 if index < remainder else 0)
            for index in range(count)
        )

    def _utility_table(
        self,
        status: ClassStatus,
        counts: range,
        mix: Optional[MixSnapshot] = None,
    ) -> List[float]:
        """One class's utilities for ``counts``, indexed by unit count.

        The objective is separable — a sum of per-class utilities, each a
        function of that class's limit alone — so within one solve every
        (class, unit count) utility is computed once and then read from
        the table.  Counts below ``counts.start`` are never read and hold
        NaN.
        """
        grid = self.grid
        table = [_NAN] * counts.start
        table.extend(self.class_utility(status, count * grid, mix) for count in counts)
        return table

    def _solve_exhaustive(
        self,
        statuses: Sequence[ClassStatus],
        total_units: int,
        min_units: int,
        mix: Optional[MixSnapshot] = None,
    ) -> Tuple[Tuple[int, ...], float]:
        """Best full allocation over every point of the simplex.

        Each class's utilities are tabulated up front for every unit count
        a candidate can give it; the candidates are then scored from the
        tables (see :func:`_best_composition`) and each still counts as
        one evaluation.
        """
        count = len(statuses)
        free_units = total_units - min_units * count
        self._evaluations += math.comb(free_units + count - 1, count - 1)
        if count == 1:
            # One candidate: the class takes the whole budget.
            counts = range(total_units, total_units + 1)
        else:
            counts = range(min_units, min_units + free_units + 1)
        tables = [self._utility_table(status, counts, mix) for status in statuses]
        first_units, first_score = _first_scoring(tables, free_units, min_units)
        if first_units is None:
            # Every score is NaN (e.g. a NaN measurement reaching the
            # utility): fall back to the even split so the plan stays a
            # complete allocation instead of the empty tuple.
            return self._fallback_units(count, total_units, min_units), first_score
        return _best_composition(tables, free_units, min_units, first_units, first_score)

    def _solve_greedy(
        self,
        statuses: Sequence[ClassStatus],
        total_units: int,
        min_units: int,
        mix: Optional[MixSnapshot] = None,
    ) -> Tuple[Tuple[int, ...], float]:
        count = len(statuses)
        # Start proportional to current limits (projected onto the grid).
        current_total = sum(max(s.current_limit, 1.0) for s in statuses)
        units: List[int] = []
        for status in statuses:
            share = max(status.current_limit, 1.0) / current_total
            units.append(max(min_units, int(round(share * total_units))))
        # Repair the sum.
        while sum(units) > total_units:
            index = max(range(count), key=lambda i: units[i])
            if units[index] <= min_units:
                break
            units[index] -= 1
        while sum(units) < total_units:
            index = min(range(count), key=lambda i: units[i])
            units[index] += 1
        # Hill-climb single-unit transfers until no move improves.  A move
        # changes only the donor's and recipient's unit counts, so each
        # candidate reads two table entries (filled lazily, ``None`` until
        # first needed) and re-sums in status order from the first changed
        # class on; the shared prefix of that left-to-right sum is the
        # current allocation's, computed once per round.  Scores are thus
        # the same float sequence :meth:`objective` would produce.
        grid = self.grid
        tables: List[List[Optional[float]]] = [
            [None] * (total_units + 1) for _ in statuses
        ]

        def utility(index: int, at: int) -> float:
            table = tables[index]
            value = table[at]
            if value is None:
                value = self.class_utility(statuses[index], at * grid, mix)
                table[at] = value
            return value

        current = [utility(index, units[index]) for index in range(count)]
        prefix = [0.0]
        for value in current:
            prefix.append(prefix[-1] + value)
        best_score = prefix[-1]
        self._evaluations += 1
        improved = True
        while improved:
            improved = False
            best_move: Optional[Tuple[float, int, int]] = None
            for donor in range(count):
                if units[donor] <= min_units:
                    continue
                # The candidate's per-class utilities: the current ones with
                # the donor's (and, per recipient, the recipient's) swapped.
                row = list(current)
                row[donor] = utility(donor, units[donor] - 1)
                for recipient in range(count):
                    if recipient == donor:
                        continue
                    row[recipient] = utility(recipient, units[recipient] + 1)
                    self._evaluations += 1
                    first = donor if donor < recipient else recipient
                    score = prefix[first]
                    for value in row[first:]:
                        score += value
                    row[recipient] = current[recipient]
                    if math.isnan(score):
                        continue
                    improves = math.isnan(best_score) or score > best_score
                    if improves and (best_move is None or score > best_move[0]):
                        best_move = (score, donor, recipient)
            if best_move is not None:
                best_score, donor, recipient = best_move
                units[donor] -= 1
                units[recipient] += 1
                current[donor] = utility(donor, units[donor])
                current[recipient] = utility(recipient, units[recipient])
                for index in range(count):
                    prefix[index + 1] = prefix[index] + current[index]
                improved = True
        return tuple(units), best_score


def _first_scoring(
    tables: Sequence[List[float]], free_units: int, min_units: int
) -> Tuple[Optional[Tuple[int, ...]], float]:
    """The first candidate in :func:`_compositions` order scoring non-NaN.

    Returns ``(None, nan)`` when every candidate scores NaN.
    """
    for combo in _compositions(free_units, len(tables)):
        units = tuple(min_units + c for c in combo)
        score = 0.0
        for table, count in zip(tables, units):
            score += table[count]
        if not math.isnan(score):
            return units, score
    return None, _NAN


def _best_composition(
    tables: Sequence[List[float]],
    free_units: int,
    min_units: int,
    best_units: Tuple[int, ...],
    best_score: float,
) -> Tuple[Tuple[int, ...], float]:
    """The first candidate reaching the maximum score, at least ``best_score``.

    Walks the candidates in :func:`_compositions` order (head ascending)
    with the strict ``>`` first-found tie-break.  Each score is the float
    sequence :meth:`PerformanceSolver.objective` sums — ``((0.0 + t0[a]) +
    t1[b]) + t2[c]`` — with the prefix over all but the last two classes
    carried down the loops rather than recomputed.  NaN scores never
    compare greater, so they are skipped.  The search is seeded with the
    first non-NaN candidate (:func:`_first_scoring`).
    """
    if len(tables) == 1:
        return best_units, best_score
    penultimate, last = tables[-2], tables[-1]
    for prefix_units, prefix_score, remaining in _prefixes(
        tables[:-2], free_units, min_units, (), 0.0
    ):
        # The last class gets what the penultimate one leaves:
        # (min + remaining) - (units - min) = top - units.
        top = 2 * min_units + remaining
        for units in range(min_units, min_units + remaining + 1):
            score = (prefix_score + penultimate[units]) + last[top - units]
            if score > best_score:
                best_score = score
                best_units = prefix_units + (units, top - units)
    return best_units, best_score


def _prefixes(
    tables: Sequence[List[float]],
    remaining: int,
    min_units: int,
    units: Tuple[int, ...],
    score: float,
) -> Iterator[Tuple[Tuple[int, ...], float, int]]:
    """Yield ``(units, partial score, free units left)`` for every head assignment.

    Heads ascend per class, the outermost class first — the order of
    :func:`_compositions`.
    """
    if not tables:
        yield units, score, remaining
        return
    table, rest = tables[0], tables[1:]
    for head in range(remaining + 1):
        count = min_units + head
        yield from _prefixes(
            rest, remaining - head, min_units, units + (count,), score + table[count]
        )


def _compositions(total: int, parts: int):
    """Yield every tuple of ``parts`` non-negative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail
