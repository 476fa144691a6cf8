"""Controller self-profiling: what the control loop itself costs.

The paper controls OLTP *indirectly* because per-query interception
overhead would exceed sub-second run times — an overhead argument the
original prototype never measures about itself.  This module measures it
for our controller: real wall-clock (``time.perf_counter``) spent in the
monitor / solver / dispatcher work of each control interval, kept strictly
separate from simulation time (sim time is virtual and free; wall time is
what a production deployment of this controller would actually burn).

:class:`IntervalProfiler` is deliberately tiny — ``begin()``, a
``section(name)`` context manager per timed stage, ``finish()`` — so the
planner can wrap its existing stages without restructuring.  Per-interval
results are dicts of ``<section>_s`` wall-second entries plus ``total_s``;
:func:`summarize_overhead` aggregates them to mean/max per section for the
``repro run --telemetry`` overhead block and the telemetry export.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.errors import SimulationError
from repro.runtime import Clock, as_clock

#: Key suffix for per-section wall-clock seconds.
_SUFFIX = "_s"


class IntervalProfiler:
    """Wall-clock profiler for one recurring unit of controller work.

    Parameters
    ----------
    clock:
        Monotonic wall-clock source — a :class:`~repro.runtime.Clock` or a
        bare ``() -> float`` callable (coerced via
        :func:`~repro.runtime.as_clock`); injectable for deterministic
        tests.  Defaults to a fresh wall clock.  All profiler time reads go
        exclusively through this clock, never through a simulator.
    """

    def __init__(
        self, clock: Union[Clock, Callable[[], float], None] = None
    ) -> None:
        self.clock: Clock = as_clock(clock)
        self._current: Optional[Dict[str, float]] = None
        self._started_at = 0.0
        self.history: List[Dict[str, float]] = []

    def begin(self) -> None:
        """Start timing one interval's work."""
        if self._current is not None:
            raise SimulationError("profiler interval begun twice")
        self._current = {}
        self._started_at = self.clock.now

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Time one named stage of the current interval.

        Re-entered sections accumulate (an early-triggered re-plan inside
        the same interval adds to the same key).
        """
        if self._current is None:
            raise SimulationError(
                "profiler section {!r} outside begin()/finish()".format(name)
            )
        key = name + _SUFFIX
        start = self.clock.now
        try:
            yield
        finally:
            self._current[key] = self._current.get(key, 0.0) + (
                self.clock.now - start
            )

    def finish(self) -> Dict[str, float]:
        """Close the interval; returns its ``{section_s: wall_seconds}``.

        The returned dict always carries ``total_s`` — the whole
        begin-to-finish wall time, bounding every section.
        """
        if self._current is None:
            raise SimulationError("profiler finish() without begin()")
        record = self._current
        self._current = None
        record["total_s"] = self.clock.now - self._started_at
        self.history.append(record)
        return dict(record)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Across-interval mean/max/count per section."""
        return summarize_overhead(self.history)


def summarize_overhead(
    records: List[Dict[str, float]]
) -> Dict[str, Dict[str, float]]:
    """Aggregate per-interval overhead dicts to mean/max/count per key.

    Accepts any iterable of ``{key: wall_seconds}`` dicts (the profiler's
    history, or the ``overhead`` sections of telemetry records) and skips
    keys absent from a record rather than counting them as zero.
    """
    sums: Dict[str, float] = {}
    maxima: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for record in records:
        for key, value in record.items():
            sums[key] = sums.get(key, 0.0) + value
            maxima[key] = max(maxima.get(key, value), value)
            counts[key] = counts.get(key, 0) + 1
    return {
        key: {
            "mean_s": sums[key] / counts[key],
            "max_s": maxima[key],
            "count": counts[key],
        }
        for key in sums
    }
