"""Layer tracing from outside the program.

The benchmark never edits ``src/``: it measures each layer by replacing
the layer's public entry points (class attributes and module functions)
with wrappers that open a span around the original call.  Callbacks
handed to a timer service are wrapped as well and attributed to the
module that owns them, so an event fired by the loop is charged to the
layer whose code it runs.

Self time is kept exactly with one clock read per span boundary: the
time since the previous boundary goes to whichever span is on top of the
stack (or to ``unattributed`` when none is).  Per-layer self time plus
unattributed time therefore adds up to the traced wall time.  Only the
first ``span_cap`` spans are kept in memory and written out; counts and
self times cover every span.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Module prefix -> layer, most specific first.
_MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.resources", "sim.resources"),
    ("repro.sim", "sim.engine"),
    ("repro.dbms", "dbms"),
    ("repro.workloads", "workloads"),
    ("repro.patroller", "patroller"),
    ("repro.metrics.collector", "metrics"),
    ("repro.metrics.telemetry", "obs"),
    ("repro.metrics", "metrics"),
    ("repro.core.monitor", "core.monitor"),
    ("repro.core.solver", "core.solver"),
    ("repro.core.dispatcher", "core.dispatcher"),
    ("repro.core.planner", "core.planner"),
    ("repro.core", "core.other"),
    ("repro.obs", "obs"),
    ("repro.validation", "validation"),
    ("repro.shard", "shard"),
    ("repro.runtime.sqlite_engine", "runtime.sql"),
    ("repro.runtime", "runtime.timers"),
    ("repro.scenarios", "setup"),
    ("repro.experiments", "setup"),
)


def layer_of_module(module: Optional[str]) -> str:
    """The layer a module belongs to (``bench`` for code outside repro)."""
    if module:
        for prefix, layer in _MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "bench"


class LayerTracer:
    """Stack-based span recorder with exact per-layer self time.

    Spans are recorded on the thread that created the tracer only (the
    control-plane loop); calls from other threads pass straight through.
    """

    def __init__(self, span_cap: int = 50_000) -> None:
        self.span_cap = span_cap
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.callbacks: Dict[str, int] = defaultdict(int)
        self.unattributed_s = 0.0
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self._stack: List[Tuple[str, float, int]] = []
        self._next_id = 1
        self._thread = threading.get_ident()
        self._t0 = perf_counter()
        self._mark = self._t0
        self._layer_cache: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Span boundaries
    # ------------------------------------------------------------------
    def enter(self, layer: str) -> bool:
        """Open a span; False (and nothing recorded) off the loop thread."""
        if threading.get_ident() != self._thread:
            return False
        now = perf_counter()
        stack = self._stack
        if stack:
            self.self_s[stack[-1][0]] += now - self._mark
        else:
            self.unattributed_s += now - self._mark
        self._mark = now
        span_id = self._next_id
        self._next_id = span_id + 1
        stack.append((layer, now, span_id))
        return True

    def exit(self) -> None:
        """Close the innermost span."""
        now = perf_counter()
        layer, start, span_id = self._stack.pop()
        self.self_s[layer] += now - self._mark
        self._mark = now
        self.calls[layer] += 1
        if len(self.spans) < self.span_cap:
            parent = self._stack[-1][2] if self._stack else 0
            self.spans.append((span_id, parent, layer, start - self._t0, now - self._t0))

    def close(self) -> float:
        """Charge the time since the last boundary; returns traced wall."""
        now = perf_counter()
        if self._stack:
            raise RuntimeError(
                "trace closed with {} open spans".format(len(self._stack))
            )
        self.unattributed_s += now - self._mark
        self._mark = now
        return now - self._t0

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def span(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of ``layer``."""
        enter = self.enter
        exit_ = self.exit

        def traced(*args, **kwargs):
            if not enter(layer):
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def owner_layer(self, callback: Callable) -> str:
        """The layer of the module that defined ``callback``."""
        module = getattr(callback, "__module__", None)
        layer = self._layer_cache.get(module)
        if layer is None:
            layer = self._layer_cache[module] = layer_of_module(module)
        return layer

    def attributed(self, callback: Callable) -> Callable:
        """``callback`` wrapped in a span of its owner's layer, counted in
        :attr:`callbacks` each time it fires."""
        layer = self.owner_layer(callback)
        traced = self.span(layer, callback)
        callbacks = self.callbacks

        def fire(*args):
            callbacks[layer] += 1
            return traced(*args)

        return fire

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines (seconds from trace start)."""
        with open(path, "w") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": round(start, 9),
                            "end": round(end, 9),
                        }
                    )
                )
                handle.write("\n")


class Patcher:
    """Replaces attributes and puts every original back on :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, name: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()
