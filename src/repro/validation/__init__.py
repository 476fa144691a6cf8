"""Runtime validation: invariants over the live control loop.

The closed loop of Monitor → Planner → Solver → Dispatcher adapts *around*
internal accounting bugs instead of failing on them, so this package keeps
an explicit oracle: a registry of named invariants evaluated against the
live components at every control-interval boundary.  See
docs/VALIDATION.md for the authoring guide and ``repro run --invariants
warn|strict`` for the CLI entry point.
"""

from repro.validation.harness import (
    MODES,
    ControlLoopWorld,
    ValidationHarness,
    attach_harness,
    core_invariants,
)
from repro.validation.invariants import (
    Invariant,
    InvariantRegistry,
    Severity,
    Violation,
)

__all__ = [
    "MODES",
    "ControlLoopWorld",
    "Invariant",
    "InvariantRegistry",
    "Severity",
    "ValidationHarness",
    "Violation",
    "attach_harness",
    "core_invariants",
]
