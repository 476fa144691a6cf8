"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-figure3 --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: set-up is
sampled several times, then the seeded unit of work repeats for about
``--seconds`` and medians are reported (see :func:`measure`).  ``--trace 1`` runs
one untraced and one traced unit of the same seed and reports the
per-layer metrics (see ``perfbench/README.md``).  The last line of
standard output is the JSON result; a copy with the host block goes to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from workloads import SETUP_SAMPLES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_out"

END_TO_END = {
    "queries_per_s": "1/s",
    "olap_queries_per_s": "1/s",
    "setup_s": "s",
    "slo_attainment": "ratio",
    "control_ms_p50": "ms",
}

PER_LAYER = {
    "sim.engine.self_s": "s",
    "sim.engine.events_per_query": "1/query",
    "sim.resources.self_s": "s",
    "sim.resources.callbacks_per_query": "1/query",
    "dbms.self_s": "s",
    "dbms.calls_per_query": "1/query",
    "workloads.self_s": "s",
    "metrics.self_s": "s",
    "patroller.self_s": "s",
    "patroller.intercepted_ratio": "ratio",
    "patroller.held_s_p50": "s",
    "core.monitor.self_s": "s",
    "core.solver.self_s": "s",
    "core.solver.evals_per_solve": "1/solve",
    "core.solver.cache_hit_ratio": "ratio",
    "core.dispatcher.self_s": "s",
    "core.planner.self_s": "s",
    "core.other.self_s": "s",
    "core.interval_ms_tail": "ms",
    "obs.self_s": "s",
    "obs.live.events": "count",
    "validation.self_s": "s",
    "validation.checks": "count",
    "shard.self_s": "s",
    "shard.rebalances": "count",
    "runtime.timers.self_s": "s",
    "runtime.sql.self_s": "s",
    "runtime.timer_lateness_ms_p99": "ms",
    "runtime.sql.statements_per_query": "1/query",
    "runtime.sql.errors": "count",
    "runtime.loop_busy_ratio": "ratio",
    "bench.self_s": "s",
    "bench.generator_lag_ms_p99": "ms",
    "bench.oltp_ms_p50": "ms",
    "bench.oltp_ms_p999": "ms",
    "setup.self_s": "s",
    "unattributed_s": "s",
    "trace_wall_s": "s",
    "trace_overhead_ratio": "ratio",
}

#: Largest allowed gap between the summed layer self times plus
#: unattributed time and the traced wall time, as a share of the latter.
ACCOUNTING_TOLERANCE = 0.02


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(count: int) -> float:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0):
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def host_block() -> Dict[str, object]:
    """nproc, CPU model, Python version and git sha of this checkout."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT / ".git"),
    }


def git_sha(git_dir: Path) -> str:
    """HEAD's commit from the repository files; ``unknown`` outside git."""
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git_dir / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------
def measure(workload, seed: int, seconds: float):
    """Set-up samples, then repeats of the seed's unit of work.

    Simulated workloads repeat the seeded work ``--seconds`` over
    ``rep_seconds`` times (at least twice) and report medians over the
    repeats; set-up samples are spread over the run.  Both spread the
    measurement over the run, because the speed of the host this was
    tuned on changed every 5 to 20 seconds.
    """
    setup = [workload.setup_sample(seed) for _ in range(SETUP_SAMPLES)]
    if workload.simulated:
        count = max(2, int(seconds // workload.rep_seconds))
    else:
        count = 1
    reps = []
    for _ in range(count):
        reps.append(workload.rep(seed, seconds))
        setup.extend(workload.setup_sample(seed) for _ in range(SETUP_SAMPLES))
    setup.extend(rep.setup_s for rep in reps)
    problems: List[str] = []
    for rep in reps:
        problems.extend(rep.problems)
        if rep.outcome != reps[0].outcome:
            problems.append("repeats of seed {} gave different outcomes".format(seed))
    first = reps[0]
    intervals = [s for rep in reps for s in rep.interval_s]
    values = {
        "queries_per_s": statistics.median(r.completions / r.run_s for r in reps),
        "olap_queries_per_s": first.olap_completions / first.clock_s,
        "setup_s": statistics.median(setup),
        "slo_attainment": first.slo_attainment,
        "control_ms_p50": statistics.median(intervals) * 1000.0 if intervals else 0.0,
    }
    for name, value in values.items():
        if not value > 0:
            problems.append("{} is {}; every end-to-end metric must be positive".format(name, value))
    notes = {
        "reps": len(reps),
        "setup_samples": len(setup),
        "control_intervals": len(intervals),
        "completions_per_rep": first.completions,
        "oltp_requests": len(first.oltp_latency_s),
        "rep_queries_per_s": [r.completions / r.run_s for r in reps],
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    return metrics, attempted, failed, problems, notes


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def measure_layers(workload, seed: int, seconds: float):
    """One untraced and one traced rep of the same seed; layer metrics."""
    from layers import LayerStats, install_spans
    from tracing import LayerTracer, Patcher

    workload.setup_sample(seed)  # warm imports and caches
    if not workload.simulated:
        seconds = seconds / 2.0  # two wall-clock reps share the budget
    plain = workload.rep(seed, seconds)
    tracer = LayerTracer()
    stats = LayerStats()
    with Patcher() as patcher:
        install_spans(tracer, patcher, stats)
        traced = workload.rep(seed, seconds)
    wall = tracer.close()
    problems = list(plain.problems) + list(traced.problems)

    if workload.simulated:
        if (traced.outcome, traced.completions, traced.slo_attainment) != (
            plain.outcome, plain.completions, plain.slo_attainment
        ):
            problems.append("traced and untraced runs of seed {} differ".format(seed))
        overhead = (traced.setup_s + traced.run_s) / (plain.setup_s + plain.run_s)
        queries = traced.completions
    else:
        overhead = traced.counts["loop_cpu_s"] / plain.counts["loop_cpu_s"]
        queries = traced.counts["engine_completed"]

    layer_self = dict(tracer.self_s)
    accounted = sum(layer_self.values()) + tracer.unattributed_s
    if abs(accounted - wall) > ACCOUNTING_TOLERANCE * wall:
        problems.append(
            "layer self times plus unattributed ({:.4f}s) miss the traced wall "
            "({:.4f}s)".format(accounted, wall)
        )
    unknown = set(layer_self) - {n[: -len(".self_s")] for n in PER_LAYER if n.endswith(".self_s")}
    if unknown:
        problems.append("spans from unmapped layers: {}".format(sorted(unknown)))

    counts = traced.counts
    solves = counts.get("solves", 0)
    intercepted = counts.get("intercepted", 0)
    requests = intercepted + counts.get("bypassed", 0)
    intervals = plain.interval_s
    tail_q = tail_percentile(len(intervals))
    values = {name: layer_self.get(name[: -len(".self_s")], 0.0)
              for name in PER_LAYER if name.endswith(".self_s")}
    values.update({
        "sim.engine.events_per_query": counts.get("events", 0) / queries if workload.simulated else 0.0,
        "sim.resources.callbacks_per_query": tracer.callbacks.get("sim.resources", 0) / queries,
        "dbms.calls_per_query": tracer.calls.get("dbms", 0) / queries,
        "patroller.intercepted_ratio": intercepted / requests if requests else 0.0,
        "patroller.held_s_p50": percentile(stats.held_s, 50),
        "core.solver.evals_per_solve": counts.get("evaluations", 0) / solves if solves else 0.0,
        "core.solver.cache_hit_ratio": counts.get("cache_hits", 0) / solves if solves else 0.0,
        "core.interval_ms_tail": percentile(intervals, tail_q) * 1000.0,
        "obs.live.events": counts.get("hub_events", 0),
        "validation.checks": tracer.calls.get("validation", 0),
        "shard.rebalances": stats.rebalances,
        "runtime.timer_lateness_ms_p99": percentile(stats.lateness_s, 99) * 1000.0,
        "runtime.sql.statements_per_query": (
            counts.get("statements", 0) / queries if not workload.simulated else 0.0
        ),
        "runtime.sql.errors": counts.get("sql_errors", 0),
        "runtime.loop_busy_ratio": (
            plain.counts["loop_cpu_s"] / plain.run_s if not workload.simulated else 0.0
        ),
        "bench.generator_lag_ms_p99": percentile(plain.counts.get("generator_lag_s", []), 99) * 1000.0,
        "bench.oltp_ms_p50": percentile(plain.oltp_latency_s, 50) * 1000.0,
        "bench.oltp_ms_p999": percentile(plain.oltp_latency_s, 99.9) * 1000.0,
        "unattributed_s": tracer.unattributed_s,
        "trace_wall_s": wall,
        "trace_overhead_ratio": overhead,
    })
    notes = {
        "completions": traced.completions,
        "interval_tail_percentile": tail_q,
        "control_intervals": len(intervals),
        "spans": sum(tracer.calls.values()),
        "spans_kept": len(tracer.spans),
        "layer_share": {k: round(v / wall, 4) for k, v in sorted(layer_self.items())},
        "unattributed_share": round(tracer.unattributed_s / wall, 4),
    }
    spans_dir = WORKDIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(str(spans_dir / "{}-seed{}.jsonl".format(workload.name, seed)))
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}
    return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed, problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under {}".format(SRC), file=sys.stderr)
        return 2
    # Keep every file the run writes (SQLite databases and temp files
    # included) inside the checkout.
    (WORKDIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(WORKDIR / "tmp")
    sys.path.insert(0, str(SRC))

    from layers import Probes
    from tracing import Patcher

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload {!r}; expected one of {}".format(
            args.workload, sorted(WORKLOADS)), file=sys.stderr)
        return 2
    probes = Probes()
    with Patcher() as patcher:
        probes.install(patcher)
        workload = WORKLOADS[args.workload](probes, WORKDIR)
        if args.trace:
            metrics, attempted, failed, problems, notes = measure_layers(
                workload, args.seed, args.seconds)
        else:
            metrics, attempted, failed, problems, notes = measure(
                workload, args.seed, args.seconds)

    host = host_block()
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    results_dir = WORKDIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host,
                  notes=notes, problems=problems)
    path = results_dir / "{}-seed{}-trace{}.json".format(args.workload, args.seed, args.trace)
    path.write_text(json.dumps(record, indent=2) + "\n")
    print("host: " + json.dumps(host))
    print("notes: " + json.dumps(notes))
    for problem in problems:
        print("problem: " + problem)
    for name, entry in metrics.items():
        print("{:<36} {:>14.6g} {}".format(name, entry["value"], entry["unit"]))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
