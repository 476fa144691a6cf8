"""Command-line interface.

Subcommands::

    python -m repro run        # run a controller on the paper workload
    python -m repro run --scenario flash-crowd   # ... or on a named scenario
    python -m repro run --telemetry t.jsonl      # ... exporting controller telemetry
    python -m repro run --invariants strict      # ... under the invariant harness
    python -m repro run --trace-events t.json    # ... tracing query lifecycles
    python -m repro run --dashboard --linger -1  # ... serving a live dashboard
    python -m repro spans t.json                 # phase breakdown of a saved trace
    python -m repro scenarios  # list / validate the YAML scenario library
    python -m repro calibrate  # throughput-vs-system-cost-limit sweep
    python -m repro figure     # regenerate one of the paper's figures
    python -m repro replicate  # multi-seed controller comparison (--jobs N)
    python -m repro sweep      # config-field sensitivity sweep (--jobs N)
    python -m repro bench      # micro+macro benchmark suite -> BENCH_<n>.json

Every command prints the same ASCII tables the benchmark harness uses, so
the CLI is the quickest way to poke at the system without writing code.
``run`` is the one command that executes a single experiment; its flags
choose what is attached and exported.  ``replicate`` and ``sweep`` fan
their runs over worker processes with ``--jobs`` (0 = one per CPU);
results are identical at any worker count.  ``--dashboard`` attaches the
stdlib-only live telemetry hub and serves it over HTTP: ``/`` (the
embedded dashboard), ``/events`` (SSE), ``/api/snapshot`` and ``/metrics``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.experiments.calibration import pick_knee_limit, sweep_system_cost_limit
from repro.experiments.figures import figure2, figure3
from repro.experiments.runner import (
    CONTROLLER_NAMES,
    ExperimentSpec,
    run_experiment,
    run_spec,
)
from repro.runtime import BACKEND_NAMES
from repro.metrics.report import (
    format_figure_series,
    format_period_table,
    format_plan_table,
    format_prediction_summary,
    format_summary,
    render_series_chart,
)


def _sweep_value(text: str):
    """Parse one ``sweep --values`` token: int, then float, then string."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def _build_config(args: argparse.Namespace):
    return default_config(
        seed=args.seed,
        scale=WorkloadScaleConfig(
            period_seconds=args.period_seconds, num_periods=args.periods
        ),
        monitor=MonitorConfig(
            snapshot_interval=min(10.0, max(0.05, args.control_interval / 2.0)),
            response_time_window=max(args.control_interval / 2.0, 10.0),
        ),
        planner=PlannerConfig(
            control_interval=args.control_interval,
            model=getattr(args, "model", None) or "paper",
        ),
    )


def _apply_run_defaults(args: argparse.Namespace) -> str:
    """Fill unset scale flags and seed for a non-scenario run; returns the backend.

    Workload-scale defaults depend on the backend: the sim runs minutes
    of virtual time for free, the sqlite backend burns real wall-clock.
    """
    backend = args.backend if args.backend is not None else "sim"
    sim_defaults = (9, 120.0, 60.0)
    sqlite_defaults = (3, 2.0, 1.0)
    defaults = sim_defaults if backend == "sim" else sqlite_defaults
    if args.periods is None:
        args.periods = defaults[0]
    if args.period_seconds is None:
        args.period_seconds = defaults[1]
    if args.control_interval is None:
        args.control_interval = defaults[2]
    if args.seed is None:
        args.seed = 7
    return backend


def _scenario_overrides(args: argparse.Namespace, config) -> dict:
    """The ``--backend``/``--horizon``/``--model`` overrides of a scenario spec."""
    overrides = {}
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if args.model:
        from repro.experiments.sensitivity import set_config_field

        overrides["config"] = set_config_field(config, "planner.model", args.model)
    return overrides


#: The Query Scheduler controllers: the only ones that plan per-class cost
#: limits and record per-interval telemetry (``run --telemetry``).
_QS_CONTROLLERS = ("qs", "qs_detect")


def _resolve_run_spec(args: argparse.Namespace):
    """The spec ``run`` executes, with its header line printed.

    Returns an :class:`ExperimentSpec`, or a ``ShardedExperimentSpec``
    when ``--shards N`` (N > 1) or the scenario's own ``shards:`` block
    asks for a fleet; ``--shards 1`` forces the unsharded path.  Flag
    combinations the run cannot honour raise :class:`ConfigurationError`.
    """
    from repro.errors import ConfigurationError
    from repro.shard import ShardedExperimentSpec

    if args.smoke and not args.scenario:
        raise ConfigurationError("--smoke only applies to --scenario runs")
    scenario = None
    if args.scenario:
        from repro.scenarios import find_scenario

        conflicting = [
            flag
            for flag, value in (
                ("--periods", args.periods),
                ("--period-seconds", args.period_seconds),
                ("--control-interval", args.control_interval),
            )
            if value is not None
        ]
        if conflicting:
            raise ConfigurationError(
                "{} conflict with --scenario (the scenario owns the "
                "schedule; use 'control:' overrides in the file)".format(
                    ", ".join(conflicting)
                )
            )
        scenario = find_scenario(args.scenario)
    shards = args.shards
    if shards is None and scenario is not None and scenario.shards is not None:
        shards = scenario.shards.count
    sharded = shards is not None and shards > 1
    if not sharded and (args.router or args.rebalance):
        raise ConfigurationError(
            "--router/--rebalance only apply to sharded runs (pass --shards N)"
        )
    if sharded and args.trace_events:
        raise ConfigurationError(
            "--trace-events is not supported with sharded runs (each shard "
            "would need its own trace file)"
        )
    if scenario is not None:
        from repro.scenarios import to_experiment_spec, to_sharded_experiment_spec

        if sharded:
            spec = to_sharded_experiment_spec(
                scenario,
                smoke=args.smoke,
                invariants=args.invariants,
                seed=args.seed,
                shards=args.shards,
                router=args.router,
                rebalance=args.rebalance,
            )
            overrides = _scenario_overrides(args, spec.base.config)
            if overrides:
                spec = spec.with_overrides(
                    base=spec.base.with_overrides(**overrides)
                ).validate()
        else:
            spec = to_experiment_spec(
                scenario, smoke=args.smoke, invariants=args.invariants, seed=args.seed
            )
            spec = spec.with_overrides(
                tracing=bool(args.trace_events),
                **_scenario_overrides(args, spec.config),
            )
    else:
        backend = _apply_run_defaults(args)
        spec = ExperimentSpec(
            controller=args.controller,
            config=_build_config(args),
            invariants=args.invariants or "off",
            tracing=bool(args.trace_events),
            backend=backend,
            horizon=args.horizon,
        )
        if sharded:
            spec = ShardedExperimentSpec(
                base=spec,
                shards=shards,
                router=args.router or "hash",
                rebalance=args.rebalance or "static",
            ).validate()
    base = spec.base if sharded else spec
    if args.telemetry and base.controller not in _QS_CONTROLLERS:
        raise ConfigurationError(
            "controller {!r} produces no telemetry (use qs or qs_detect)".format(
                base.controller
            )
        )
    if sharded:
        print(
            "sharded run: {} ({} shards, router={}, rebalance={}, "
            "controller={}, invariants={})".format(
                "scenario {}".format(scenario.name) if scenario else "paper workload",
                spec.shards,
                spec.router,
                spec.rebalance,
                base.controller,
                base.invariants,
            )
        )
    elif scenario is not None:
        print(
            "scenario {} (controller={}, backend={}, {} periods x {:g}s, "
            "invariants={}{})".format(
                scenario.name,
                spec.controller,
                spec.backend,
                spec.schedule.num_periods,
                spec.schedule.period_seconds,
                spec.invariants,
                ", smoke" if args.smoke else "",
            )
        )
        if scenario.description:
            print(scenario.description.strip())
    return spec


def _start_live(args: argparse.Namespace):
    """Start the telemetry hub + dashboard server when asked for.

    Returns ``(hub, server)`` — both ``None`` without ``--dashboard``.
    ``--port 0`` (the default) binds an ephemeral port; ``--port-file``
    writes the bound port for harnesses that need to find the server.
    """
    if not args.dashboard:
        return None, None
    from repro.obs.live import LiveServer, TelemetryHub

    hub = TelemetryHub()
    server = LiveServer(hub, host=args.host, port=args.port).start()
    print("dashboard: {}".format(server.url), file=sys.stderr)
    if args.port_file:
        with open(args.port_file, "w") as handle:
            handle.write("{}\n".format(server.port))
    return hub, server


def _linger_live(args: argparse.Namespace, server) -> None:
    """Hold the dashboard open after a finished run (``--linger``)."""
    if server is None or args.linger == 0:
        return
    if args.linger < 0:
        print("run finished; serving until Ctrl-C", file=sys.stderr)
        try:
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            pass
    else:
        time.sleep(args.linger)


def _check_model_arg(args: argparse.Namespace) -> Optional[str]:
    """Early validation of ``--model``; returns an error string or None."""
    spec = args.model
    if not spec:
        return None
    import os

    from repro.core.modeling import parse_model_spec
    from repro.errors import ConfigurationError

    try:
        _, argument = parse_model_spec(spec)
    except ConfigurationError as exc:
        return str(exc)
    if argument is not None and not os.path.exists(argument):
        return "trained model file {!r} not found".format(argument)
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.errors import (
        ConfigurationError,
        ExperimentError,
        InvariantViolation,
        ScenarioError,
    )
    from repro.shard import ShardedExperimentSpec, run_sharded

    model_error = _check_model_arg(args)
    if model_error:
        print("model error: {}".format(model_error), file=sys.stderr)
        return 2
    server = None
    try:
        spec = _resolve_run_spec(args)
        hub, server = _start_live(args)
        if isinstance(spec, ShardedExperimentSpec):
            code = _report_sharded(
                args, run_sharded(spec, jobs=_jobs_arg(args), hub=hub)
            )
        else:
            code = _report_run(args, run_spec(spec, hub=hub))
        _linger_live(args, server)
        return code
    except (ConfigurationError, ScenarioError) as exc:
        label = "scenario error" if isinstance(exc, ScenarioError) else "run error"
        print("{}: {}".format(label, exc), file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print("invariant violation: {}".format(exc), file=sys.stderr)
        return 1
    except ExperimentError as exc:
        print("run failure: {}".format(exc), file=sys.stderr)
        return 1
    finally:
        if server is not None:
            server.stop()


def _report_sharded(args: argparse.Namespace, result) -> int:
    """Print and export a fleet run; 1 when a global invariant failed."""
    from repro.shard import (
        export_shard_telemetry,
        format_sharded_report,
        save_sharded_report,
    )

    print()
    print(format_sharded_report(result.report))
    if args.output:
        save_sharded_report(result.report, args.output, overwrite=True)
        print("wrote {}".format(args.output))
    if args.telemetry:
        for path in export_shard_telemetry(
            result.summaries, args.telemetry, overwrite=True
        ):
            print("wrote {}".format(path))
    return 0 if result.ok else 1


def _span_problems(tracer) -> List[str]:
    """Structural span problems plus an unbalanced trace, as lines."""
    from repro.errors import SimulationError

    problems = tracer.validate()
    try:
        tracer.assert_balanced()
    except SimulationError as exc:
        problems.append(str(exc))
    return problems


def _report_run(args: argparse.Namespace, result) -> int:
    """Print and export one run.

    Returns 1 when the trace is malformed or the invariant harness
    recorded a violation, else 0.
    """
    ok = True
    if args.output:
        from repro.metrics.export import save_result

        save_result(result, args.output)
        print("wrote {}".format(args.output))
    if args.trace_events:
        from repro.obs import save_chrome_trace

        tracer = result.extras["tracer"]
        save_chrome_trace(tracer.spans, args.trace_events, overwrite=True)
        print(
            "wrote {} ({} spans, balanced={})".format(
                args.trace_events, len(tracer.spans), tracer.balanced
            )
        )
        problems = _span_problems(tracer)
        for problem in problems:
            print("problem: {}".format(problem), file=sys.stderr)
        ok = not problems
    store = result.extras.get("telemetry")
    if args.telemetry:
        store.save_jsonl(args.telemetry, overwrite=True)
        print("wrote {} ({} control intervals)".format(args.telemetry, len(store)))
    controller = result.bundle.controller
    describe = getattr(controller, "describe", None)
    if describe is not None:
        print(describe())
    print()
    print(format_period_table(result.collector, result.classes,
                              title="Per-period goal metrics"))
    print()
    print(format_summary(result.collector, result.classes, title="Attainment"))
    if result.controller_name in _QS_CONTROLLERS:
        print()
        print(format_plan_table(
            result.collector,
            [c.name for c in result.classes],
            title="Class cost limits (period means, timerons)",
        ))
    injector = result.extras.get("faults")
    if injector is not None:
        print()
        print("Injected faults ({}):".format(len(injector.injected)))
        for entry in injector.injected:
            details = ", ".join(
                "{}={}".format(k, v)
                for k, v in entry.items()
                if k not in ("fault", "time")
            )
            print("  t={:<10.3f} {}{}".format(
                entry["time"], entry["fault"],
                " ({})".format(details) if details else "",
            ))
    if args.telemetry:
        print()
        print(format_prediction_summary(
            store.prediction_error_summary(),
            title="One-step prediction error per class",
        ))
        print()
        print(_format_dispatcher_balance(store.dispatcher_balance()))
        print()
        print(_format_overhead_summary(store.overhead_summary()))
    harness = result.extras.get("validation")
    if harness is not None:
        print()
        print(_format_harness_summary(harness))
        ok = ok and not harness.violations
    return 0 if ok else 1


def _format_harness_summary(harness) -> str:
    """One block summarising a run's invariant checks, one line per invariant."""
    counts = {}
    for violation in harness.violations:
        counts[violation.name] = counts.get(violation.name, 0) + 1
    lines = [
        "Invariants ({} registered, {} checks, mode={}):".format(
            len(harness.registry), harness.checks_run, harness.mode
        )
    ]
    for invariant in harness.registry:
        lines.append("  {:<32} {:<8} {} violations".format(
            invariant.name, invariant.severity.name, counts.get(invariant.name, 0)
        ))
    if not harness.violations:
        lines.append("  no violations")
    for violation in harness.violations:
        lines.append("  " + violation.describe())
    return "\n".join(lines)


def _format_dispatcher_balance(balance) -> str:
    """One block with each class's dispatcher accounting at run end."""
    lines = ["Dispatcher balance (released = completed + cancelled + in-flight):"]
    for name, counts in sorted(balance.items()):
        lines.append(
            "  {:<10} released={:<6} completed={:<6} cancelled={:<6} "
            "in_flight={:<6} queue_cancelled={}".format(
                name,
                counts["released"],
                counts["completed"],
                counts["cancelled"],
                counts["in_flight"],
                counts["queue_cancelled"],
            )
        )
    return "\n".join(lines)


def _format_overhead_summary(summary) -> str:
    """One block with the controller's own wall-clock cost per interval."""
    lines = ["Controller overhead (wall-clock per control interval):"]
    if not summary:
        lines.append("  no overhead data recorded")
        return "\n".join(lines)
    for key in sorted(summary):
        stats = summary[key]
        lines.append(
            "  {:<14} mean={:.6f}s max={:.6f}s over {} intervals".format(
                key, stats["mean_s"], stats["max_s"], stats["count"]
            )
        )
    return "\n".join(lines)


def _format_span_breakdown(spans, top: int) -> str:
    """Per-class queue-wait/phase breakdown plus the slowest waits."""
    from repro.obs import phase_breakdown, slowest_spans
    from repro.obs.spans import PHASES

    lines = [
        "Per-class phase breakdown (sim seconds):",
        "  {:<10} {:<10} {:>6} {:>9} {:>9} {:>9} {:>9}".format(
            "class", "phase", "count", "mean", "p50", "p95", "max"
        ),
    ]
    breakdown = phase_breakdown(spans)
    for class_name in sorted(breakdown):
        by_phase = breakdown[class_name]
        for phase in PHASES:
            stats = by_phase.get(phase)
            if stats is None:
                continue
            lines.append(
                "  {:<10} {:<10} {:>6} {:>9.3f} {:>9.3f} {:>9.3f} {:>9.3f}".format(
                    class_name,
                    phase,
                    stats.count,
                    stats.mean,
                    stats.percentile(50.0),
                    stats.percentile(95.0),
                    stats.max,
                )
            )
    slowest = slowest_spans(spans, phase="queue_wait", n=top)
    lines.append("")
    lines.append("Top {} slowest queue waits:".format(top))
    if not slowest:
        lines.append("  none recorded")
    for span in slowest:
        lines.append(
            "  query {:<6} class={:<10} wait={:.3f}s cost={:.0f} "
            "period={}{}".format(
                span.query_id,
                span.class_name,
                span.duration,
                span.estimated_cost,
                span.period,
                " (truncated)" if span.truncated else "",
            )
        )
    return "\n".join(lines)


def _cmd_spans(args: argparse.Namespace) -> int:
    from repro.obs import (
        save_chrome_trace,
        save_spans_jsonl,
        load_spans,
        validate_spans,
    )

    spans = load_spans(args.input)
    print("loaded {} spans from {}".format(len(spans), args.input))
    problems = validate_spans(spans)
    if problems:
        for problem in problems:
            print("problem: {}".format(problem), file=sys.stderr)
        return 1
    if args.output:
        save_spans_jsonl(spans, args.output, overwrite=True)
        print("wrote {}".format(args.output))
    if args.trace_events:
        save_chrome_trace(spans, args.trace_events, overwrite=True)
        print("wrote {}".format(args.trace_events))
    print()
    print(_format_span_breakdown(spans, args.top))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.errors import ScenarioError
    from repro.scenarios import (
        find_scenario,
        library_names,
        library_paths,
        load_scenario,
        validate_library,
    )

    if args.validate_all:
        failures = list(validate_library())
        for path in args.name or []:
            # Extra positional args with --validate-all: validate files too.
            try:
                load_scenario(path)
            except ScenarioError as exc:
                failures.append((path, str(exc)))
        names = library_names() + list(args.name or [])
        for name, error in failures:
            print("INVALID {}: {}".format(name, error), file=sys.stderr)
        print(
            "{} of {} scenarios valid".format(
                len(names) - len(failures), len(names)
            )
        )
        return 1 if failures else 0
    if args.name:
        try:
            scenario = find_scenario(args.name[0])
        except ScenarioError as exc:
            print("scenario error: {}".format(exc), file=sys.stderr)
            return 2
        print("{} (format v{})".format(scenario.name, scenario.version))
        if scenario.description:
            print(scenario.description.strip())
        print(
            "controller={} backend={} invariants={} seed={} "
            "{} periods x {:g}s".format(
                scenario.controller, scenario.backend, scenario.invariants,
                scenario.seed, scenario.num_periods, scenario.period_seconds,
            )
        )
        for cls in scenario.classes:
            print("  {:<10} {:<5} {}={:g} importance={:g}".format(
                cls.name, cls.kind, cls.goal_metric, cls.goal_value,
                cls.importance,
            ))
        if scenario.control:
            print("control overrides:")
            for path in sorted(scenario.control):
                print("  {} = {}".format(path, scenario.control[path]))
        print()
        print(format_figure_series(
            {
                name: list(map(float, counts))
                for name, counts in scenario.resolved_counts().items()
            },
            x_label="period",
            title="clients per period",
            digits=0,
        ))
        if scenario.faults:
            print()
            print("faults:")
            for fault in scenario.faults:
                when = fault.seconds(scenario.period_seconds)
                details = ", ".join(
                    "{}={}".format(k.replace("class_name", "class"), v)
                    for k, v in fault.params.items()
                )
                print("  t={:<10.3f} {}{}".format(
                    when, fault.kind,
                    " ({})".format(details) if details else "",
                ))
        return 0
    print("{} library scenarios (repro run --scenario <name>):".format(
        len(library_paths())
    ))
    for name in library_names():
        try:
            scenario = find_scenario(name)
        except ScenarioError as exc:
            print("  {:<26} INVALID: {}".format(name, exc))
            continue
        print("  {:<26} {:>2} x {:>4g}s  {} classes  {} faults  [{}]".format(
            name,
            scenario.num_periods,
            scenario.period_seconds,
            len(scenario.classes),
            len(scenario.faults),
            scenario.controller,
        ))
    return 0


def _progress_printer(args: argparse.Namespace):
    """A run_requests progress hook printing one stderr line per run."""
    if args.quiet:
        return None

    def progress(outcome, done, total):
        status = "ok" if outcome.ok else "FAILED"
        print(
            "[{}/{}] {} {}".format(done, total, outcome.request.describe(), status),
            file=sys.stderr,
        )

    return progress


def _jobs_arg(args: argparse.Namespace):
    """Map the CLI convention (0 = one worker per CPU) onto the API's None."""
    return None if args.jobs == 0 else args.jobs


def _cmd_replicate(args: argparse.Namespace) -> int:
    from repro.experiments.replication import compare, format_comparison

    config = _build_config(args)
    summaries = compare(
        args.controllers,
        seeds=args.seeds,
        config=config,
        jobs=_jobs_arg(args),
        progress=_progress_printer(args),
    )
    class_names = sorted(
        {name for summary in summaries.values() for name in summary.per_class}
    )
    print(format_comparison(summaries, class_names))
    failures = sum(len(summary.errors) for summary in summaries.values())
    if failures:
        print(
            "{} of {} runs failed".format(
                failures, len(args.controllers) * len(args.seeds)
            ),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sensitivity import format_sweep, sweep

    if args.smoke and not args.scenario:
        print("--smoke requires --scenario", file=sys.stderr)
        return 2
    if args.scenario:
        from repro.errors import ScenarioError
        from repro.scenarios import find_scenario, to_experiment_spec

        try:
            scenario = find_scenario(args.scenario)
            base_spec = to_experiment_spec(scenario, smoke=args.smoke)
        except ScenarioError as exc:
            print("scenario error: {}".format(exc), file=sys.stderr)
            return 2
        print("sweeping {} over scenario '{}'".format(args.path, scenario.name))
        entries = sweep(
            args.path,
            args.values,
            base_spec=base_spec,
            jobs=_jobs_arg(args),
            progress=_progress_printer(args),
        )
    else:
        config = _build_config(args)
        entries = sweep(
            args.path,
            args.values,
            controller=args.controller,
            config=config,
            jobs=_jobs_arg(args),
            progress=_progress_printer(args),
        )
    class_names = sorted({name for _, attainment in entries for name in attainment})
    print(format_sweep(args.path, entries, class_names))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    config = default_config(seed=args.seed)
    curve = sweep_system_cost_limit(
        args.limits,
        config=config,
        olap_clients=args.clients,
        period_seconds=args.period_seconds,
        num_periods=3,
        warmup_periods=1,
    )
    print("{:>12} | {:>12}".format("limit (tim)", "queries/sec"))
    print("-" * 28)
    for limit, throughput in curve:
        print("{:>12.0f} | {:>12.4f}".format(limit, throughput))
    knee = pick_knee_limit(curve, tolerance=0.05)
    print("suggested system cost limit (knee): {:.0f}".format(knee))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    config = _build_config(args)
    number = args.number
    if number == 2:
        data = figure2(
            config=default_config(seed=args.seed),
            period_seconds=args.period_seconds,
            num_periods=3,
            warmup_periods=1,
        )
        for pair, series in data.items():
            print("clients (oltp, olap) = {}:".format(pair))
            for limit, rt in series:
                print("  {:>8.0f} timerons -> {:.3f}s".format(
                    limit, rt if rt is not None else float("nan")))
        return 0
    if number == 3:
        counts = figure3(args.period_seconds)
        print(format_figure_series(
            {name: list(map(float, series)) for name, series in counts.items()},
            x_label="period",
            title="Figure 3: clients per period",
            digits=0,
        ))
        return 0
    if number in (4, 5, 6, 7):
        controller = {4: "none", 5: "qp", 6: "qs", 7: "qs"}[number]
        result = run_experiment(controller=controller, config=config)
        print(format_period_table(
            result.collector, result.classes,
            title="Figure {}: controller={}".format(number, controller),
        ))
        print()
        print(render_series_chart(
            {c.name: result.collector.performance_series(c) for c in result.classes},
            goal_lines={c.name: c.goal.target for c in result.classes},
            title="goal metrics per period (velocity / seconds)",
        ))
        if number == 7:
            print()
            print(format_plan_table(
                result.collector,
                [c.name for c in result.classes],
                title="Figure 7: class cost limits (period means)",
            ))
        return 0
    print("unknown figure {}; expected 2-7".format(number), file=sys.stderr)
    return 2


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        BenchReport,
        compare_reports,
        format_comparison,
        format_report,
        next_bench_path,
        run_suite,
    )
    from repro.errors import BenchError

    try:
        if args.compare:
            before = BenchReport.load(args.compare[0])
            after = BenchReport.load(args.compare[1])
            print(format_comparison(compare_reports(before, after)))
            return 0
        trials = args.trials
        if trials is None:
            trials = 1 if args.smoke else 3
        if not args.quiet:
            def progress(name, trial, metrics):
                wall = metrics.get("wall_s", 0.0)
                print(
                    "[bench] {} trial {}/{}: {:.3f}s".format(
                        name, trial + 1, trials, wall
                    ),
                    file=sys.stderr,
                )
        else:
            progress = None
        report = run_suite(
            trials=trials, smoke=args.smoke, only=args.only, progress=progress
        )
        path = args.output or next_bench_path(args.dir)
        report.save(path)
    except BenchError as exc:
        print("bench error: {}".format(exc), file=sys.stderr)
        return 2
    print(format_report(report))
    print("wrote {}".format(path))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    """``repro train``: fit a learned model from exported telemetry."""
    from repro.core.modeling import (
        LearnedPerformanceModel,
        PaperAnalyticModel,
        evaluate_on_records,
        fit_from_records,
        load_telemetry_records,
        save_model,
    )
    from repro.errors import ConfigurationError, ExportError

    try:
        records = load_telemetry_records(args.telemetry)
        model = LearnedPerformanceModel(
            prior_slope=args.prior_slope,
            ridge=args.ridge,
            forgetting=args.forgetting,
        )
        fit_from_records(records, model=model)
        save_model(model, args.output, overwrite=True)
    except (ConfigurationError, ExportError) as exc:
        print("train error: {}".format(exc), file=sys.stderr)
        return 2
    print(
        "trained on {} telemetry records ({} observations) -> {}".format(
            len(records), model.observations, args.output
        )
    )
    if not args.no_eval:
        # Prequential one-step MAE on the same trace, trained vs analytic
        # (round-trip the trained weights so the scorer's online updates
        # cannot touch the saved model).
        trained = LearnedPerformanceModel.from_dict(model.to_dict())
        for label, scorer in (
            ("learned", trained),
            ("paper", PaperAnalyticModel()),
        ):
            errors = evaluate_on_records(records, scorer)
            print("prequential MAE ({}):".format(label))
            for name in sorted(errors):
                series = errors[name]
                mae = sum(e for _, e in series) / len(series) if series else 0.0
                print("  {:<12} {:.5f} ({} intervals)".format(name, mae, len(series)))
    return 0


def _cmd_ablate_models(args: argparse.Namespace) -> int:
    """``repro ablate-models``: scenario replay across model specs."""
    import json

    from repro.errors import ExperimentError, InvariantViolation, ScenarioError
    from repro.experiments.model_ablation import (
        format_ablation_table,
        run_model_ablation,
    )

    try:
        report = run_model_ablation(
            scenarios=args.scenarios,
            models=args.models,
            smoke=not args.full,
            seed=args.seed,
            invariants=args.invariants,
        )
    except (ScenarioError, ExperimentError) as exc:
        print("ablation error: {}".format(exc), file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print("invariant violation: {}".format(exc), file=sys.stderr)
        return 1
    print(format_ablation_table(report))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote {}".format(args.output))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.reportgen import quick_report_config, write_report

    config = quick_report_config().with_updates(seed=args.seed)
    text = write_report(args.output, config=config)
    print("wrote {} ({} lines)".format(args.output, text.count("\n") + 1))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Adapting Mixed Workloads to Meet SLOs "
                    "in Autonomic DBMSs' (ICDE 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run",
        help="run a controller on the paper workload or a YAML scenario",
    )
    run_parser.add_argument("--controller", choices=CONTROLLER_NAMES, default="qs")
    run_parser.add_argument(
        "--scenario", default=None, metavar="NAME|PATH",
        help="run a scenario: a library name (see 'repro scenarios') or a "
             "path to a scenario YAML file; the scenario then owns the "
             "controller, schedule, backend and invariant mode",
    )
    run_parser.add_argument(
        "--smoke", action="store_true",
        help="compress the scenario's periods to seconds of virtual time "
             "(same schedule shape; only valid with --scenario)",
    )
    run_parser.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="execution backend: the discrete-event simulator (default), "
             "or real SQL against in-process SQLite in wall-clock time",
    )
    run_parser.add_argument(
        "--horizon", type=float, default=None, metavar="SECONDS",
        help="stop the run at this time instead of the schedule horizon",
    )
    run_parser.add_argument("--periods", type=int, default=None)
    run_parser.add_argument("--period-seconds", type=float, default=None)
    run_parser.add_argument("--control-interval", type=float, default=None)
    run_parser.add_argument(
        "--seed", type=int, default=None,
        help="RNG seed (default 7, or the scenario's own seed)",
    )
    run_parser.add_argument(
        "--output", default=None,
        help="write results to a .json or .csv file",
    )
    run_parser.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="write the controller's per-interval telemetry JSONL here "
             "(sharded runs: one PATH.shardNN file per shard) and print "
             "prediction-error, dispatcher-balance and overhead summaries",
    )
    run_parser.add_argument(
        "--invariants", choices=("off", "warn", "strict"), default=None,
        help="runtime invariant checking at every control interval "
             "(default off, or the scenario's own mode)",
    )
    run_parser.add_argument(
        "--model", default=None, metavar="SPEC",
        help="performance model for the utility solver: 'paper' (the "
             "analytic Section 3.2 pair, default), 'learned' (online RLS "
             "residual model), 'learned:PATH' (weights from 'repro "
             "train'), or 'oracle' (last-value baseline)",
    )
    run_parser.add_argument(
        "--trace-events", default=None, metavar="PATH",
        help="trace query lifecycles, write Chrome trace-event JSON here",
    )
    run_parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="run N engine shards under the sharded control plane "
             "(default: the scenario's shards block, else unsharded)",
    )
    run_parser.add_argument(
        "--router", choices=("hash", "least-loaded", "cost-aware"),
        default=None,
        help="how client sessions spread across shards (default hash, or "
             "the scenario's own policy)",
    )
    run_parser.add_argument(
        "--rebalance", choices=("static", "interval"), default=None,
        help="cost-limit partitioning: once up front (static, parallel-"
             "safe) or re-split every control interval (interval, jobs=1)",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for static-mode shards (0 = one per CPU)",
    )
    run_parser.add_argument(
        "--dashboard", action="store_true",
        help="serve the live telemetry dashboard while the run executes "
             "(stdlib HTTP + SSE: /, /events, /api/snapshot, /metrics)",
    )
    run_parser.add_argument(
        "--host", default="127.0.0.1",
        help="dashboard bind address (default 127.0.0.1)",
    )
    run_parser.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="dashboard port (default 0 = an ephemeral free port)",
    )
    run_parser.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the dashboard's bound port here once listening",
    )
    run_parser.add_argument(
        "--linger", type=float, default=0.0, metavar="SECONDS",
        help="keep serving the dashboard this long after the run finishes "
             "(negative = until Ctrl-C)",
    )
    run_parser.set_defaults(func=_cmd_run)

    spans_parser = sub.add_parser(
        "spans",
        help="per-query lifecycle span breakdown of a saved trace (write "
             "one with 'repro run --trace-events PATH')",
    )
    spans_parser.add_argument(
        "input",
        help="spans .jsonl, trace-event .json, or a directory holding one",
    )
    spans_parser.add_argument(
        "--top", type=int, default=5,
        help="how many slowest queue waits to list",
    )
    spans_parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the spans as JSONL here",
    )
    spans_parser.add_argument(
        "--trace-events", default=None, metavar="PATH",
        help="also write Chrome trace-event JSON here",
    )
    spans_parser.set_defaults(func=_cmd_spans)

    scen_parser = sub.add_parser(
        "scenarios",
        help="list, inspect, or validate the named scenario library",
    )
    scen_parser.add_argument(
        "name", nargs="*",
        help="show one scenario in detail (library name or YAML path); "
             "with --validate-all, extra paths to validate as well",
    )
    scen_parser.add_argument(
        "--validate-all", action="store_true",
        help="schema-validate and round-trip every library scenario; "
             "exit nonzero if any fails",
    )
    scen_parser.set_defaults(func=_cmd_scenarios)

    def _experiment_scale_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--periods", type=int, default=9)
        p.add_argument("--period-seconds", type=float, default=120.0)
        p.add_argument("--control-interval", type=float, default=60.0)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes for the run fan-out (0 = one per CPU)",
        )
        p.add_argument(
            "--quiet", action="store_true",
            help="suppress per-run progress lines on stderr",
        )

    rep_parser = sub.add_parser(
        "replicate",
        help="compare controllers across seeds (paired multi-seed runs)",
    )
    rep_parser.add_argument(
        "--controllers", nargs="+", choices=CONTROLLER_NAMES,
        default=["none", "qp", "qs"],
    )
    rep_parser.add_argument(
        "--seeds", type=int, nargs="+", default=[7, 21, 42],
    )
    _experiment_scale_args(rep_parser)
    rep_parser.set_defaults(func=_cmd_replicate)

    sweep_parser = sub.add_parser(
        "sweep", help="re-run an experiment per value of a config field"
    )
    sweep_parser.add_argument(
        "path", help="dotted config path, e.g. planner.control_interval"
    )
    sweep_parser.add_argument(
        "--values", nargs="+", required=True, type=_sweep_value,
        help="values to sweep (numbers are auto-converted)",
    )
    sweep_parser.add_argument("--controller", choices=CONTROLLER_NAMES, default="qs")
    sweep_parser.add_argument(
        "--scenario", default=None, metavar="NAME|PATH",
        help="sweep over a scenario instead of the paper workload; the "
             "scenario supplies the controller, schedule, seed and faults "
             "(--controller/--periods/--period-seconds/--control-interval/"
             "--seed are ignored)",
    )
    sweep_parser.add_argument(
        "--smoke", action="store_true",
        help="compress the scenario's periods to seconds of virtual time "
             "(only valid with --scenario)",
    )
    _experiment_scale_args(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    cal_parser = sub.add_parser("calibrate", help="throughput vs system cost limit")
    cal_parser.add_argument(
        "--limits", type=float, nargs="+",
        default=[10_000, 20_000, 30_000, 40_000, 50_000],
    )
    cal_parser.add_argument("--clients", type=int, default=32)
    cal_parser.add_argument("--period-seconds", type=float, default=120.0)
    cal_parser.add_argument("--seed", type=int, default=7)
    cal_parser.set_defaults(func=_cmd_calibrate)

    fig_parser = sub.add_parser("figure", help="regenerate a paper figure (2-7)")
    fig_parser.add_argument("number", type=int)
    fig_parser.add_argument("--periods", type=int, default=9)
    fig_parser.add_argument("--period-seconds", type=float, default=120.0)
    fig_parser.add_argument("--control-interval", type=float, default=60.0)
    fig_parser.add_argument("--seed", type=int, default=7)
    fig_parser.set_defaults(func=_cmd_figure)

    bench_parser = sub.add_parser(
        "bench",
        help="run the micro+macro benchmark suite, write BENCH_<n>.json",
    )
    bench_parser.add_argument(
        "--trials", type=int, default=None,
        help="repeated trials per benchmark (default: 3, or 1 with --smoke)",
    )
    bench_parser.add_argument(
        "--smoke", action="store_true",
        help="tiny scales for CI: seconds instead of minutes",
    )
    bench_parser.add_argument(
        "--only", nargs="+", default=None, metavar="NAME",
        help="run only these benchmarks (see docs/BENCHMARKS.md)",
    )
    bench_parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report here instead of the next free BENCH_<n>.json",
    )
    bench_parser.add_argument(
        "--dir", default=".",
        help="directory scanned for the next BENCH_<n>.json (default: cwd)",
    )
    bench_parser.add_argument(
        "--compare", nargs=2, default=None, metavar=("BEFORE", "AFTER"),
        help="compare two bench reports instead of running the suite",
    )
    bench_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-trial progress lines on stderr",
    )
    bench_parser.set_defaults(func=_cmd_bench)

    train_parser = sub.add_parser(
        "train",
        help="fit a learned performance model from exported telemetry "
             "JSONL (see 'repro run --telemetry'); load it with run --model "
             "learned:PATH",
    )
    train_parser.add_argument(
        "--telemetry", required=True, metavar="PATH",
        help="telemetry JSONL file, or a directory of .jsonl exports",
    )
    train_parser.add_argument(
        "--output", required=True, metavar="PATH",
        help="where to write the trained model JSON",
    )
    train_parser.add_argument(
        "--prior-slope", type=float, default=-4.2e-6,
        help="OLTP slope prior of the analytic base model (default %(default)s)",
    )
    train_parser.add_argument(
        "--ridge", type=float, default=4.0,
        help="ridge regularisation of the RLS correction (default %(default)s)",
    )
    train_parser.add_argument(
        "--forgetting", type=float, default=0.995,
        help="RLS forgetting factor in (0, 1] (default %(default)s)",
    )
    train_parser.add_argument(
        "--no-eval", action="store_true",
        help="skip the prequential MAE comparison against the paper model",
    )
    train_parser.set_defaults(func=_cmd_train)

    ablate_parser = sub.add_parser(
        "ablate-models",
        help="replay library scenarios once per performance model and "
             "compare SLO attainment and prediction error",
    )
    ablate_parser.add_argument(
        "--scenarios", nargs="+", metavar="NAME",
        default=["paper-figure3", "diurnal", "flash-crowd"],
        help="scenario names to replay (default: %(default)s)",
    )
    ablate_parser.add_argument(
        "--models", nargs="+", metavar="SPEC",
        default=["paper", "learned", "oracle"],
        help="model specs to compare (default: %(default)s); 'learned' is "
             "trained on each scenario's own paper-model trace first",
    )
    ablate_parser.add_argument(
        "--full", action="store_true",
        help="full-length scenario runs (default: smoke-compressed)",
    )
    ablate_parser.add_argument(
        "--seed", type=int, default=None,
        help="override each scenario's own seed",
    )
    ablate_parser.add_argument(
        "--invariants", choices=("off", "warn", "strict"), default="warn",
        help="invariant mode for the replays (default warn: violations "
             "are counted in the table instead of aborting)",
    )
    ablate_parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the full comparison report as JSON",
    )
    ablate_parser.set_defaults(func=_cmd_ablate_models)

    report_parser = sub.add_parser(
        "report", help="run the figure 4/5/6/7 comparison, write a Markdown report"
    )
    report_parser.add_argument("--output", default="experiment_report.md")
    report_parser.add_argument("--seed", type=int, default=7)
    report_parser.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
