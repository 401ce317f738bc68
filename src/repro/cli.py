"""Command-line front-end for the design flow.

Mirrors the paper's prototype tool-chain as a CLI::

    python -m repro analyze    --htl prog.htl --arch arch.json --impl impl.json
    python -m repro synthesize --htl prog.htl --arch arch.json -o impl.json
    python -m repro ecode      --htl prog.htl --arch arch.json --impl impl.json
    python -m repro simulate   --htl prog.htl --arch arch.json --impl impl.json \
                               --iterations 10000 --bernoulli
    python -m repro check      --htl prog.htl
    python -m repro lint       --htl prog.htl --format sarif
    python -m repro verify     --htl prog.htl --arch arch.json \
                               --explain sen1

Specifications may come from HTL source (``--htl``) or from the JSON
form of :mod:`repro.io` (``--spec``).  Task functions and switch
conditions, being code, are supplied through ``--bindings module.py``:
a Python file whose ``FUNCTIONS`` and ``CONDITIONS`` dicts are used as
the registries.  Exit status is 0 when the requested check passes and
1 when it fails, so the tool slots into CI pipelines.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from typing import Any, Callable, Mapping

from repro.errors import AnalysisError, ReproError
from repro.htl.compiler import compile_program
from repro.htl.ecode import generate_ecode
from repro.io import (
    architecture_from_dict,
    dump_json,
    implementation_from_dict,
    implementation_to_dict,
    load_json,
    specification_from_dict,
)
from repro.model.specification import Specification
from repro.reliability.srg import communicator_srgs
from repro.runtime.engine import Simulator
from repro.runtime.faults import BernoulliFaults, ScriptedFaults
from repro.synthesis.replication import synthesize_replication
from repro.validity import check_validity


def _load_bindings(
    path: str | None,
) -> tuple[dict[str, Callable[..., Any]], dict[str, Callable[..., Any]]]:
    if path is None:
        return {}, {}
    module_spec = importlib.util.spec_from_file_location(
        "repro_cli_bindings", path
    )
    if module_spec is None or module_spec.loader is None:
        raise ReproError(f"cannot import bindings file {path!r}")
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    functions = getattr(module, "FUNCTIONS", {})
    conditions = getattr(module, "CONDITIONS", {})
    return dict(functions), dict(conditions)


def _load_specification(
    args: argparse.Namespace,
    functions: Mapping[str, Callable[..., Any]],
    conditions: Mapping[str, Callable[..., Any]],
) -> Specification:
    if args.htl:
        with open(args.htl, "r", encoding="utf-8") as handle:
            source = handle.read()
        compiled = compile_program(
            source, functions=functions, conditions=conditions
        )
        return compiled.specification()
    if args.spec:
        return specification_from_dict(
            load_json(args.spec), functions=functions
        )
    raise ReproError("provide a specification via --htl or --spec")


def _add_common_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--htl", help="HTL source file")
    parser.add_argument("--spec", help="specification JSON file")
    parser.add_argument(
        "--bindings",
        help="Python file exporting FUNCTIONS / CONDITIONS registries",
    )


def _cmd_check(args: argparse.Namespace) -> int:
    functions, conditions = _load_bindings(args.bindings)
    spec = _load_specification(args, functions, conditions)
    if getattr(args, "format", "text") == "json":
        print(
            json.dumps(
                {
                    "ok": True,
                    "period": spec.period(),
                    "communicators": sorted(spec.communicators),
                    "tasks": {
                        name: {"let": list(spec.let(name))}
                        for name in sorted(spec.tasks)
                    },
                },
                indent=2,
            )
        )
        return 0
    print(
        f"specification OK: {len(spec.tasks)} tasks, "
        f"{len(spec.communicators)} communicators, "
        f"period {spec.period()}"
    )
    for name in sorted(spec.tasks):
        read, write = spec.let(name)
        print(f"  {name}: LET [{read}, {write}]")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    functions, conditions = _load_bindings(args.bindings)
    spec = _load_specification(args, functions, conditions)
    arch = architecture_from_dict(load_json(args.arch))
    implementation = implementation_from_dict(load_json(args.impl))
    report = check_validity(spec, arch, implementation)
    if getattr(args, "format", "text") == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 0 if report.valid else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import lint_program, lint_specification

    arch = (
        architecture_from_dict(load_json(args.arch))
        if args.arch
        else None
    )
    implementation = (
        implementation_from_dict(load_json(args.impl))
        if args.impl
        else None
    )
    if args.htl:
        with open(args.htl, "r", encoding="utf-8") as handle:
            source = handle.read()
        report = lint_program(
            source,
            architecture=arch,
            implementation=implementation,
            artifact=args.htl,
            max_selections=args.max_selections,
        )
    elif args.spec:
        functions, _ = _load_bindings(args.bindings)
        spec = specification_from_dict(
            load_json(args.spec), functions=functions
        )
        report = lint_specification(
            spec,
            architecture=arch,
            implementation=implementation,
            artifact=args.spec,
        )
    else:
        raise ReproError("provide a program via --htl or --spec")
    if args.format == "json":
        print(report.to_json())
    elif args.format == "sarif":
        print(json.dumps(report.to_sarif(), indent=2))
    else:
        print(report.to_text())
    return report.exit_code


def _format_selection(selection: "Mapping[str, str] | None") -> str:
    if not selection:
        return "the flattened specification"
    return "selection {" + ", ".join(
        f"{module}.{mode}" for module, mode in sorted(selection.items())
    ) + "}"


def _explain_communicator(name: str, verification) -> int:
    """Dump the factor structure / witness of one communicator."""
    found = False
    for selection, report in verification.selections:
        bound = report.bounds.get(name)
        if bound is None:
            continue
        found = True
        print(f"{name} in {_format_selection(selection)}:")
        print(
            f"  certified bounds {bound.interval.describe()}, "
            f"LRC {bound.lrc:g}, verdict {bound.verdict.value}"
        )
        witness = bound.witness()
        if witness is not None:
            for line in witness.describe().splitlines():
                print(f"  {line}")
        else:
            for factor in bound.factors:
                print(f"    - {factor.describe()}")
    if not found:
        raise ReproError(
            f"unknown communicator {name!r} (not in any reachable "
            f"selection)"
        )
    return 0 if verification.feasible else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.errors import HTLSyntaxError
    from repro.htl.parser import parse_program
    from repro.lint.context import LintContext
    from repro.lint.diagnostic import LintReport
    from repro.lint.registry import rule_summaries

    arch = architecture_from_dict(load_json(args.arch))
    implementation = (
        implementation_from_dict(load_json(args.impl))
        if args.impl
        else None
    )
    artifact = args.htl or args.spec
    span = None
    if args.htl:
        with open(args.htl, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            program = parse_program(source)
        except HTLSyntaxError as error:
            raise ReproError(
                f"{args.htl}:{error.line}:{error.column}: {error}"
            )
        ctx = LintContext(
            program=program,
            architecture=arch,
            implementation=implementation,
            max_selections=args.max_selections,
        )
        if ctx.compile_error is not None:
            raise ReproError(str(ctx.compile_error))
        span = ctx.communicator_span
    elif args.spec:
        functions, _ = _load_bindings(args.bindings)
        spec = specification_from_dict(
            load_json(args.spec), functions=functions
        )
        ctx = LintContext(
            spec=spec,
            architecture=arch,
            implementation=implementation,
        )
    else:
        raise ReproError("provide a design via --htl or --spec")

    verifier = ctx.verifier()
    verification = verifier.verify_context(ctx)
    if not verification.selections:
        raise ReproError(
            "no reachable mode selection flattens to a specification; "
            "run 'repro lint' for the cause"
        )

    if args.explain:
        return _explain_communicator(args.explain, verification)

    if args.format == "json":
        data = verification.to_dict()
        data["cache"] = verifier.cache.stats.to_dict()
        print(json.dumps(data, indent=2))
    elif args.format == "sarif":
        report = LintReport(
            diagnostics=tuple(verification.diagnostics(span)),
            artifact=artifact,
            rule_summaries=rule_summaries(),
        )
        print(json.dumps(report.to_sarif(), indent=2))
    else:
        for index, (selection, report) in enumerate(
            verification.selections
        ):
            if index:
                print()
            print(f"== {_format_selection(selection)} ==")
            print(report.summary())
        if verification.truncated:
            print(
                "\nnote: the reachable-selection space was truncated; "
                "unanalysed selections may still be infeasible"
            )
        overall = (
            "PROVED" if verification.proved
            else ("FEASIBLE" if verification.feasible else "INFEASIBLE")
        )
        print(f"\noverall: {overall}")
    return 0 if verification.feasible else 1


def _cmd_synthesize(args: argparse.Namespace) -> int:
    functions, conditions = _load_bindings(args.bindings)
    spec = _load_specification(args, functions, conditions)
    arch = architecture_from_dict(load_json(args.arch))
    result = synthesize_replication(
        spec,
        arch,
        max_replicas=args.max_replicas,
        require_schedulable=not args.skip_schedulability,
    )
    print(
        f"synthesised {result.replication_count} task replicas "
        f"({result.explored} nodes explored)"
    )
    for task in sorted(spec.tasks):
        hosts = ", ".join(sorted(result.implementation.hosts_of(task)))
        print(f"  {task} -> {hosts}")
    for comm in sorted(spec.input_communicators()):
        sensors = ", ".join(
            sorted(result.implementation.sensors_of(comm))
        )
        print(f"  {comm} <- {sensors}")
    if args.output:
        dump_json(
            implementation_to_dict(result.implementation), args.output
        )
        print(f"wrote {args.output}")
    return 0 if result.valid else 1


def _cmd_ecode(args: argparse.Namespace) -> int:
    functions, conditions = _load_bindings(args.bindings)
    spec = _load_specification(args, functions, conditions)
    arch = architecture_from_dict(load_json(args.arch))
    implementation = implementation_from_dict(load_json(args.impl))
    ecode = generate_ecode(spec, arch, implementation)
    print(ecode.render())
    if ecode.timeline is not None:
        print()
        print(ecode.timeline.render())
        return 0 if ecode.timeline.feasible else 1
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.dot import (
        dependency_graph_dot,
        mapping_dot,
        specification_graph_dot,
    )

    functions, conditions = _load_bindings(args.bindings)
    spec = _load_specification(args, functions, conditions)
    if args.view == "spec":
        print(specification_graph_dot(spec), end="")
    elif args.view == "dataflow":
        print(dependency_graph_dot(spec), end="")
    else:  # mapping
        if not args.arch or not args.impl:
            raise ReproError(
                "the mapping view needs --arch and --impl"
            )
        arch = architecture_from_dict(load_json(args.arch))
        implementation = implementation_from_dict(load_json(args.impl))
        print(mapping_dot(spec, arch, implementation), end="")
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    from repro.htl.pretty import normalise

    if not args.htl:
        raise ReproError("normalize needs --htl")
    with open(args.htl, "r", encoding="utf-8") as handle:
        source = handle.read()
    print(normalise(source), end="")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report import design_report

    functions, conditions = _load_bindings(args.bindings)
    spec = _load_specification(args, functions, conditions)
    arch = architecture_from_dict(load_json(args.arch))
    implementation = implementation_from_dict(load_json(args.impl))
    print(design_report(spec, arch, implementation))
    return 0 if check_validity(spec, arch, implementation).valid else 1


def _build_recovery_policies(args: argparse.Namespace) -> list:
    """Resolve ``--recover`` into recovery policy instances."""
    from repro.resilience import DegradePolicy, ReReplicatePolicy

    policies: list = []
    for name in args.recover or []:
        if name == "re-replicate":
            policies.append(ReReplicatePolicy())
        else:  # degrade (choices enforced by argparse)
            if not args.degrade_impl:
                raise ReproError(
                    "--recover degrade needs --degrade-impl (the "
                    "declared safe-mode implementation JSON)"
                )
            policies.append(
                DegradePolicy(
                    implementation_from_dict(
                        load_json(args.degrade_impl)
                    )
                )
            )
    return policies


def _write_events(events, path: "str | None") -> None:
    """Write resilience events as JSONL to *path* (when given)."""
    from repro.resilience import write_jsonl

    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        count = write_jsonl(events, handle)
    print(f"wrote {count} events to {path}")


def _build_telemetry(args: argparse.Namespace, spec) -> tuple:
    """Resolve --trace/--metrics/--postmortem into sinks on one bus.

    Returns ``(tracer, metrics_sink, recorder, bus)``; the bus fans
    every resilience event out to the sinks that were asked for.
    """
    from repro.telemetry import (
        MetricsSink,
        ProvenanceRecorder,
        TelemetryBus,
        Tracer,
        derive_run_id,
    )

    run_id = derive_run_id(args.seed)
    tracer = Tracer(run_id=run_id) if args.trace else None
    metrics_sink = MetricsSink() if args.metrics else None
    recorder = (
        ProvenanceRecorder(spec, run_id=run_id) if args.postmortem else None
    )
    bus = TelemetryBus(
        run_id=run_id,
        sinks=(
            s for s in (tracer, metrics_sink, recorder) if s is not None
        ),
    )
    return tracer, metrics_sink, recorder, bus


def _write_forensics(recorder, path: str) -> None:
    """Export a recorder's forensics document as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(recorder.to_dict(), handle)
    print(
        f"wrote forensics ({len(recorder.chains)} causal chains, "
        f"{len(recorder.frames())} flight-recorder frames) to {path}"
    )


def _record_ledger(
    args: argparse.Namespace, spec, arch, implementation, result,
    command: str,
    runs: "int | None" = None,
    metrics: "dict | None" = None,
) -> None:
    """Append this run's reliability outcome to the run ledger.

    *runs* overrides ``args.runs`` (an adaptive batch records the
    stop point, not the budget) and *metrics* attaches extra
    metadata — the adaptive stopping summary — to the record.
    """
    if not getattr(args, "ledger", None):
        return
    from repro.telemetry import (
        RunLedger,
        derive_run_id,
        record_from_result,
    )

    record = record_from_result(
        spec,
        arch,
        implementation,
        result,
        run_id=derive_run_id(args.seed),
        command=command,
        seed=args.seed,
        runs=args.runs if runs is None else runs,
        metrics=metrics,
    )
    ledger = RunLedger(args.ledger)
    index = ledger.append(record)
    print(
        f"ledger: recorded entry #{index} ({record.run_id}) "
        f"in {args.ledger}"
    )


def _write_trace(tracer, path: str) -> None:
    """Export a tracer: Chrome JSON, or JSONL for ``.jsonl`` paths."""
    with open(path, "w", encoding="utf-8") as handle:
        if path.endswith(".jsonl"):
            count = tracer.write_jsonl(handle)
        else:
            count = tracer.write_chrome(handle)
    print(f"wrote {count} trace events to {path}")


def _finish_metrics(registry, srgs, spec, path: str) -> None:
    """Record margins, write Prometheus text, print the dashboard.

    *srgs* is ``None`` for a design with a communicator cycle with
    memory, which has no SRG margins to record.
    """
    from repro.report import render_metrics_dashboard
    from repro.telemetry import record_margins

    if srgs is not None:
        record_margins(
            registry,
            {
                name: (srgs[name], comm.lrc)
                for name, comm in spec.communicators.items()
            },
        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(registry.to_prometheus())
    print(f"wrote metrics to {path}")
    print()
    print(render_metrics_dashboard(registry.snapshot()))


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.telemetry import NULL_PROFILER, StageProfiler

    if args.runs < 1:
        raise ReproError(
            f"--runs must be >= 1, got {args.runs}"
        )
    if args.iterations < 1:
        raise ReproError(
            f"--iterations must be >= 1, got {args.iterations}"
        )
    if args.jobs < 1:
        raise ReproError(
            f"--jobs must be >= 1, got {args.jobs}"
        )
    if args.jobs > 1 and args.runs == 1:
        raise ReproError(
            "--jobs shards the Monte-Carlo batch; use --runs > 1"
        )
    if args.jobs > 1 and args.recover:
        raise ReproError(
            "--jobs shards the vectorized batch; the resilient batch "
            "runs serially, drop --jobs"
        )
    if args.trace and args.runs > 1:
        raise ReproError("--trace needs a single run; use --runs 1")
    functions, conditions = _load_bindings(args.bindings)
    spec = _load_specification(args, functions, conditions)
    arch = architecture_from_dict(load_json(args.arch))
    implementation = implementation_from_dict(load_json(args.impl))
    profiler = StageProfiler() if args.profile else NULL_PROFILER
    if args.postmortem and args.runs > 1:
        raise ReproError(
            "--postmortem needs a single run (the forensics recorder "
            "subscribes to the scalar hook stream); use --runs 1"
        )

    injectors = []
    if args.bernoulli:
        injectors.append(BernoulliFaults(arch))
    outages: dict[str, list[tuple[int, int | None]]] = {}
    for entry in args.unplug or []:
        host, _, when = entry.partition(":")
        if not when:
            raise ReproError(
                f"--unplug expects HOST:TIME, got {entry!r}"
            )
        outages.setdefault(host, []).append((int(when), None))
    if outages:
        injectors.append(ScriptedFaults(host_outages=outages))
    faults = None
    if len(injectors) == 1:
        faults = injectors[0]
    elif injectors:
        from repro.runtime.faults import CompositeFaults

        faults = CompositeFaults(injectors)

    try:
        srgs = communicator_srgs(spec, implementation, arch)
    except AnalysisError:
        # A communicator cycle with memory has no SRG; simulating it
        # is still well defined.
        srgs = None
    monitor_config = None
    if args.monitor or args.recover:
        from repro.resilience import MonitorConfig

        monitor_config = MonitorConfig(window=args.monitor_window)

    if args.adaptive:
        if args.recover:
            raise ReproError(
                "--adaptive drives the batch executor; drop --recover"
            )
        if args.runs <= 1:
            raise ReproError("--adaptive needs --runs > 1")
    elif args.target_width is not None:
        raise ReproError("--target-width needs --adaptive")

    # Produce the result: a batch (vectorized, or the resilient
    # executive looped over spawned seeds) or one scalar run (plain or
    # resilient); either way every resilience event passes through
    # the bus.
    tracer, metrics_sink, recorder, bus = _build_telemetry(args, spec)
    adaptive = None
    if args.runs > 1:
        import time

        from repro.telemetry import record_batch_result

        if args.recover:
            from repro.resilience import WatchdogConfig, resilient_batch

            command = "resilient-batch"
            started = time.perf_counter()
            with profiler.stage(command):
                result = resilient_batch(
                    spec,
                    arch,
                    implementation,
                    args.runs,
                    args.iterations,
                    seed=args.seed,
                    faults=faults,
                    monitor=monitor_config,
                    watchdog=WatchdogConfig(),
                    policies=_build_recovery_policies(args),
                )
        else:
            from repro.runtime.batch import BatchSimulator

            executor = None
            if args.jobs > 1:
                from repro.service.supervision import (
                    SupervisedShardedExecutor,
                )

                executor = SupervisedShardedExecutor(args.jobs)
            batch = BatchSimulator(
                spec, arch, implementation, faults=faults,
                seed=args.seed, profiler=profiler, executor=executor,
            )
            rule = None
            if args.adaptive:
                from repro.telemetry.convergence import StoppingRule

                rule = StoppingRule(
                    target_rel_half_width=args.target_width,
                    min_runs=min(args.min_runs, args.runs),
                    indifference=args.indifference,
                )
            command = "batch"
            started = time.perf_counter()
            growth = batch.grow(
                args.runs, args.iterations, rule=rule,
                monitor=monitor_config,
                on_snapshot=lambda snap, _: print("  " + snap.summary()),
            )
            result, adaptive = growth.result, growth.adaptive
            if adaptive is not None:
                print(
                    f"adaptive stop at run {adaptive.stopped_at}"
                    f"/{adaptive.max_runs} ({adaptive.decision.reason}; "
                    f"saved {adaptive.runs_saved} runs, "
                    f"{adaptive.savings_factor:.1f}x)"
                )
        if metrics_sink is not None:
            record_batch_result(
                metrics_sink.registry, result,
                time.perf_counter() - started,
            )
        bus.extend(result.monitor_events)
        observed = result.srg_estimates()
    elif args.recover:
        from repro.resilience import ResilientSimulator, WatchdogConfig

        command = "resilient"
        with profiler.stage("resilient-run"):
            result = ResilientSimulator(
                spec,
                arch,
                implementation,
                faults=faults,
                seed=args.seed,
                monitor=monitor_config,
                watchdog=WatchdogConfig(),
                policies=_build_recovery_policies(args),
                telemetry=bus,
            ).run(args.iterations)
        observed = result.limit_averages()
    else:
        monitor = None
        if monitor_config is not None:
            from repro.resilience import LrcMonitor

            monitor = LrcMonitor(spec, monitor_config, sink=bus)
        simulator = Simulator(
            spec, arch, implementation, faults=faults, seed=args.seed,
            monitor=monitor, sinks=bus.sinks,
        )
        command = "scalar"
        with profiler.stage("scalar-run"):
            result = simulator.run(args.iterations)
        observed = result.limit_averages()

    # Report it.
    print(result.summary())
    print("\nobserved vs analytic SRG:")
    for name in sorted(spec.communicators):
        print(
            f"  {name}: observed {observed[name]:.6f}  "
            + (
                f"SRG {srgs[name]:.6f}" if srgs is not None
                else "SRG undefined (communicator cycle with memory)"
            )
        )
    if monitor_config is not None:
        if args.runs > 1:
            print(
                f"\nonline monitor: {len(bus)} events across "
                f"{result.runs} runs"
            )
        else:
            for event in bus:
                print(f"  event: {json.dumps(event.to_dict())}")
        _write_events(bus.events, args.events)
    if recorder is not None:
        _write_forensics(recorder, args.postmortem)
    _record_ledger(
        args, spec, arch, implementation, result, command,
        runs=None if adaptive is None else adaptive.stopped_at,
        metrics=(
            None if adaptive is None else {"adaptive": adaptive.to_dict()}
        ),
    )
    if tracer is not None:
        tracer.close()
        _write_trace(tracer, args.trace)
    if metrics_sink is not None:
        _finish_metrics(metrics_sink.registry, srgs, spec, args.metrics)
    if args.profile:
        print()
        print(profiler.render())
    return 0 if result.satisfies_lrcs(slack=args.slack) else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        load_trace_file,
        render_summary,
        summarize_trace,
    )

    events = load_trace_file(args.file)
    summary = summarize_trace(events)
    print(render_summary(summary, top=args.top))
    return 0


def _cmd_postmortem(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        PostmortemReport,
        counterfactual,
        load_forensics_file,
        postmortem_to_dict,
        render_postmortem,
    )

    doc = load_forensics_file(args.file)
    report = PostmortemReport.from_document(doc)
    counterfactuals = []
    for mask in args.mask or []:
        sources = [s.strip() for s in mask.split(",") if s.strip()]
        for source in sources:
            if ":" not in source:
                raise ReproError(
                    f"--mask expects KIND:NAME (e.g. host:h2 or "
                    f"sensor:sen1), got {source!r}"
                )
        counterfactuals.append(
            counterfactual(report.chains, sources)
        )
    if args.format == "json":
        print(
            json.dumps(
                postmortem_to_dict(report, counterfactuals), indent=2
            )
        )
    else:
        print(
            render_postmortem(report, counterfactuals, top=args.top)
        )
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.telemetry import RunLedger, check_regression
    from repro.telemetry.ledger import (
        render_diff,
        render_listing,
        render_record,
    )

    ledger = RunLedger(args.ledger)
    if args.runs_command == "list":
        print(render_listing(ledger.records()))
        return 0
    if args.runs_command == "show":
        print(render_record(ledger.resolve(args.entry)))
        return 0
    if args.runs_command == "diff":
        baseline = ledger.resolve(args.baseline)
        candidate = ledger.resolve(args.candidate)
        print(render_diff(baseline, candidate))
        return 0
    # regress
    baseline = ledger.resolve(args.baseline)
    candidate = ledger.resolve(args.candidate)
    if baseline.spec_hash != candidate.spec_hash:
        print(
            f"note: specification changed between #{baseline.entry} "
            f"and #{candidate.entry} "
            f"({baseline.spec_hash} -> {candidate.spec_hash})"
        )
    regressions = check_regression(
        baseline, candidate, threshold=args.threshold
    )
    if not regressions:
        print(
            f"regress OK: #{candidate.entry} ({candidate.run_id}) "
            f"holds every margin within {args.threshold} of "
            f"#{baseline.entry} ({baseline.run_id})"
        )
        return 0
    print(
        f"regress FAIL: #{candidate.entry} ({candidate.run_id}) vs "
        f"#{baseline.entry} ({baseline.run_id}):"
    )
    for regression in regressions:
        print(
            f"  {regression.communicator}: margin "
            f"{regression.baseline_margin:+.6f} -> "
            f"{regression.candidate_margin:+.6f} "
            f"(drop {regression.drop:.6f} > {args.threshold})"
        )
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ReliabilityService, serve

    if args.workers < 1:
        raise ReproError(
            f"--workers must be >= 1, got {args.workers}"
        )
    if args.queue_limit is not None and args.queue_limit < 1:
        raise ReproError(
            f"--queue-limit must be >= 1, got {args.queue_limit}"
        )
    if args.shard_retries < 0:
        raise ReproError(
            f"--shard-retries must be >= 0, got {args.shard_retries}"
        )
    if args.shard_deadline is not None and args.shard_deadline <= 0:
        raise ReproError(
            f"--shard-deadline must be > 0, got {args.shard_deadline}"
        )
    if args.cache_entries is not None and args.cache_entries < 1:
        raise ReproError(
            f"--cache-entries must be >= 1, got {args.cache_entries}"
        )
    if args.timeout is not None and args.timeout <= 0:
        raise ReproError(
            f"--timeout must be > 0, got {args.timeout}"
        )
    functions, conditions = _load_bindings(args.bindings)
    service = ReliabilityService(
        workers=args.workers,
        ledger=args.ledger,
        functions=functions,
        conditions=conditions,
        queue_limit=args.queue_limit,
        shard_retries=args.shard_retries,
        shard_deadline_s=args.shard_deadline,
        cache_entries=args.cache_entries,
        cache_dir=args.cache_dir,
        default_timeout_s=args.timeout,
        log=args.log,
        tracing=not args.no_trace,
    )
    serve(service, host=args.host, port=args.port)
    return 0


def _build_job_document(args: argparse.Namespace) -> dict:
    """Assemble the job JSON from the submit command's file inputs."""
    document: dict[str, Any] = {
        "kind": "verify" if args.verify else "simulate",
        "arch": load_json(args.arch),
        "seed": args.seed,
    }
    if args.htl:
        with open(args.htl, "r", encoding="utf-8") as handle:
            document["htl"] = handle.read()
    elif args.spec:
        document["spec"] = load_json(args.spec)
    else:
        raise ReproError("provide a specification via --htl or --spec")
    if args.impl:
        document["impl"] = load_json(args.impl)
    if not args.verify:
        document.update(
            runs=args.runs,
            iterations=args.iterations,
            jobs=args.jobs,
            bernoulli=not args.no_bernoulli,
            slack=args.slack,
        )
        if args.monitor:
            document["monitor_window"] = args.monitor_window
        if args.adaptive:
            document["adaptive"] = True
            document["min_runs"] = args.min_runs
            document["indifference"] = args.indifference
            if args.target_width is not None:
                document["target_rel_half_width"] = args.target_width
        elif args.target_width is not None:
            raise ReproError("--target-width needs --adaptive")
    if args.timeout is not None:
        if args.timeout <= 0:
            raise ReproError(
                f"--timeout must be > 0, got {args.timeout}"
            )
        document["timeout_s"] = args.timeout
    return document


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    if args.trace and args.no_wait:
        raise ReproError(
            "--trace needs the finished job; drop --no-wait"
        )

    def _log_backoff(event: dict) -> None:
        print(json.dumps(event, sort_keys=True), file=sys.stderr)

    client = ServiceClient(args.host, args.port, on_log=_log_backoff)
    document = _build_job_document(args)
    reply = client.submit(document)
    job_id = reply["id"]
    trace_id = reply.get("trace_id")
    print(
        f"submitted {job_id}"
        + (f" trace {trace_id}" if trace_id else "")
    )
    if args.no_wait:
        return 0
    for event in client.iter_events(job_id):
        detail = {
            key: value
            for key, value in event.items()
            if key not in ("seq", "job", "at", "state")
        }
        suffix = f" {json.dumps(detail)}" if detail else ""
        print(f"  [{event['seq']}] {event['state']}{suffix}")
    job = client.job(job_id)
    if args.trace:
        trace_doc = client.job_trace(job_id)
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(trace_doc, handle)
        print(
            f"wrote merged trace ({len(trace_doc['traceEvents'])} "
            f"events) to {args.trace}",
            file=sys.stderr,
        )
    if job["state"] in ("failed", "timed_out", "cancelled"):
        print(
            f"error: job {job['state']}: "
            f"{job.get('error', 'no detail')}",
            file=sys.stderr,
        )
        return 1
    result = job.get("result", {})
    print(json.dumps(result, indent=2, sort_keys=True))
    if result.get("kind") == "simulate":
        return 0 if result.get("satisfied") else 1
    if result.get("kind") == "verify":
        return 0 if result.get("feasible") else 1
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.host, args.port)
    if args.metrics:
        print(json.dumps(client.metrics(), indent=2, sort_keys=True))
        return 0
    jobs = client.jobs()
    if not jobs:
        print("no jobs submitted")
        return 0
    for job in jobs:
        result = job.get("result") or {}
        cache = result.get("cache", "")
        note = f" cache={cache}" if cache else ""
        error = job.get("error")
        if error:
            note = f" {error}"
        print(
            f"{job['id']:>8}  {job['kind']:<8} {job['state']:<7}"
            f"{note}"
        )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.service.top import run_top

    if args.interval <= 0:
        raise ReproError(
            f"--interval must be > 0, got {args.interval}"
        )
    return run_top(
        host=args.host, port=args.port,
        interval=args.interval, once=args.once,
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import ChaosConfig, run_chaos

    for name in (
        "waves", "unique_jobs", "runs", "iterations", "shards",
        "workers", "queue_limit",
    ):
        flag = "--" + name.replace("_", "-")
        if getattr(args, name) < 1:
            raise ReproError(
                f"{flag} must be >= 1, got {getattr(args, name)}"
            )
    if args.seed < 0:
        raise ReproError(f"--seed must be >= 0, got {args.seed}")
    config = ChaosConfig(
        seed=args.seed,
        waves=args.waves,
        unique_jobs=args.unique_jobs,
        runs=args.runs,
        iterations=args.iterations,
        shards=args.shards,
        workers=args.workers,
        queue_limit=args.queue_limit,
    )
    report = run_chaos(config, out_dir=args.out)
    print(report.summary())
    if args.out:
        print(f"report and event log written under {args.out}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "joint schedulability/reliability design flow for "
            "interacting real-time tasks (DATE 2008 reproduction)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    check = subparsers.add_parser(
        "check", help="parse and validate a specification"
    )
    _add_common_inputs(check)
    check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format",
    )
    check.set_defaults(handler=_cmd_check)

    analyze = subparsers.add_parser(
        "analyze", help="joint schedulability/reliability analysis"
    )
    _add_common_inputs(analyze)
    analyze.add_argument("--arch", required=True,
                         help="architecture JSON file")
    analyze.add_argument("--impl", required=True,
                         help="implementation JSON file")
    analyze.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    lint = subparsers.add_parser(
        "lint",
        help="static analysis: races, cycles, LRC feasibility, ...",
    )
    _add_common_inputs(lint)
    lint.add_argument(
        "--arch", help="architecture JSON (enables LRC feasibility)"
    )
    lint.add_argument(
        "--impl",
        help="implementation JSON (enables sensor-binding and "
        "switch-preservation checks)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format",
    )
    lint.add_argument(
        "--max-selections", type=int, default=256,
        help="cap on reachable mode selections analysed",
    )
    lint.set_defaults(handler=_cmd_lint)

    verify = subparsers.add_parser(
        "verify",
        help="whole-design reliability verification: certified LRC "
        "bounds via abstract interpretation",
    )
    _add_common_inputs(verify)
    verify.add_argument(
        "--arch", required=True, help="architecture JSON file"
    )
    verify.add_argument(
        "--impl",
        help="implementation JSON (may be partial; omit to verify "
        "over all admissible implementations)",
    )
    verify.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format",
    )
    verify.add_argument(
        "--explain", metavar="COMM",
        help="dump the factor structure (or infeasibility witness) of "
        "one communicator instead of the full report",
    )
    verify.add_argument(
        "--max-selections", type=int, default=256,
        help="cap on reachable mode selections analysed",
    )
    verify.set_defaults(handler=_cmd_verify)

    synthesize = subparsers.add_parser(
        "synthesize", help="synthesise a valid replication mapping"
    )
    _add_common_inputs(synthesize)
    synthesize.add_argument("--arch", required=True)
    synthesize.add_argument("-o", "--output",
                            help="write the mapping as JSON")
    synthesize.add_argument("--max-replicas", type=int, default=None)
    synthesize.add_argument("--skip-schedulability", action="store_true")
    synthesize.set_defaults(handler=_cmd_synthesize)

    full_report = subparsers.add_parser(
        "report",
        help="full design report: analysis, margins, timeline, advice",
    )
    _add_common_inputs(full_report)
    full_report.add_argument("--arch", required=True)
    full_report.add_argument("--impl", required=True)
    full_report.set_defaults(handler=_cmd_report)

    ecode = subparsers.add_parser(
        "ecode", help="generate and print E-code + timeline"
    )
    _add_common_inputs(ecode)
    ecode.add_argument("--arch", required=True)
    ecode.add_argument("--impl", required=True)
    ecode.set_defaults(handler=_cmd_ecode)

    dot = subparsers.add_parser(
        "dot", help="export a Graphviz view of the design"
    )
    _add_common_inputs(dot)
    dot.add_argument(
        "--view", choices=("spec", "dataflow", "mapping"),
        default="dataflow",
    )
    dot.add_argument("--arch", help="architecture JSON (mapping view)")
    dot.add_argument("--impl", help="implementation JSON (mapping view)")
    dot.set_defaults(handler=_cmd_dot)

    normalize = subparsers.add_parser(
        "normalize", help="pretty-print an HTL program canonically"
    )
    _add_common_inputs(normalize)
    normalize.set_defaults(handler=_cmd_normalize)

    simulate = subparsers.add_parser(
        "simulate", help="run the distributed runtime simulator"
    )
    _add_common_inputs(simulate)
    simulate.add_argument("--arch", required=True)
    simulate.add_argument("--impl", required=True)
    simulate.add_argument("--iterations", type=int, default=1000)
    simulate.add_argument(
        "--runs", type=int, default=1,
        help="number of independent Monte-Carlo runs; values above 1 "
        "use the vectorized batch executor",
    )
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard a batch (--runs > 1) over N supervised worker "
        "processes (a failed shard is retried twice); results are "
        "bit-identical to --jobs 1",
    )
    simulate.add_argument("--slack", type=float, default=0.01,
                          help="LRC slack for finite-sample noise")
    simulate.add_argument(
        "--adaptive", action="store_true",
        help="treat --runs as a budget and stop the batch early at "
        "the first checkpoint where every LRC verdict is decided; "
        "deterministic (same stop point serial or sharded) and "
        "bit-identical to a fixed batch truncated at the stop point",
    )
    simulate.add_argument(
        "--target-width", type=float, metavar="REL",
        help="with --adaptive, additionally require every "
        "communicator's relative CI half-width to shrink below REL",
    )
    simulate.add_argument(
        "--min-runs", type=int, default=64, metavar="N",
        help="first adaptive checkpoint (default 64)",
    )
    simulate.add_argument(
        "--indifference", type=float, default=0.002, metavar="DELTA",
        help="half-width of the sequential test's indifference "
        "region around each LRC (default 0.002)",
    )
    simulate.add_argument(
        "--bernoulli", action="store_true",
        help="inject transient faults matching hrel/srel",
    )
    simulate.add_argument(
        "--unplug", action="append", metavar="HOST:TIME",
        help="take HOST down permanently at TIME (repeatable)",
    )
    simulate.add_argument(
        "--monitor", action="store_true",
        help="attach the online LRC monitor (alarm/clear events)",
    )
    simulate.add_argument(
        "--monitor-window", type=int, default=50,
        help="sliding-window length of the online monitor (accesses)",
    )
    simulate.add_argument(
        "--recover", action="append",
        choices=("re-replicate", "degrade"), metavar="POLICY",
        help="run the resilient executive with this recovery policy "
        "(repeatable; consulted in order; implies --monitor)",
    )
    simulate.add_argument(
        "--degrade-impl",
        help="declared safe-mode implementation JSON for "
        "--recover degrade",
    )
    simulate.add_argument(
        "--events", metavar="FILE",
        help="write the resilience event stream to FILE as JSONL",
    )
    simulate.add_argument(
        "--trace", metavar="FILE",
        help="write an execution trace to FILE (Chrome trace-event "
        "JSON; JSON Lines when FILE ends with .jsonl)",
    )
    simulate.add_argument(
        "--metrics", metavar="FILE",
        help="write Prometheus text-format metrics to FILE and print "
        "the metrics dashboard",
    )
    simulate.add_argument(
        "--profile", action="store_true",
        help="time executor stages (shard workers' included) and "
        "print the profile table",
    )
    simulate.add_argument(
        "--postmortem", metavar="FILE",
        help="attach the forensics recorder and write its causal "
        "chains + flight recorder to FILE as JSON (single run only; "
        "analyse with 'repro postmortem FILE')",
    )
    simulate.add_argument(
        "--ledger", nargs="?", const=".repro/runs", metavar="DIR",
        help="append this run's empirical rates and LRC margins to "
        "the run ledger under DIR (default .repro/runs)",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    serve = subparsers.add_parser(
        "serve",
        help="run the reliability query daemon (cached Monte-Carlo "
        "and verification jobs over HTTP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="TCP port (0 picks a free port)",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="job worker threads",
    )
    serve.add_argument(
        "--ledger", nargs="?", const=".repro/runs", metavar="DIR",
        help="persist every completed simulate job to the run "
        "ledger under DIR (default .repro/runs)",
    )
    serve.add_argument(
        "--bindings",
        help="Python file exporting FUNCTIONS / CONDITIONS bound "
        "into submitted specifications",
    )
    serve.add_argument(
        "--queue-limit", type=int, metavar="N",
        help="bound the job queue at N queued jobs; above it "
        "submissions get HTTP 429 + Retry-After",
    )
    serve.add_argument(
        "--shard-retries", type=int, default=2, metavar="N",
        help="re-executions allowed per crashed/hung shard worker "
        "(default 2)",
    )
    serve.add_argument(
        "--shard-deadline", type=float, metavar="SECONDS",
        help="per-shard hang deadline; a silent worker past it is "
        "killed and retried",
    )
    serve.add_argument(
        "--cache-entries", type=int, metavar="N",
        help="LRU bound of the in-memory result cache per entry kind "
        "(default 256)",
    )
    serve.add_argument(
        "--cache-dir", metavar="DIR",
        help="crash-safe spill directory for evicted cache entries",
    )
    serve.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="default per-job deadline applied to jobs without "
        "their own timeout_s",
    )
    serve.add_argument(
        "--log", metavar="FILE",
        help="append structured JSONL service-log events "
        "(trace_id/job_id-stamped state transitions) to FILE",
    )
    serve.add_argument(
        "--no-trace", action="store_true",
        help="keep recorded spans out of job traces (jobs still "
        "carry trace ids)",
    )
    serve.set_defaults(handler=_cmd_serve)

    submit = subparsers.add_parser(
        "submit",
        help="submit a job to a running repro serve daemon and "
        "follow its progress",
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8765)
    submit.add_argument("--htl", help="HTL source file")
    submit.add_argument("--spec", help="specification JSON file")
    submit.add_argument("--arch", required=True,
                        help="architecture JSON file")
    submit.add_argument("--impl", help="implementation JSON file")
    submit.add_argument(
        "--verify", action="store_true",
        help="submit an analytic verification job instead of a "
        "Monte-Carlo batch",
    )
    submit.add_argument("--runs", type=int, default=1000)
    submit.add_argument("--iterations", type=int, default=200)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--slack", type=float, default=0.01,
        help="LRC slack for finite-sample noise in the satisfied "
        "verdict",
    )
    submit.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard count the daemon should simulate with",
    )
    submit.add_argument(
        "--no-bernoulli", action="store_true",
        help="disable transient fault injection",
    )
    submit.add_argument(
        "--adaptive", action="store_true",
        help="adaptive stopping: the daemon treats --runs as a "
        "budget and stops at the first checkpoint where every LRC "
        "verdict is decided",
    )
    submit.add_argument(
        "--target-width", type=float, metavar="REL",
        help="with --adaptive, also require every communicator's "
        "relative CI half-width below REL",
    )
    submit.add_argument(
        "--min-runs", type=int, default=64, metavar="N",
        help="first adaptive checkpoint (default 64)",
    )
    submit.add_argument(
        "--indifference", type=float, default=0.002, metavar="DELTA",
        help="sequential-test indifference half-width (default 0.002)",
    )
    submit.add_argument(
        "--monitor", action="store_true",
        help="attach the online LRC monitor",
    )
    submit.add_argument("--monitor-window", type=int, default=50)
    submit.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="per-job deadline; the daemon cancels the job with "
        "state timed_out once it elapses",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return without following",
    )
    submit.add_argument(
        "--trace", metavar="FILE",
        help="after completion, write the job's merged Chrome "
        "trace (client + daemon + shard spans) to FILE",
    )
    submit.set_defaults(handler=_cmd_submit)

    top = subparsers.add_parser(
        "top",
        help="live dashboard over a running repro serve daemon "
        "(/metrics + /healthz)",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=8765)
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh interval (default 1.0)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print one frame to stdout and exit (no curses)",
    )
    top.set_defaults(handler=_cmd_top)

    chaos = subparsers.add_parser(
        "chaos",
        help="run the seeded chaos storm against a real service "
        "stack and check the fleet's failure-mode guarantees",
    )
    chaos.add_argument(
        "--seed", type=int, default=0,
        help="storm seed; every injected fault derives from it",
    )
    chaos.add_argument(
        "--out", metavar="DIR",
        help="write chaos-events.jsonl and chaos-report.json "
        "under DIR",
    )
    chaos.add_argument(
        "--waves", type=int, default=2,
        help="submission/corruption waves (default 2)",
    )
    chaos.add_argument(
        "--unique-jobs", type=int, default=3,
        help="distinct simulate documents per wave (default 3)",
    )
    chaos.add_argument(
        "--runs", type=int, default=4,
        help="Monte-Carlo runs per job (default 4)",
    )
    chaos.add_argument(
        "--iterations", type=int, default=8,
        help="iterations per run (default 8)",
    )
    chaos.add_argument(
        "--shards", type=int, default=2,
        help="shard workers per job (default 2)",
    )
    chaos.add_argument(
        "--workers", type=int, default=2,
        help="service worker threads (default 2)",
    )
    chaos.add_argument(
        "--queue-limit", type=int, default=3,
        help="bounded-queue capacity under the flood (default 3)",
    )
    chaos.set_defaults(handler=_cmd_chaos)

    jobs = subparsers.add_parser(
        "jobs",
        help="list the jobs (or --metrics counters) of a running "
        "repro serve daemon",
    )
    jobs.add_argument("--host", default="127.0.0.1")
    jobs.add_argument("--port", type=int, default=8765)
    jobs.add_argument(
        "--metrics", action="store_true",
        help="print the service metrics counters instead",
    )
    jobs.set_defaults(handler=_cmd_jobs)

    trace = subparsers.add_parser(
        "trace",
        help="summarise a trace file written by simulate --trace",
    )
    trace.add_argument(
        "file", help="Chrome trace JSON or JSONL trace file"
    )
    trace.add_argument(
        "--top", type=int, default=5,
        help="number of span groups to show in the hot-spot table",
    )
    trace.set_defaults(handler=_cmd_trace)

    postmortem = subparsers.add_parser(
        "postmortem",
        help="analyse a forensics file written by simulate "
        "--postmortem: blame table + counterfactual queries",
    )
    postmortem.add_argument(
        "file", help="forensics JSON file (simulate --postmortem)"
    )
    postmortem.add_argument(
        "--mask", action="append", metavar="SOURCE",
        help="counterfactual query: re-evaluate every chain with "
        "SOURCE healthy (e.g. host:h2 or sensor:sen1; "
        "comma-separate to mask several at once; repeatable)",
    )
    postmortem.add_argument(
        "--top", type=int, default=10,
        help="rows shown in the blame and flip tables",
    )
    postmortem.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format",
    )
    postmortem.set_defaults(handler=_cmd_postmortem)

    runs = subparsers.add_parser(
        "runs", help="inspect the persistent run ledger"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    def _runs_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--ledger", default=".repro/runs", metavar="DIR",
            help="ledger directory (default .repro/runs)",
        )
        sub.set_defaults(handler=_cmd_runs)

    runs_list = runs_sub.add_parser(
        "list", help="one line per recorded run"
    )
    _runs_common(runs_list)
    runs_show = runs_sub.add_parser(
        "show", help="full record of one ledger entry"
    )
    runs_show.add_argument(
        "entry", nargs="?", default="latest",
        help="'#N', 'latest', or a run id (default: latest)",
    )
    _runs_common(runs_show)
    runs_diff = runs_sub.add_parser(
        "diff", help="compare LRC margins between two entries"
    )
    runs_diff.add_argument("baseline", help="'#N', 'latest', or run id")
    runs_diff.add_argument("candidate", help="'#N', 'latest', or run id")
    _runs_common(runs_diff)
    runs_regress = runs_sub.add_parser(
        "regress",
        help="exit non-zero when any communicator's margin dropped "
        "more than the threshold vs the baseline entry",
    )
    runs_regress.add_argument(
        "candidate", nargs="?", default="latest",
        help="entry under test (default: latest)",
    )
    runs_regress.add_argument(
        "--baseline", default="#0",
        help="baseline entry (default: #0)",
    )
    runs_regress.add_argument(
        "--threshold", type=float, default=0.001,
        help="maximum tolerated margin drop (default 0.001)",
    )
    _runs_common(runs_regress)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        # Flush here, so a reader that closed the pipe early is
        # caught below rather than at interpreter exit.
        sys.stdout.flush()
        return status
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python's SIGPIPE recipe: point stdout at devnull so the
        # exit-time flush cannot raise again, and fail without a
        # traceback (``repro lint ... | head -1``).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
