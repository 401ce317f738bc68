"""The static-analysis passes behind ``repro lint``.

Each pass verifies one hypothesis the paper's analyses rest on — or a
design smell adjacent to it — and reports findings as
:class:`~repro.lint.diagnostic.Diagnostic` objects anchored to the HTL
source span of the offending declaration:

==========  =========================================================
LRT000      the program does not compile (parse/semantic error)
LRT001/002  write-write races (Proposition 1: race-freedom)
LRT010/011  communicator cycles (Proposition 1: memory-freedom)
LRT020      read-of-never-written communicator without a sensor
LRT021      dead communicator (written, never read, no declared lrc)
LRT030      LRC above the best achievable SRG on the architecture
LRT040-042  access-instant / period bounds per mode
LRT045      mode switching changes the LRC verdicts
LRT049-055  the six local refinement constraints of Section 3
LRT060      certified upper bound below an LRC (bound violation)
LRT061      LRC met by every admissible mapping (vacuous constraint)
LRT062      cycle fixpoint widened before convergence
LRT099      reachable-selection enumeration truncated
==========  =========================================================

Races and cycles are detected on the *AST* over every reachable mode
selection rather than on flattened specifications: a racy selection
cannot even be flattened (the :class:`Specification` constructor
enforces restriction 3), yet the linter must still pinpoint the
conflicting writers — and any cycles alongside them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import networkx as nx

from repro.errors import (
    AnalysisError,
    ArchitectureError,
    MappingError,
    ReproError,
    SpecificationError,
)
from repro.htl.ast import TaskDecl
from repro.lint.context import LintContext
from repro.lint.diagnostic import Diagnostic
from repro.lint.registry import REFINEMENT_CODES, lint_pass, make
from repro.model.graph import (
    CycleWitness,
    cycle_witnesses,
    dependency_cycle_witnesses,
)
from repro.model.task import FailureModel
from repro.reliability.analysis import check_reliability, meets_lrc


def _format_selection(selection: Mapping[str, str] | None) -> str:
    if not selection:
        return "the specification"
    inner = ", ".join(
        f"{module}.{mode}" for module, mode in sorted(selection.items())
    )
    return f"mode selection {{{inner}}}"


# ----------------------------------------------------------------------
# LRT000: the program does not compile.
# ----------------------------------------------------------------------


@lint_pass("compile", ["LRT000"], requires=["program"])
def compile_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """Surface a parse or semantic error as a diagnostic."""
    error = ctx.compile_error
    if error is not None:
        yield make(
            "LRT000",
            str(error),
            line=getattr(error, "line", 0),
            column=getattr(error, "column", 0),
        )


# ----------------------------------------------------------------------
# LRT001/LRT002: write-write races (race-freedom hypothesis).
# ----------------------------------------------------------------------


def race_diagnostics(ctx: LintContext) -> Iterator[Diagnostic]:
    """Detect multi-writer communicators per reachable mode selection.

    Restriction 3 demands a single writer per communicator in every
    selection.  Two tasks hitting the same ``(communicator, instance)``
    pair is the sharpest form (LRT001, a true write-write race on one
    value slot); distinct instances of one communicator still violate
    the single-writer rule (LRT002).
    """
    seen: set[tuple[str, str, object, frozenset[str]]] = set()
    for selection in ctx.reachable_selections():
        instance_writers: dict[tuple[str, int], dict[str, TaskDecl]] = {}
        communicator_writers: dict[str, dict[str, TaskDecl]] = {}
        for task in ctx.invoked_tasks(selection):
            for comm, instance in task.outputs:
                instance_writers.setdefault((comm, instance), {})[
                    task.name
                ] = task
                communicator_writers.setdefault(comm, {})[task.name] = task
        raced: set[str] = set()
        for (comm, instance), writers in sorted(instance_writers.items()):
            if len(writers) < 2:
                continue
            raced.add(comm)
            names = frozenset(writers)
            key = ("LRT001", comm, instance, names)
            if key in seen:
                continue
            seen.add(key)
            anchor = max(writers.values(), key=lambda t: (t.line, t.column))
            yield make(
                "LRT001",
                f"write-write race: tasks {sorted(names)} all write "
                f"instance {instance} of communicator {comm!r} in "
                f"{_format_selection(selection)}",
                line=anchor.line,
                column=anchor.column,
                hint=(
                    "keep a single writer per communicator in every "
                    "mode selection (restriction 3)"
                ),
            )
        for comm, writers in sorted(communicator_writers.items()):
            if len(writers) < 2 or comm in raced:
                continue
            names = frozenset(writers)
            key = ("LRT002", comm, None, names)
            if key in seen:
                continue
            seen.add(key)
            anchor = max(writers.values(), key=lambda t: (t.line, t.column))
            yield make(
                "LRT002",
                f"communicator {comm!r} is written by multiple tasks "
                f"{sorted(names)} in {_format_selection(selection)} "
                f"(single-writer rule)",
                line=anchor.line,
                column=anchor.column,
                hint=(
                    "merge the writers or split the communicator "
                    "(restriction 3)"
                ),
            )


@lint_pass("races", ["LRT001", "LRT002"], requires=["program"])
def race_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    yield from race_diagnostics(ctx)


# ----------------------------------------------------------------------
# LRT010/LRT011: communicator cycles (memory-freedom hypothesis).
# ----------------------------------------------------------------------


def _ast_dependency_graph(
    ctx: LintContext, selection: Mapping[str, str]
) -> nx.DiGraph:
    """Build the communicator dependency graph straight from the AST.

    Mirrors :func:`repro.model.graph.communicator_dependency_graph` but
    works on task *declarations*, so cycles are found even in
    selections that cannot be flattened (e.g. racy ones).
    """
    graph = nx.DiGraph()
    assert ctx.program is not None
    graph.add_nodes_from(decl.name for decl in ctx.program.communicators)
    for task in ctx.invoked_tasks(selection):
        try:
            model = FailureModel.parse(task.model)
        except SpecificationError:
            model = FailureModel.SERIES
        sources = sorted({comm for comm, _ in task.inputs})
        targets = sorted({comm for comm, _ in task.outputs})
        for src in sources:
            for dst in targets:
                if graph.has_edge(src, dst):
                    graph[src][dst]["tasks"].append(task.name)
                    graph[src][dst]["models"].append(model)
                else:
                    graph.add_edge(
                        src, dst, tasks=[task.name], models=[model]
                    )
    return graph


def _cycle_diagnostic(
    ctx: LintContext,
    witness: CycleWitness,
    selection: Mapping[str, str] | None,
) -> Diagnostic:
    line, column = ctx.communicator_span(witness.communicators[0])
    closing = ", ".join(witness.closing_tasks())
    if witness.safe:
        return make(
            "LRT011",
            f"communicator cycle {witness.describe()} in "
            f"{_format_selection(selection)}; an independent-model "
            f"task breaks it, so the SRG induction stays defined",
            line=line,
            column=column,
        )
    return make(
        "LRT010",
        f"unsafe communicator cycle {witness.describe()} in "
        f"{_format_selection(selection)}: no task on the cycle uses "
        f"the independent failure model (closed by task(s) {closing})",
        line=line,
        column=column,
        hint=(
            "give one task on the cycle the independent model (with "
            "default values) to break reliability propagation"
        ),
    )


@lint_pass("memory", ["LRT010", "LRT011"], requires=["spec"])
def memory_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """Report communicator cycles and whether each has a breaker task."""
    if ctx.program is not None:
        seen: set[tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]] = (
            set()
        )
        for selection in ctx.reachable_selections():
            graph = _ast_dependency_graph(ctx, selection)
            for witness in dependency_cycle_witnesses(graph):
                key = (witness.communicators, witness.edge_tasks)
                if key in seen:
                    continue
                seen.add(key)
                yield _cycle_diagnostic(ctx, witness, selection)
    elif ctx.spec is not None:
        for witness in cycle_witnesses(ctx.spec):
            yield _cycle_diagnostic(ctx, witness, None)


# ----------------------------------------------------------------------
# LRT020: read-of-never-written communicator (permanent bottom).
# ----------------------------------------------------------------------


@lint_pass(
    "never-written", ["LRT020"], requires=["spec", "implementation"]
)
def never_written_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """Find input communicators without a sensor binding.

    A communicator read by tasks but written by none is updated only
    by sensors; if the implementation binds no sensor to it either,
    every read past the initial value returns bottom and the readers'
    SRGs collapse.
    """
    assert ctx.implementation is not None
    reported: set[str] = set()
    for selection, spec in ctx.selection_specs():
        for name in sorted(spec.input_communicators()):
            if name in reported:
                continue
            if name in ctx.implementation.sensor_binding:
                continue
            reported.add(name)
            line, column = ctx.communicator_span(name)
            yield make(
                "LRT020",
                f"communicator {name!r} is read but never written in "
                f"{_format_selection(selection)} and the "
                f"implementation binds no sensor to it; reads are "
                f"permanently unreliable",
                line=line,
                column=column,
                hint="bind a sensor to it or add a writer task",
            )


# ----------------------------------------------------------------------
# LRT021: dead communicator.
# ----------------------------------------------------------------------


@lint_pass("dead-communicator", ["LRT021"], requires=["program"])
def dead_communicator_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """Find communicators written but never read, with no declared lrc.

    Written-never-read communicators are actuator outputs; leaving
    their ``lrc`` undeclared makes the compiler apply the default 1.0
    — demanding *perfect* reliability, which almost no implementation
    meets.  An explicit ``lrc`` documents the intended constraint.
    """
    assert ctx.program is not None
    written: set[str] = set()
    read: set[str] = set()
    for selection in ctx.reachable_selections():
        for task in ctx.invoked_tasks(selection):
            written |= {comm for comm, _ in task.outputs}
            read |= {comm for comm, _ in task.inputs}
    for decl in ctx.program.communicators:
        if decl.name in written and decl.name not in read:
            if decl.lrc is None:
                yield make(
                    "LRT021",
                    f"communicator {decl.name!r} is written but never "
                    f"read and declares no lrc; the compiler applies "
                    f"the default constraint 1.0 (perfect "
                    f"reliability) to an unused value",
                    line=decl.line,
                    column=decl.column,
                    hint=(
                        "declare an explicit lrc for actuator outputs, "
                        "or delete the communicator"
                    ),
                )


# ----------------------------------------------------------------------
# LRT030: infeasible logical reliability constraints.
# ----------------------------------------------------------------------


@lint_pass(
    "lrc-feasibility", ["LRT030"], requires=["spec", "architecture"]
)
def lrc_feasibility_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """Compare every LRC against the architecture's best achievable SRG.

    Delegates to the :mod:`repro.analysis` feasibility oracle: the
    free analysis (no implementation pinned) certifies per-communicator
    upper bounds equal to the best-implementation SRGs — every formula
    is monotone in host and sensor sets — while the run-wide verifier
    memoizes bounds, so repeated selections and the LRT060–LRT062
    passes share the work instead of recomputing SRGs per communicator.
    """
    assert ctx.architecture is not None
    reported: set[str] = set()
    for selection, spec in ctx.selection_specs():
        inputs = spec.input_communicators()
        if inputs and not ctx.architecture.sensors:
            # No sensors exist, so input communicators can never be
            # updated: any positive LRC on them is unmeetable.
            for name in sorted(inputs):
                comm = spec.communicators[name]
                if not meets_lrc(0.0, comm.lrc) and name not in reported:
                    reported.add(name)
                    line, column = ctx.communicator_span(name)
                    yield make(
                        "LRT030",
                        f"communicator {name!r} demands LRC "
                        f"{comm.lrc} but the architecture has no "
                        f"sensors to update it",
                        line=line,
                        column=column,
                        hint="add a sensor to the architecture",
                    )
            continue
        try:
            report = ctx.verifier().verify(spec, ctx.architecture, None)
        except (AnalysisError, MappingError, ArchitectureError):
            continue
        if report.unsafe_cycles:
            continue  # SRGs undefined: LRT010 reports the cause
        for name, comm in sorted(spec.communicators.items()):
            if name in reported:
                continue
            best = report.bounds[name].interval.hi
            if not meets_lrc(best, comm.lrc):
                reported.add(name)
                line, column = ctx.communicator_span(name)
                yield make(
                    "LRT030",
                    f"communicator {name!r} demands LRC {comm.lrc} "
                    f"but the best achievable SRG on this "
                    f"architecture is {best:.9f} (all tasks on "
                    f"every host, all sensors bound) in "
                    f"{_format_selection(selection)}",
                    line=line,
                    column=column,
                    hint=(
                        "lower the lrc or add more reliable "
                        "hosts/sensors to the architecture"
                    ),
                )


# ----------------------------------------------------------------------
# LRT060/LRT061/LRT062: certified interval verification.
# ----------------------------------------------------------------------


@lint_pass(
    "verify-bounds",
    ["LRT060"],
    requires=["spec", "architecture", "implementation"],
)
def verify_bounds_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """Certify the given (possibly partial) implementation's bounds.

    The abstract-interpretation engine treats unmapped tasks and
    unbound inputs as free, so the certified upper bound covers every
    completion of the mapping: a bound below the LRC proves that *no*
    completion can satisfy the constraint — strictly stronger than
    LRT030's architecture-level feasibility check.
    """
    assert ctx.architecture is not None
    assert ctx.implementation is not None
    seen: set[tuple[str, str]] = set()
    for _selection, spec in ctx.selection_specs():
        try:
            report = ctx.verifier().verify(
                spec, ctx.architecture, ctx.implementation
            )
        except (AnalysisError, MappingError, ArchitectureError):
            continue  # unknown hosts/sensors: LRT049 etc. report those
        for key, diag in report.keyed_diagnostics(
            ctx.communicator_span
        ):
            if diag.code != "LRT060" or key in seen:
                continue
            seen.add(key)
            yield diag


@lint_pass(
    "verify-vacuity",
    ["LRT061", "LRT062"],
    requires=["spec", "architecture"],
)
def verify_vacuity_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """Report vacuous LRCs and widening-truncation events.

    Runs on the *free* analysis (the same memoized reports LRT030
    consumes): an LRC below the certified lower bound over every
    admissible mapping constrains nothing, and widened cycles mean
    the certified bounds are sound but conservative.
    """
    assert ctx.architecture is not None
    seen: set[tuple[str, str]] = set()
    for _selection, spec in ctx.selection_specs():
        try:
            report = ctx.verifier().verify(spec, ctx.architecture, None)
        except (AnalysisError, MappingError, ArchitectureError):
            continue
        for key, diag in report.keyed_diagnostics(
            ctx.communicator_span
        ):
            if diag.code not in ("LRT061", "LRT062") or key in seen:
                continue
            seen.add(key)
            yield diag


# ----------------------------------------------------------------------
# LRT040/LRT041/LRT042: access-instant and period bounds.
# ----------------------------------------------------------------------


@lint_pass("timing", ["LRT040", "LRT041", "LRT042"], requires=["program"])
def timing_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """Check mode periods against communicator access instants.

    Works directly on the AST (the compiler refuses such programs, so
    flattened artifacts never exist for them): mode periods must be
    multiples of every accessed communicator period (LRT040), no task
    may write after its mode period elapses (LRT041), and every task
    needs a non-empty LET window (LRT042, restriction 2).
    """
    assert ctx.program is not None
    periods = {
        decl.name: decl.period for decl in ctx.program.communicators
    }

    def known(ports: Iterable[tuple[str, int]]) -> list[tuple[str, int]]:
        return [(c, i) for c, i in ports if c in periods]

    for module in ctx.program.modules:
        for task in module.tasks:
            inputs = known(task.inputs)
            outputs = known(task.outputs)
            if not inputs or not outputs:
                continue  # unknown communicators: LRT000 reports them
            read = max(periods[c] * i for c, i in inputs)
            write = min(periods[c] * i for c, i in outputs)
            if read >= write:
                yield make(
                    "LRT042",
                    f"task {task.name!r} reads at {read} but writes "
                    f"at {write}; the read must be strictly earlier "
                    f"(restriction 2)",
                    line=task.line,
                    column=task.column,
                    hint="increase the output instance numbers",
                )
        for mode in module.modes:
            for invoke in mode.invokes:
                try:
                    task = module.task_named(invoke.task)
                except KeyError:
                    continue  # undeclared task: LRT000 reports it
                accessed = sorted(
                    {
                        comm
                        for comm, _ in known(task.inputs)
                        + known(task.outputs)
                    }
                )
                for comm in accessed:
                    if mode.period % periods[comm]:
                        yield make(
                            "LRT040",
                            f"mode {mode.name!r} period {mode.period} "
                            f"is not a multiple of communicator "
                            f"{comm!r} period {periods[comm]} "
                            f"(accessed by task {task.name!r})",
                            line=invoke.line,
                            column=invoke.column,
                            hint=(
                                "make the mode period a common "
                                "multiple of all accessed "
                                "communicator periods"
                            ),
                        )
                outputs = known(task.outputs)
                if outputs:
                    write = min(periods[c] * i for c, i in outputs)
                    if write > mode.period:
                        yield make(
                            "LRT041",
                            f"task {task.name!r} writes at instant "
                            f"{write}, after mode {mode.name!r}'s "
                            f"period {mode.period}",
                            line=invoke.line,
                            column=invoke.column,
                            hint=(
                                "lower the output instance numbers "
                                "or lengthen the mode period"
                            ),
                        )


# ----------------------------------------------------------------------
# LRT045: mode switching must preserve the reliability verdicts.
# ----------------------------------------------------------------------


@lint_pass(
    "switch-preservation",
    ["LRT045"],
    requires=["program", "architecture", "implementation"],
)
def switch_preservation_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """Compare LRC verdicts across reachable mode selections.

    Section 3's analysis extends to mode-switching programs only when
    switches move between tasks with identical reliability
    constraints; selections whose verdicts differ break that premise.
    Selections with tasks the implementation does not map (or unbound
    input communicators) are skipped — the mapping targets one
    selection and cannot be judged on the others.
    """
    assert ctx.architecture is not None
    assert ctx.implementation is not None
    verdicts: list[
        tuple[dict[str, str] | None, tuple[tuple[str, bool], ...]]
    ] = []
    for selection, spec in ctx.selection_specs():
        if any(
            task not in ctx.implementation.assignment
            for task in spec.tasks
        ):
            continue
        if any(
            name not in ctx.implementation.sensor_binding
            for name in spec.input_communicators()
        ):
            continue
        # Restrict the mapping to this selection's tasks and inputs:
        # Implementation.validate rejects mappings that mention tasks
        # of the other modes.
        from repro.mapping.implementation import Implementation

        restricted = Implementation(
            {
                task: ctx.implementation.assignment[task]
                for task in spec.tasks
            },
            {
                name: ctx.implementation.sensor_binding[name]
                for name in sorted(spec.input_communicators())
            },
        )
        try:
            report = check_reliability(
                spec, ctx.architecture, restricted
            )
        except ReproError:
            continue
        verdicts.append(
            (
                selection,
                tuple(
                    (v.communicator, v.satisfied)
                    for v in sorted(
                        report.verdicts, key=lambda v: v.communicator
                    )
                ),
            )
        )
    if len(verdicts) < 2:
        return
    baseline_selection, baseline = verdicts[0]
    for selection, verdict in verdicts[1:]:
        if verdict == baseline:
            continue
        changed = sorted(
            name
            for (name, ok), (_, base_ok) in zip(verdict, baseline)
            if ok != base_ok
        )
        line, column = _first_switch_span(ctx)
        yield make(
            "LRT045",
            f"mode switching changes the LRC verdicts: "
            f"{_format_selection(selection)} disagrees with "
            f"{_format_selection(baseline_selection)} on "
            f"communicator(s) {changed}",
            line=line,
            column=column,
            hint=(
                "switch only between tasks with identical "
                "reliability constraints, or remap the "
                "implementation"
            ),
        )
        return  # one representative disagreement is enough


def _first_switch_span(ctx: LintContext) -> tuple[int, int]:
    assert ctx.program is not None
    spans = [
        (switch.line, switch.column)
        for module in ctx.program.modules
        for mode in module.modes
        for switch in mode.switches
    ]
    return min(spans) if spans else (0, 0)


# ----------------------------------------------------------------------
# LRT049-LRT055: the six local refinement constraints.
# ----------------------------------------------------------------------


@lint_pass(
    "refinement",
    list(REFINEMENT_CODES.values()),
    requires=["refinement"],
)
def refinement_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """Translate refinement violations into per-constraint diagnostics."""
    assert ctx.refinement is not None
    for violation in ctx.refinement.violations:
        code = REFINEMENT_CODES.get(violation.constraint)
        if code is None:
            continue
        line, column = ctx.task_span(violation.task)
        yield make(
            code,
            f"refinement constraint ({violation.constraint}) violated "
            f"by {violation.task}: {violation.message}",
            line=line,
            column=column,
        )


# ----------------------------------------------------------------------
# LRT099: reachable-selection enumeration truncated.
# ----------------------------------------------------------------------


@lint_pass("selection-coverage", ["LRT099"], requires=["program"])
def selection_coverage_pass(ctx: LintContext) -> Iterator[Diagnostic]:
    """Report when the selection space was only partially analysed."""
    assert ctx.program is not None
    analysed = len(ctx.reachable_selections())
    if ctx.selections_truncated:
        yield make(
            "LRT099",
            f"only the first {analysed} reachable mode selections "
            f"were analysed (cap {ctx.max_selections}); raise "
            f"max_selections for exhaustive coverage",
            line=ctx.program.line,
            column=ctx.program.column,
        )
