"""Mixed redundancy: replication and re-execution combined, and the
one synthesis search of the three redundancy styles.

The paper uses space redundancy (replication); the related work [9]
uses time redundancy (re-execution).  Real designs mix them — e.g.
one replica on a strong host re-executing twice can beat two replicas
when hosts are scarce, and two single-attempt replicas can beat deep
re-execution when LET windows are tight.  A mixed plan gives each task
a host subset *and* an attempt count; its cost is the number of
executions per period (``len(hosts) * attempts`` summed over tasks).

A plan is analysed by the paper's two checks with its attempt counts
as a parameter: under the independent-transient fault model a replica
fails only when all ``k`` attempts fail, so

    lambda_t = 1 - prod_h (1 - hrel(h) * brel) ** k

is :func:`repro.reliability.srg.task_reliability` with ``attempts=k``
(``communicator_srgs(spec, plan.implementation, arch, plan.attempts)``
gives the SRGs), and :func:`check_schedulability_mixed` checks the
mapping with every WCET multiplied by its attempts
(:func:`repro.sched.analysis.inflate_wcet`).  Permanent (fail-silent,
pull-the-plug) faults are only masked by the *spatial* dimension.

:func:`search_plan` is the one synthesis search.  It walks the
communicator dependency order; every decision point (an input
communicator or a task) enumerates its locally sufficient candidates:
the sensor subsets of the candidate pool whose OR-reliability meets
the communicator's LRC (cost 0), and, per host subset of at most
``max_replicas`` hosts, the smallest attempt count up to
``max_attempts`` that lifts the task's outputs over their strongest
LRC given the already-chosen upstream SRGs.  A depth-first search
with iterative deepening on the total execution count returns the
first (hence execution-minimal) valid plan; the feasibility oracle
prunes subtrees no completion can rescue, and a node budget keeps the
worst case bounded.  Replication is the one-attempt case
(:func:`~repro.synthesis.replication.synthesize_replication`) and
re-execution the one-host case
(:func:`~repro.synthesis.reexecution.synthesize_reexecution`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.analysis.oracle import FeasibilityOracle
from repro.arch.architecture import Architecture
from repro.errors import AnalysisError, SynthesisError
from repro.mapping.implementation import Implementation
from repro.model.specification import Specification
from repro.reliability.analysis import meets_lrc
from repro.reliability.srg import (
    communicator_srgs,
    evaluation_order,
    hosts_reliability,
    input_gain,
    or_reliability,
)
from repro.sched.analysis import (
    SchedulabilityReport,
    check_schedulability,
    inflate_wcet,
)


@dataclass(frozen=True)
class MixedPlan:
    """A replication mapping with per-task re-execution counts."""

    implementation: Implementation
    attempts: Mapping[str, int]

    def __post_init__(self) -> None:
        for task, count in self.attempts.items():
            if count < 1:
                raise SynthesisError(
                    f"task {task!r}: attempts must be >= 1, got {count}"
                )

    def attempts_of(self, task: str) -> int:
        """Return the attempt count of *task* (1 when unlisted)."""
        return self.attempts.get(task, 1)

    def total_executions(self) -> int:
        """Executions per period: replicas x attempts, summed."""
        return sum(
            len(self.implementation.hosts_of(task))
            * self.attempts_of(task)
            for task in self.implementation.assignment
        )


def check_schedulability_mixed(
    spec: Specification,
    plan: MixedPlan,
    arch: Architecture,
) -> SchedulabilityReport:
    """Schedulability with per-replica WCETs inflated by attempts.

    Serves re-execution plans too (a :class:`ReexecutionPlan` is a
    single-host :class:`MixedPlan`).
    """
    inflated = inflate_wcet(
        spec, arch, lambda task, wcet: wcet * plan.attempts_of(task)
    )
    return check_schedulability(spec, inflated, plan.implementation)


@dataclass(frozen=True)
class MixedSynthesisResult:
    """Outcome of mixed-redundancy synthesis."""

    plan: MixedPlan
    srgs: dict[str, float]
    schedulability: SchedulabilityReport | None
    explored: int

    @property
    def total_executions(self) -> int:
        return self.plan.total_executions()


@dataclass(frozen=True)
class _Decision:
    """One decision point of the search: a task or an input communicator."""

    kind: str  # "task" or "input"
    name: str  # task name or communicator name
    outputs: tuple[str, ...]  # communicators whose SRG this decision fixes


def _subsets_by_cost(
    names: Sequence[str], max_size: int
) -> Iterable[tuple[str, ...]]:
    for size in range(1, max_size + 1):
        yield from itertools.combinations(names, size)


def _decision_sequence(spec: Specification) -> list[_Decision]:
    """Return decision points in SRG evaluation order.

    A task appears at the position of its first output communicator;
    later outputs of the same task are folded into that decision.
    """
    decisions: list[_Decision] = []
    placed: set[str] = set()
    inputs = spec.input_communicators()
    for name, writer, _ in evaluation_order(spec):
        if writer is None:
            if name in inputs:
                decisions.append(_Decision("input", name, (name,)))
        elif writer.name not in placed:
            placed.add(writer.name)
            outputs = tuple(sorted(writer.output_communicators()))
            decisions.append(_Decision("task", writer.name, outputs))
    return decisions


def search_plan(
    spec: Specification,
    arch: Architecture,
    style: str,
    sensor_candidates: Mapping[str, Sequence[str]] | None,
    max_replicas: int | None,
    max_attempts: int,
    require_schedulable: bool,
    node_limit: int,
) -> tuple[MixedPlan, SchedulabilityReport | None, int]:
    """Return an execution-minimal valid plan, its timing report and
    the number of explored search nodes.

    *sensor_candidates* defaults to every declared sensor for every
    input communicator; *max_replicas* bounds the hosts per task
    (default: all of them) and *max_attempts* the attempts per task.
    The timing report is ``None`` unless *require_schedulable*.
    *style* names the plan in error messages.

    The feasibility oracle's sweep prunes every partial assignment
    whose best completion (every remaining task on every host at
    *max_attempts*, every input on the whole sensor pool) misses an
    LRC; with one attempt, a design the verifier certifies infeasible
    fails fast with its witness.  Both use sound upper bounds, so
    pruning never hides a valid plan.

    Raises
    ------
    SynthesisError
        When no valid plan exists within the bounds.
    """
    hosts = arch.host_names()
    if not hosts:
        raise SynthesisError("architecture has no hosts")
    max_task_replicas = max_replicas or len(hosts)
    input_comms = sorted(spec.input_communicators())
    if sensor_candidates is None:
        sensor_candidates = {
            name: arch.sensor_names() for name in input_comms
        }
    for name in input_comms:
        if not sensor_candidates.get(name):
            raise SynthesisError(
                f"input communicator {name!r} has no candidate sensors"
            )
    try:
        decisions = _decision_sequence(spec)
    except AnalysisError:
        raise SynthesisError(
            "specification has a communicator cycle with no "
            "independent-model breaker; no implementation is reliable"
        ) from None

    failure = f"no {style} within the bounds satisfies every LRC"
    oracle = FeasibilityOracle(spec, arch)
    if max_attempts == 1:
        # The verifier's bounds assume one attempt per replica.
        report = oracle.report()
        if not report.feasible:
            witnesses = "; ".join(
                witness.describe().splitlines()[0]
                for witness in report.witnesses()
            )
            raise SynthesisError(
                f"{failure}: the verifier certifies the design "
                f"infeasible ({witnesses})"
            )

    # lambda_t per host subset and attempt count, once per search.
    attempt_counts = range(1, max_attempts + 1)
    host_options = [
        (subset, [hosts_reliability(subset, arch, k) for k in attempt_counts])
        for subset in _subsets_by_cost(
            sorted(hosts, key=lambda h: -arch.hrel(h)), max_task_replicas
        )
    ]
    explored = 0

    def candidates_for(
        decision: _Decision, srgs: dict[str, float]
    ) -> list[tuple[int, tuple[str, ...], int, float]]:
        """Return (cost, subset, attempts, achieved srg), cheapest first."""
        if decision.kind == "input":
            lrc = spec.communicators[decision.name].lrc
            pool = sorted(
                sensor_candidates[decision.name],
                key=lambda s: -arch.srel(s),
            )
            options = []
            for subset in _subsets_by_cost(pool, len(pool)):
                achieved = or_reliability(arch.srel(s) for s in subset)
                if meets_lrc(achieved, lrc):
                    options.append((0, subset, 1, achieved))
            return options
        task = spec.tasks[decision.name]
        requirement = max(
            spec.communicators[name].lrc
            for name in task.output_communicators()
        )
        gain = input_gain(task, srgs)
        options = []
        for subset, lambdas in host_options:
            for attempts, lambda_t in enumerate(lambdas, 1):
                achieved = lambda_t * gain
                if meets_lrc(achieved, requirement):
                    options.append(
                        (len(subset) * attempts, subset, attempts, achieved)
                    )
                    break  # more attempts on this subset only cost more
        options.sort(key=lambda option: (option[0], len(option[1])))
        return options

    def search(
        index: int,
        srgs: dict[str, float],
        assignment: dict[str, tuple[str, ...]],
        attempts: dict[str, int],
        binding: dict[str, tuple[str, ...]],
        budget: int,
    ) -> tuple[MixedPlan, SchedulabilityReport | None] | None:
        nonlocal explored
        explored += 1
        if explored > node_limit:
            raise SynthesisError(
                f"synthesis exceeded the node limit ({node_limit})"
            )
        if index < len(decisions) and not oracle.completion_feasible(
            srgs, max_attempts
        ):
            # Even granting every remaining decision all hosts,
            # attempts and sensors, some downstream LRC is unreachable
            # from this partial assignment: the whole subtree is dead.
            return None
        if index == len(decisions):
            plan = MixedPlan(
                Implementation(
                    {t: frozenset(h) for t, h in assignment.items()},
                    {c: frozenset(s) for c, s in binding.items()},
                ),
                dict(attempts),
            )
            report = None
            if require_schedulable:
                report = check_schedulability_mixed(spec, plan, arch)
                if not report.schedulable:
                    return None
            return plan, report
        decision = decisions[index]
        chosen = assignment if decision.kind == "task" else binding
        for cost, subset, count, achieved in candidates_for(
            decision, srgs
        ):
            if cost > budget:
                continue
            for output in decision.outputs:
                srgs[output] = achieved
            chosen[decision.name] = subset
            if decision.kind == "task":
                attempts[decision.name] = count
            found = search(
                index + 1, srgs, assignment, attempts, binding,
                budget - cost,
            )
            if found is not None:
                return found
            for output in decision.outputs:
                del srgs[output]
            del chosen[decision.name]
            attempts.pop(decision.name, None)
        return None

    # Communicators that are neither written nor sensor inputs keep
    # their (reliable) initial value; seed their SRGs at 1.0.
    decided = {output for d in decisions for output in d.outputs}
    base_srgs = {
        name: 1.0 for name in spec.communicators if name not in decided
    }

    minimum = len(spec.tasks)
    maximum = len(spec.tasks) * max_task_replicas * max_attempts
    for budget in range(minimum, maximum + 1):
        found = search(0, dict(base_srgs), {}, {}, {}, budget)
        if found is not None:
            plan, report = found
            return plan, report, explored
    raise SynthesisError(
        failure + (" and the timeline" if require_schedulable else "")
    )


def synthesize_mixed(
    spec: Specification,
    arch: Architecture,
    sensor_candidates: Mapping[str, Sequence[str]] | None = None,
    max_replicas: int | None = None,
    max_attempts: int = 4,
    require_schedulable: bool = True,
    node_limit: int = 200_000,
) -> MixedSynthesisResult:
    """Find the execution-minimal mixed plan meeting every LRC.

    The search space contains every replication mapping (one attempt
    per task) and every re-execution plan (one host per task) within
    the bounds, so the result is never costlier than either pure
    strategy.  See :func:`search_plan` for the parameters.
    """
    plan, schedulability, explored = search_plan(
        spec, arch, "mixed redundancy plan", sensor_candidates,
        max_replicas, max_attempts, require_schedulable, node_limit,
    )
    return MixedSynthesisResult(
        plan=plan,
        srgs=communicator_srgs(
            spec, plan.implementation, arch, plan.attempts
        ),
        schedulability=schedulability,
        explored=explored,
    )
