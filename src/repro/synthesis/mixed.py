"""Mixed redundancy: replication and re-execution combined.

The paper uses space redundancy (replication); the related work [9]
uses time redundancy (re-execution).  Real designs mix them — e.g.
one replica on a strong host re-executing twice can beat two replicas
when hosts are scarce, and two single-attempt replicas can beat deep
re-execution when LET windows are tight.  This synthesiser searches
the product space: per task a host subset *and* an attempt count,
minimising total executions per period
(``len(hosts) * attempts`` summed over tasks).

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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import networkx as nx

from repro.arch.architecture import Architecture
from repro.errors import SynthesisError
from repro.mapping.implementation import Implementation
from repro.model.graph import srg_evaluation_order
from repro.model.specification import Specification
from repro.reliability.srg import communicator_srgs, input_gain
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

    Iterative deepening on the total execution count; per decision the
    candidates are every (host subset, attempts) pair whose resulting
    SRG meets the strongest output LRC under the already-chosen
    upstream SRGs, cheapest (subset size x attempts) first.
    """
    hosts = arch.host_names()
    max_task_replicas = max_replicas or len(hosts)
    input_comms = sorted(spec.input_communicators())
    if sensor_candidates is None:
        sensor_candidates = {
            name: arch.sensor_names() for name in input_comms
        }
    try:
        order = srg_evaluation_order(spec)
    except nx.NetworkXUnfeasible:
        raise SynthesisError(
            "specification has an unbroken communicator cycle"
        ) from None
    brel = arch.network.reliability
    explored = 0

    # Precompute the per-task decision order (first-output position).
    decisions: list[str] = []
    placed: set[str] = set()
    for name in order:
        writer = spec.writer_of(name)
        if writer is not None and writer.name not in placed:
            placed.add(writer.name)
            decisions.append(writer.name)

    def sensor_choice() -> dict[str, frozenset[str]] | None:
        binding: dict[str, frozenset[str]] = {}
        for name in input_comms:
            lrc = spec.communicators[name].lrc
            pool = sorted(
                sensor_candidates.get(name, ()),
                key=lambda s: -arch.srel(s),
            )
            chosen: list[str] = []
            failure = 1.0
            for sensor in pool:
                chosen.append(sensor)
                failure *= 1.0 - arch.srel(sensor)
                if 1.0 - failure >= lrc:
                    break
            if not chosen or 1.0 - failure < lrc:
                return None
            binding[name] = frozenset(chosen)
        return binding

    binding = sensor_choice()
    if binding is None:
        raise SynthesisError(
            "no sensor subset reaches some input communicator's LRC"
        )
    base_srgs: dict[str, float] = {}
    for name, sensors in binding.items():
        failure = 1.0
        for sensor in sensors:
            failure *= 1.0 - arch.srel(sensor)
        base_srgs[name] = 1.0 - failure
    for name in spec.communicators:
        if spec.writer_of(name) is None and name not in base_srgs:
            base_srgs[name] = 1.0

    pool = sorted(hosts, key=lambda h: -arch.hrel(h))
    subset_catalogue = [
        combo
        for size in range(1, max_task_replicas + 1)
        for combo in itertools.combinations(pool, size)
    ]

    def candidates_for(task_name, srgs):
        task = spec.tasks[task_name]
        requirement = max(
            spec.communicators[out].lrc
            for out in task.output_communicators()
        )
        gain = input_gain(task, srgs)
        options = []
        for subset in subset_catalogue:
            for attempts in range(1, max_attempts + 1):
                failure = 1.0
                for host in subset:
                    failure *= (1.0 - arch.hrel(host) * brel) ** attempts
                achieved = (1.0 - failure) * gain
                if achieved >= requirement:
                    options.append(
                        (len(subset) * attempts, subset, attempts,
                         achieved)
                    )
                    break  # more attempts on this subset only cost more
        options.sort(key=lambda o: (o[0], len(o[1])))
        return options

    def search(index, srgs, assignment, attempts, budget):
        nonlocal explored
        explored += 1
        if explored > node_limit:
            raise SynthesisError(
                f"synthesis exceeded the node limit ({node_limit})"
            )
        if index == len(decisions):
            plan = MixedPlan(
                Implementation(dict(assignment), binding),
                dict(attempts),
            )
            if require_schedulable:
                report = check_schedulability_mixed(spec, plan, arch)
                if not report.schedulable:
                    return None
            return plan
        task_name = decisions[index]
        task = spec.tasks[task_name]
        for cost, subset, count, achieved in candidates_for(
            task_name, srgs
        ):
            if cost > budget:
                continue
            assignment[task_name] = frozenset(subset)
            attempts[task_name] = count
            for out in task.output_communicators():
                srgs[out] = achieved
            found = search(
                index + 1, srgs, assignment, attempts, budget - cost
            )
            if found is not None:
                return found
            del assignment[task_name]
            del attempts[task_name]
            for out in task.output_communicators():
                del srgs[out]
        return None

    minimum = len(decisions)
    maximum = len(decisions) * max_task_replicas * max_attempts
    for budget in range(minimum, maximum + 1):
        plan = search(0, dict(base_srgs), {}, {}, budget)
        if plan is not None:
            srgs = communicator_srgs(
                spec, plan.implementation, arch, plan.attempts
            )
            schedulability = (
                check_schedulability_mixed(spec, plan, arch)
                if require_schedulable
                else None
            )
            return MixedSynthesisResult(
                plan=plan,
                srgs=srgs,
                schedulability=schedulability,
                explored=explored,
            )
    raise SynthesisError(
        "no mixed redundancy plan within the bounds meets every LRC"
    )
