"""LRC-driven replication synthesis.

Given a specification, an architecture, and the logical reliability
constraints, find a replication mapping (hosts per task, sensors per
input communicator) that makes the implementation *valid*: every
communicator SRG meets its LRC and the distributed timeline is
feasible.  The search minimises the total number of task replications.

The synthesis walks the communicator dependency order.  Every decision
point (an input communicator or a task) enumerates its locally
sufficient candidate subsets — the sensor subsets whose OR-reliability
meets the communicator's LRC, or the host subsets whose replication
reliability ``lambda_t`` lifts the output SRGs over the strongest
output LRC given the already-chosen upstream SRGs.  A depth-first
search with iterative deepening on the total replica count returns the
first (hence replica-minimal) valid assignment; a node budget keeps
the worst case bounded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import networkx as nx

from repro.arch.architecture import Architecture
from repro.errors import SynthesisError
from repro.mapping.implementation import Implementation
from repro.model.graph import srg_evaluation_order
from repro.model.specification import Specification
from repro.model.task import Task
from repro.reliability.analysis import ReliabilityReport, check_reliability
from repro.reliability.srg import input_gain
from repro.sched.analysis import SchedulabilityReport, check_schedulability


@dataclass(frozen=True)
class SynthesisResult:
    """A synthesised implementation together with its certificates."""

    implementation: Implementation
    reliability: ReliabilityReport
    schedulability: SchedulabilityReport | None
    explored: int

    @property
    def replication_count(self) -> int:
        """Total number of task replications in the mapping."""
        return self.implementation.replication_count()

    @property
    def valid(self) -> bool:
        """``True`` iff reliable and (when checked) schedulable."""
        if not self.reliability.reliable:
            return False
        if self.schedulability is None:
            return True
        return self.schedulability.schedulable


@dataclass
class _Decision:
    """One decision point of the search: a task or an input communicator."""

    kind: str  # "task" or "input"
    name: str  # task name or communicator name
    outputs: tuple[str, ...]  # communicators whose SRG this decision fixes


def _or_reliability(probabilities: Iterable[float]) -> float:
    failure = 1.0
    for p in probabilities:
        failure *= 1.0 - p
    return 1.0 - failure


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
    order = srg_evaluation_order(spec)
    decisions: list[_Decision] = []
    placed: set[str] = set()
    inputs = spec.input_communicators()
    for name in order:
        writer = spec.writer_of(name)
        if writer is None:
            if name in inputs:
                decisions.append(_Decision("input", name, (name,)))
            continue
        if writer.name in placed:
            continue
        placed.add(writer.name)
        decisions.append(
            _Decision(
                "task",
                writer.name,
                tuple(sorted(writer.output_communicators())),
            )
        )
    return decisions


def _task_requirement(spec: Specification, task: Task) -> float:
    return max(
        spec.communicators[name].lrc
        for name in task.output_communicators()
    )


def synthesize_replication(
    spec: Specification,
    arch: Architecture,
    sensor_candidates: Mapping[str, Sequence[str]] | None = None,
    max_replicas: int | None = None,
    require_schedulable: bool = True,
    node_limit: int = 200_000,
    oracle_prune: bool = True,
) -> SynthesisResult:
    """Synthesise a replica-minimal valid replication mapping.

    Parameters
    ----------
    sensor_candidates:
        Candidate sensors per input communicator; defaults to every
        declared sensor for every input communicator.
    max_replicas:
        Upper bound on replications per task (and sensors per input
        communicator); defaults to the number of hosts.
    require_schedulable:
        When ``True`` (default) a candidate mapping must also pass the
        schedulability analysis; otherwise only reliability is
        enforced.
    node_limit:
        Bound on explored search nodes before giving up.
    oracle_prune:
        When ``True`` (default) the abstract-interpretation verifier
        (:mod:`repro.analysis`) gates the search: a design whose
        certified upper bounds already violate an LRC fails fast with
        the verifier's witness, and partial assignments whose best
        possible completion misses a downstream LRC are pruned without
        expansion.  Both checks use sound upper bounds (every host and
        sensor available), so pruning never hides a valid mapping.

    Raises
    ------
    SynthesisError
        When no valid mapping exists within the bounds.
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
    except nx.NetworkXUnfeasible:
        raise SynthesisError(
            "specification has a communicator cycle with no "
            "independent-model breaker; no implementation is reliable"
        ) from None

    oracle = None
    if oracle_prune:
        # Imported lazily: the analysis package is a consumer of the
        # model/reliability layers and only the synthesiser's pruning
        # needs it.
        from repro.analysis.oracle import FeasibilityOracle

        oracle = FeasibilityOracle(spec, arch)
        report = oracle.report()
        if not report.feasible:
            witnesses = "; ".join(
                witness.describe().splitlines()[0]
                for witness in report.witnesses()
            )
            raise SynthesisError(
                "no replication mapping within the bounds satisfies "
                "every LRC: the verifier certifies the design "
                f"infeasible ({witnesses})"
            )

    brel = arch.network.reliability
    explored = 0

    def candidates_for(
        decision: _Decision, srgs: dict[str, float]
    ) -> list[tuple[tuple[str, ...], float]]:
        """Return (subset, achieved srg) candidates, cheapest first."""
        result: list[tuple[tuple[str, ...], float]] = []
        if decision.kind == "input":
            lrc = spec.communicators[decision.name].lrc
            pool = sorted(
                sensor_candidates[decision.name],
                key=lambda s: -arch.srel(s),
            )
            limit = min(len(pool), max_replicas or len(pool))
            for subset in _subsets_by_cost(pool, limit):
                achieved = _or_reliability(arch.srel(s) for s in subset)
                if achieved >= lrc:
                    result.append((subset, achieved))
        else:
            task = spec.tasks[decision.name]
            requirement = _task_requirement(spec, task)
            gain = input_gain(task, srgs)
            pool = sorted(hosts, key=lambda h: -arch.hrel(h))
            for subset in _subsets_by_cost(pool, max_task_replicas):
                lambda_t = _or_reliability(
                    arch.hrel(h) * brel for h in subset
                )
                achieved = lambda_t * gain
                if achieved >= requirement:
                    result.append((subset, achieved))
        return result

    def search(
        index: int,
        srgs: dict[str, float],
        assignment: dict[str, tuple[str, ...]],
        binding: dict[str, tuple[str, ...]],
        budget: int,
    ) -> Implementation | None:
        nonlocal explored
        explored += 1
        if explored > node_limit:
            raise SynthesisError(
                f"synthesis exceeded the node limit ({node_limit})"
            )
        if (
            oracle is not None
            and index < len(decisions)
            and not oracle.completion_feasible(srgs)
        ):
            # Even granting every remaining decision all hosts and
            # sensors, some downstream LRC is unreachable from this
            # partial assignment: the whole subtree is dead.
            return None
        if index == len(decisions):
            implementation = Implementation(
                {t: frozenset(h) for t, h in assignment.items()},
                {c: frozenset(s) for c, s in binding.items()},
            )
            if require_schedulable:
                report = check_schedulability(spec, arch, implementation)
                if not report.schedulable:
                    return None
            return implementation
        decision = decisions[index]
        for subset, achieved in candidates_for(decision, srgs):
            cost = len(subset) if decision.kind == "task" else 0
            if cost > budget:
                continue
            for output in decision.outputs:
                srgs[output] = achieved
            if decision.kind == "task":
                assignment[decision.name] = subset
            else:
                binding[decision.name] = subset
            found = search(
                index + 1, srgs, assignment, binding, budget - cost
            )
            if found is not None:
                return found
            for output in decision.outputs:
                del srgs[output]
            if decision.kind == "task":
                del assignment[decision.name]
            else:
                del binding[decision.name]
        return None

    # Communicators that are neither written nor sensor inputs keep
    # their (reliable) initial value; seed their SRGs at 1.0.
    decided = {output for d in decisions for output in d.outputs}
    base_srgs = {
        name: 1.0 for name in spec.communicators if name not in decided
    }

    minimum = len(spec.tasks)
    maximum = len(spec.tasks) * max_task_replicas
    for budget in range(minimum, maximum + 1):
        implementation = search(0, dict(base_srgs), {}, {}, budget)
        if implementation is not None:
            reliability = check_reliability(spec, arch, implementation)
            schedulability = (
                check_schedulability(spec, arch, implementation)
                if require_schedulable
                else None
            )
            return SynthesisResult(
                implementation=implementation,
                reliability=reliability,
                schedulability=schedulability,
                explored=explored,
            )
    raise SynthesisError(
        "no replication mapping within the bounds satisfies every LRC"
        + (" and the timeline" if require_schedulable else "")
    )
