"""Bi-criteria scheduling baseline (the paper's reference [1]).

A simplified reproduction of the heuristic of Assayad, Girault & Kalla
(*A bi-criteria scheduling heuristic for distributed embedded systems
under reliability and real-time constraints*, DSN 2004): static list
scheduling of the task data-flow graph onto the hosts, with active
replication, steering each placement decision by a compromise between
schedule length and reliability.

The knob ``theta in [0, 1]`` weighs the two criteria: ``theta = 0``
optimises schedule length only, ``theta = 1`` reliability only.
Sweeping ``theta`` traces a length/reliability Pareto front
(:func:`pareto_front`), which benchmark E11 compares against the
LRC-driven synthesis of :mod:`repro.synthesis.replication`.

Differences from the original (documented, deliberate): the original
schedules a general DAG with point-to-point communications; here the
data-flow graph is derived from communicator reads/writes, outputs are
broadcast (matching this paper's architecture), and the compromise
function is the normalised weighted sum below rather than the
original's throughput-based aggregation.  The shape of the trade-off —
more replicas raise reliability and stretch the schedule — is
preserved, which is what the comparison needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import networkx as nx

from repro.arch.architecture import Architecture
from repro.errors import SynthesisError
from repro.mapping.implementation import Implementation
from repro.model.graph import task_dependency_graph
from repro.model.specification import Specification
from repro.reliability.srg import hosts_reliability


@dataclass(frozen=True)
class BiCriteriaResult:
    """Outcome of one bi-criteria scheduling run."""

    theta: float
    implementation: Implementation
    makespan: int
    system_reliability: float

    @property
    def replication_count(self) -> int:
        return self.implementation.replication_count()

    def dominates(self, other: "BiCriteriaResult") -> bool:
        """Pareto dominance: no worse on both criteria, better on one."""
        better_or_equal = (
            self.makespan <= other.makespan
            and self.system_reliability >= other.system_reliability
        )
        strictly_better = (
            self.makespan < other.makespan
            or self.system_reliability > other.system_reliability
        )
        return better_or_equal and strictly_better


def _topological_priority(spec: Specification) -> list[str]:
    """Order tasks topologically, longest downstream chain first."""
    graph = task_dependency_graph(spec)
    depth: dict[str, int] = {}
    for name in reversed(list(nx.topological_sort(graph))):
        children = list(graph.successors(name))
        depth[name] = 1 + max((depth[c] for c in children), default=0)
    return sorted(graph.nodes, key=lambda n: (-depth[n], n))


def bicriteria_schedule(
    spec: Specification,
    arch: Architecture,
    theta: float,
    max_replicas: int | None = None,
    sensor_candidates: dict[str, Sequence[str]] | None = None,
) -> BiCriteriaResult:
    """Run the list-scheduling heuristic with compromise weight *theta*.

    Tasks are placed in topological priority order.  For each task,
    every candidate host subset up to *max_replicas* is scored by the
    normalised compromise ``(1 - theta) * finish + theta * (1 -
    lambda_t)`` (each term scaled by the worst candidate); the best
    candidate wins.  A task's earliest start on every host is the
    latest broadcast-completion of its data-flow predecessors.
    """
    if not 0.0 <= theta <= 1.0:
        raise SynthesisError(f"theta must lie in [0, 1], got {theta}")
    if nx.number_of_nodes(task_dependency_graph(spec)) == 0:
        raise SynthesisError("specification has no tasks to schedule")
    if not nx.is_directed_acyclic_graph(task_dependency_graph(spec)):
        raise SynthesisError(
            "bi-criteria scheduling needs an acyclic task data-flow graph"
        )
    hosts = arch.host_names()
    limit = min(max_replicas or len(hosts), len(hosts))

    host_free: dict[str, int] = {h: 0 for h in hosts}
    # Per task: the instant its outputs are available on every host
    # (computation + broadcast of the slowest replica chosen).
    data_ready: dict[str, int] = {}
    assignment: dict[str, tuple[str, ...]] = {}
    graph = task_dependency_graph(spec)

    import itertools

    for name in _topological_priority(spec):
        task = spec.tasks[name]
        predecessors = list(graph.predecessors(name))
        earliest = max((data_ready[p] for p in predecessors), default=0)
        candidates: list[tuple[float, tuple[str, ...], int, float]] = []
        raw: list[tuple[tuple[str, ...], int, float]] = []
        for size in range(1, limit + 1):
            for subset in itertools.combinations(hosts, size):
                finish = 0
                for host in subset:
                    start = max(earliest, host_free[host])
                    done = (
                        start
                        + arch.wcet(name, host)
                        + arch.wctt(name, host)
                    )
                    finish = max(finish, done)
                raw.append((subset, finish, hosts_reliability(subset, arch)))
        worst_finish = max(f for _, f, _ in raw)
        worst_unrel = max(1.0 - lam for _, _, lam in raw) or 1.0
        for subset, finish, lam in raw:
            score = (1.0 - theta) * (finish / worst_finish) + theta * (
                (1.0 - lam) / worst_unrel
            )
            candidates.append((score, subset, finish, lam))
        candidates.sort(key=lambda item: (item[0], len(item[1]), item[1]))
        _, subset, finish, lam = candidates[0]
        assignment[name] = subset
        for host in subset:
            start = max(earliest, host_free[host])
            host_free[host] = start + arch.wcet(name, host)
        data_ready[name] = finish

    binding = dict(sensor_candidates or {})
    if not binding:
        all_sensors = arch.sensor_names()
        binding = {
            comm: all_sensors for comm in spec.input_communicators()
        }
    implementation = Implementation(assignment, binding)
    makespan = max(data_ready.values(), default=0)
    system_reliability = math.prod(
        hosts_reliability(subset, arch) for subset in assignment.values()
    )
    return BiCriteriaResult(
        theta=theta,
        implementation=implementation,
        makespan=makespan,
        system_reliability=system_reliability,
    )


def pareto_front(
    spec: Specification,
    arch: Architecture,
    thetas: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    max_replicas: int | None = None,
) -> list[BiCriteriaResult]:
    """Sweep *theta* and return the non-dominated results.

    Results are sorted by makespan; each entry is strictly better in
    reliability than the previous one (classic Pareto staircase).
    """
    results = [
        bicriteria_schedule(spec, arch, theta, max_replicas=max_replicas)
        for theta in thetas
    ]
    front = [
        r
        for r in results
        if not any(other.dominates(r) for other in results)
    ]
    unique: dict[tuple[int, float], BiCriteriaResult] = {}
    for result in front:
        unique[(result.makespan, result.system_reliability)] = result
    return sorted(
        unique.values(), key=lambda r: (r.makespan, -r.system_reliability)
    )
