"""LRC-driven replication synthesis.

Given a specification, an architecture, and the logical reliability
constraints, find a replication mapping (hosts per task, sensors per
input communicator) that makes the implementation *valid*: every
communicator SRG meets its LRC and the distributed timeline is
feasible.  The search minimises the total number of task replications.

Replication is the one-attempt case of the one synthesis search,
:func:`repro.synthesis.mixed.search_plan`: iterative deepening on the
total replica count returns the first (hence replica-minimal) valid
mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.arch.architecture import Architecture
from repro.mapping.implementation import Implementation
from repro.model.specification import Specification
from repro.reliability.analysis import ReliabilityReport, check_reliability
from repro.sched.analysis import SchedulabilityReport
from repro.synthesis.mixed import search_plan


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


def synthesize_replication(
    spec: Specification,
    arch: Architecture,
    sensor_candidates: Mapping[str, Sequence[str]] | None = None,
    max_replicas: int | None = None,
    require_schedulable: bool = True,
    node_limit: int = 200_000,
) -> SynthesisResult:
    """Synthesise a replica-minimal valid replication mapping.

    Parameters
    ----------
    sensor_candidates:
        Candidate sensors per input communicator; defaults to every
        declared sensor for every input communicator.  Any subset of
        the candidates may be bound.
    max_replicas:
        Upper bound on replications per task; defaults to the number
        of hosts.
    require_schedulable:
        When ``True`` (default) a candidate mapping must also pass the
        schedulability analysis; otherwise only reliability is
        enforced.
    node_limit:
        Bound on explored search nodes before giving up.

    The abstract-interpretation verifier (:mod:`repro.analysis`) gates
    the search: a certified-infeasible design fails fast with the
    verifier's witness, and hopeless partial assignments are pruned
    soundly (see :func:`~repro.synthesis.mixed.search_plan`).

    Raises
    ------
    SynthesisError
        When no valid mapping exists within the bounds.
    """
    plan, schedulability, explored = search_plan(
        spec, arch, "replication mapping", sensor_candidates,
        max_replicas, 1, require_schedulable, node_limit,
    )
    return SynthesisResult(
        implementation=plan.implementation,
        reliability=check_reliability(spec, arch, plan.implementation),
        schedulability=schedulability,
        explored=explored,
    )
