"""Replication synthesis and related-work baselines.

The paper requires the implementation (replication mapping) to ensure
all timing and reliability requirements; this package automates the
search for such mappings:

* :mod:`repro.synthesis.replication` — LRC-driven synthesis: the
  cheapest replication mapping (fewest task replicas) whose SRGs meet
  every LRC and whose timeline is feasible;
* :mod:`repro.synthesis.bicriteria` — a reproduction of the bi-criteria
  heuristic of Assayad, Girault & Kalla (DSN 2004, the paper's [1]):
  list scheduling that trades schedule length against reliability;
* :mod:`repro.synthesis.priority` — a reproduction of the
  failure-pattern/priority replication scheme of Pinello, Carloni &
  Sangiovanni-Vincentelli (DATE 2004, the paper's [13]).
"""

from repro.synthesis.replication import (
    SynthesisResult,
    synthesize_replication,
)
from repro.synthesis.bicriteria import (
    BiCriteriaResult,
    bicriteria_schedule,
    pareto_front,
)
from repro.synthesis.priority import (
    FailurePattern,
    priority_replication,
)
from repro.synthesis.timedep_synthesis import (
    TimeDependentSynthesisResult,
    enumerate_single_host_assignments,
    synthesize_timedep,
)
from repro.synthesis.mixed import (
    MixedPlan,
    MixedSynthesisResult,
    check_schedulability_mixed,
    synthesize_mixed,
)
from repro.synthesis.reexecution import (
    ReexecutionPlan,
    TransientReexecutionFaults,
    synthesize_reexecution,
)

__all__ = [
    "BiCriteriaResult",
    "FailurePattern",
    "MixedPlan",
    "MixedSynthesisResult",
    "ReexecutionPlan",
    "TransientReexecutionFaults",
    "check_schedulability_mixed",
    "synthesize_mixed",
    "TimeDependentSynthesisResult",
    "enumerate_single_host_assignments",
    "synthesize_reexecution",
    "synthesize_timedep",
    "SynthesisResult",
    "bicriteria_schedule",
    "pareto_front",
    "priority_replication",
    "synthesize_replication",
]
