"""Reliability analysis: SRGs, LRCs, traces, and Proposition 1.

This package implements Section 3 of the paper:

* :mod:`repro.reliability.rbd` — reliability block diagrams, the
  AND/OR-network substrate the SRG formulas are drawn from;
* :mod:`repro.reliability.srg` — singular reliability guarantees:
  task reliability under replication and the inductive communicator
  SRG formulas for the three input failure models;
* :mod:`repro.reliability.traces` — the reliability-based abstraction
  ``rho`` of implementation traces and limit averages;
* :mod:`repro.reliability.analysis` — the reliability check of
  Proposition 1 (``lambda_c >= mu_c`` for every communicator of a
  memory-free specification) and its time-dependent generalisation.
"""

from repro.reliability.rbd import Block, KOutOfN, Parallel, Series, Unit
from repro.reliability.srg import (
    communicator_srgs,
    input_communicator_srg,
    srg_block,
    task_reliability,
)
from repro.reliability.traces import (
    AbstractTrace,
    limit_average,
    running_average,
)
from repro.reliability.analysis import (
    CommunicatorVerdict,
    ReliabilityReport,
    check_reliability,
)
from repro.reliability.stats import (
    ComplianceVerdict,
    LRCTest,
    binomial_confidence_interval,
    lrc_test,
    lrc_test_from_counts,
    required_samples,
)
from repro.reliability.sensitivity import (
    ComponentSensitivity,
    UpgradeOption,
    minimal_upgrade,
    srg_sensitivities,
    upgrade_options,
)
from repro.reliability.rates import (
    mission_reliability,
    per_invocation_reliability,
    rate_from_fit,
    rate_from_mttf,
)
from repro.reliability.network import (
    all_terminal_reliability,
    broadcast_network_from_topology,
    two_terminal_reliability,
)
from repro.reliability.markov import (
    CycleVerdict,
    analyze_memory_cycles,
    memory_aware_reliable,
    parallel_cycle_limit_average,
)
from repro.reliability.faulttree import (
    AndGate,
    BasicEvent,
    OrGate,
    VotingGate,
    from_rbd,
    minimal_cut_sets,
    rare_event_bound,
)

__all__ = [
    "AbstractTrace",
    "AndGate",
    "BasicEvent",
    "Block",
    "CommunicatorVerdict",
    "ComplianceVerdict",
    "LRCTest",
    "binomial_confidence_interval",
    "lrc_test",
    "lrc_test_from_counts",
    "required_samples",
    "ComponentSensitivity",
    "CycleVerdict",
    "OrGate",
    "analyze_memory_cycles",
    "memory_aware_reliable",
    "parallel_cycle_limit_average",
    "UpgradeOption",
    "VotingGate",
    "all_terminal_reliability",
    "broadcast_network_from_topology",
    "from_rbd",
    "minimal_cut_sets",
    "minimal_upgrade",
    "mission_reliability",
    "per_invocation_reliability",
    "rare_event_bound",
    "rate_from_fit",
    "rate_from_mttf",
    "srg_sensitivities",
    "two_terminal_reliability",
    "upgrade_options",
    "KOutOfN",
    "Parallel",
    "ReliabilityReport",
    "Series",
    "Unit",
    "check_reliability",
    "communicator_srgs",
    "input_communicator_srg",
    "limit_average",
    "running_average",
    "srg_block",
    "task_reliability",
]
