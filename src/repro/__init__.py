"""repro — logical reliability of interacting real-time tasks.

A reproduction of *Logical Reliability of Interacting Real-Time Tasks*
(Chatterjee, Ghosal, Henzinger, Iercan, Kirsch, Pinello,
Sangiovanni-Vincentelli — DATE 2008): a separation-of-concerns
framework where periodic tasks interact through *communicators* whose
logical reliability constraints (LRCs) are requirements, and where the
singular reliability guarantees (SRGs) derived from a replication
mapping onto fail-silent hosts must meet them — jointly with LET
schedulability.

Public API layers
-----------------
* :mod:`repro.model` — communicators, tasks, failure models,
  specifications, specification graphs.
* :mod:`repro.arch` — hosts, sensors, broadcast network, WCET/WCTT.
* :mod:`repro.mapping` — static and time-dependent replication
  mappings.
* :mod:`repro.reliability` — RBDs, SRG computation, trace abstraction,
  the Proposition 1 analysis.
* :mod:`repro.sched` — LET job expansion, EDF, distributed timelines.
* :mod:`repro.validity` — the joint schedulability/reliability check.
* :mod:`repro.refinement` — design by refinement (Proposition 2).
* :mod:`repro.synthesis` — replication synthesis and baselines.
* :mod:`repro.htl` — the HTL-subset frontend and compiler.
* :mod:`repro.runtime` — the distributed runtime simulator.
* :mod:`repro.resilience` — online monitoring, failure detection,
  and SRG-verified recovery.
* :mod:`repro.telemetry` — execution tracing, metrics, and
  profiling over one instrumentation-sink protocol.
* :mod:`repro.plants` — the three-tank system plant and controllers.
* :mod:`repro.experiments` — prebuilt systems from the paper.
"""

from repro.model import (
    BOTTOM,
    Communicator,
    FailureModel,
    PortRef,
    Specification,
    Task,
    is_memory_free,
    is_reliable_value,
    unsafe_cycles,
)
from repro.arch import (
    Architecture,
    BroadcastNetwork,
    ExecutionMetrics,
    Host,
    Sensor,
)
from repro.mapping import Implementation, TimeDependentImplementation
from repro.reliability import (
    ReliabilityReport,
    check_reliability,
    communicator_srgs,
    task_reliability,
)
from repro.sched import (
    SchedulabilityReport,
    build_timeline,
    check_schedulability,
)
from repro.refinement import check_refinement, incremental_check, refines
from repro.validity import ValidityReport, check_validity
from repro.synthesis import synthesize_replication
from repro.report import design_report

__version__ = "1.0.0"

__all__ = [
    "Architecture",
    "BOTTOM",
    "BroadcastNetwork",
    "Communicator",
    "ExecutionMetrics",
    "FailureModel",
    "Host",
    "Implementation",
    "PortRef",
    "ReliabilityReport",
    "SchedulabilityReport",
    "Sensor",
    "Specification",
    "Task",
    "TimeDependentImplementation",
    "ValidityReport",
    "build_timeline",
    "check_refinement",
    "check_reliability",
    "check_schedulability",
    "check_validity",
    "communicator_srgs",
    "design_report",
    "incremental_check",
    "is_memory_free",
    "synthesize_replication",
    "is_reliable_value",
    "refines",
    "task_reliability",
    "unsafe_cycles",
    "__version__",
]
