"""Distributed runtime simulator.

A discrete-event simulation of the paper's execution semantics: a set
of fail-silent hosts on an atomic broadcast network, each holding
replications of every communicator, executing task replications under
the LET model — inputs are snapshot at each port's instance time,
outputs are broadcast on completion and *voted* into the communicator
replications at the write time.  Fault injection covers transient
per-invocation Bernoulli failures (matching ``hrel``/``srel``), scripted outages
(the paper's pull-the-plug experiment), bursty correlated faults
(Gilbert–Elliott channels), and crash-with-repair host lifecycles
(exponential MTTF/MTTR).
"""

from repro.runtime.faults import (
    BernoulliFaults,
    CompositeFaults,
    CrashRepairFaults,
    FaultInjector,
    GilbertElliottChannel,
    GilbertElliottFaults,
    NoFaults,
    PrecomputedFaults,
    ScriptedFaults,
    ValueFaults,
)
from repro.runtime.voting import first_non_bottom, majority_vote
from repro.runtime.environment import (
    CallbackEnvironment,
    ConstantEnvironment,
    Environment,
)
from repro.runtime.plan import SimulationPlan, compile_plan
from repro.runtime.engine import SimulationResult, Simulator
from repro.runtime.batch import BatchResult, BatchSimulator
from repro.runtime.executor import (
    BatchExecutor,
    SerialExecutor,
    merge_batch_results,
    shard_slices,
    slice_batch_result,
)
from repro.runtime.modes import ModeSwitchingExecutive, ModeSwitchingResult

__all__ = [
    "ModeSwitchingExecutive",
    "ModeSwitchingResult",
    "BatchExecutor",
    "BatchResult",
    "BatchSimulator",
    "BernoulliFaults",
    "CallbackEnvironment",
    "CompositeFaults",
    "ConstantEnvironment",
    "CrashRepairFaults",
    "Environment",
    "FaultInjector",
    "GilbertElliottChannel",
    "GilbertElliottFaults",
    "NoFaults",
    "PrecomputedFaults",
    "ScriptedFaults",
    "SerialExecutor",
    "SimulationPlan",
    "SimulationResult",
    "Simulator",
    "ValueFaults",
    "compile_plan",
    "first_non_bottom",
    "majority_vote",
    "merge_batch_results",
    "shard_slices",
    "slice_batch_result",
]
