"""Time redundancy: re-execution instead of spatial replication.

The related work the paper positions against (Izosimov, Pop, Eles,
Peng — the paper's [9]–[11]) tolerates *transient* faults by
re-executing a task on the same host instead of replicating it across
hosts.  This module adds that alternative to the framework so the two
redundancy styles can be compared.  A :class:`ReexecutionPlan` is a
:class:`~repro.synthesis.mixed.MixedPlan` with one host per task, so
it is analysed by the paper's two checks with its attempt counts as a
parameter:

* with ``k`` attempts and per-attempt success ``hrel(h) * brel``, the
  task reliability under *independent transient* faults becomes
  ``1 - (1 - hrel(h) * brel) ** k`` —
  ``communicator_srgs(spec, plan.implementation, arch, plan.attempts)``;
* the schedulability cost lands on one host: the job's demand grows to
  ``k * wcet`` inside the same LET window —
  :func:`~repro.synthesis.mixed.check_schedulability_mixed`;
* against *permanent* faults (the paper's pull-the-plug experiment)
  re-execution buys nothing — every attempt runs on the dead host —
  which is exactly why the paper's fault model (fail-silent hosts)
  calls for spatial replication.  Benchmark
  ``test_bench_reexecution`` demonstrates both halves of this
  trade-off.
"""

from __future__ import annotations

from typing import Mapping

from repro.arch.architecture import Architecture
from repro.errors import SynthesisError
from repro.model.specification import Specification
from repro.runtime.faults import FaultInjector
from repro.synthesis.mixed import MixedPlan, search_plan


class ReexecutionPlan(MixedPlan):
    """A single-host mapping with per-task re-execution counts.

    ``implementation`` maps every task to exactly one host;
    ``attempts[task]`` (default 1) is the number of executions per
    invocation.
    """

    def __post_init__(self) -> None:
        for task, hosts in self.implementation.assignment.items():
            if len(hosts) != 1:
                raise SynthesisError(
                    f"re-execution plans map each task to one host; "
                    f"{task!r} is on {sorted(hosts)}"
                )
        super().__post_init__()

    def host_of(self, task: str) -> str:
        """Return the single host executing *task*."""
        (host,) = self.implementation.hosts_of(task)
        return host


class TransientReexecutionFaults(FaultInjector):
    """Adapter making the simulator honour re-execution semantics.

    A replica invocation fails only when *every* attempt fails under
    the wrapped injector.  Deterministic injectors (scripted outages)
    fail every attempt identically, so permanent faults are *not*
    masked — matching the physics of time redundancy.
    """

    def __init__(self, base: FaultInjector, plan: ReexecutionPlan):
        self.base = base
        self.plan = plan

    def replica_fails(self, task, host, iteration, release, deadline, rng):
        attempts = self.plan.attempts_of(task)
        return all(
            self.base.replica_fails(
                task, host, iteration, release, deadline, rng
            )
            for _ in range(attempts)
        )

    def sensor_fails(self, sensor, time, rng):
        return self.base.sensor_fails(sensor, time, rng)

    def broadcast_fails(self, task, host, iteration, rng):
        return self.base.broadcast_fails(task, host, iteration, rng)


def synthesize_reexecution(
    spec: Specification,
    arch: Architecture,
    sensor_candidates: Mapping[str, list[str]] | None = None,
    max_attempts: int = 8,
    require_schedulable: bool = True,
) -> ReexecutionPlan:
    """Synthesise an execution-minimal re-execution plan meeting every LRC.

    Re-execution is the one-host case of the mixed-redundancy search
    (:func:`~repro.synthesis.mixed.search_plan`): each task runs on one
    host with up to *max_attempts* attempts, sensors are bound exactly
    as the replication synthesiser binds them, and iterative deepening
    on the total execution count returns the first valid plan.

    Raises :class:`SynthesisError` when no plan within *max_attempts*
    meets every LRC and fits the timeline.
    """
    plan, _, _ = search_plan(
        spec, arch, "re-execution plan", sensor_candidates, 1,
        max_attempts, require_schedulable, 200_000,
    )
    return ReexecutionPlan(plan.implementation, plan.attempts)
