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

import networkx as nx

from repro.arch.architecture import Architecture
from repro.errors import SynthesisError
from repro.mapping.implementation import Implementation
from repro.model.graph import srg_evaluation_order
from repro.model.specification import Specification
from repro.reliability.srg import input_gain
from repro.runtime.faults import FaultInjector
from repro.synthesis.mixed import MixedPlan, check_schedulability_mixed


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
    """Synthesise a minimal-time-redundancy plan meeting every LRC.

    Walks the communicator order like the replication synthesiser, but
    each task stays on its single most reliable feasible host and gains
    *attempts* instead of replicas.  Minimises total executions
    greedily (the per-task attempt count is the smallest meeting the
    local requirement, which is optimal per task because attempts only
    affect that task's own SRG chain).

    Raises :class:`SynthesisError` when some LRC is unreachable within
    *max_attempts* or the inflated demand does not fit the timeline.
    """
    load: dict[str, int] = {h: 0 for h in arch.host_names()}

    def host_order() -> list[str]:
        # Balance the inflated demand: least-loaded first, reliability
        # as the tie-breaker.
        return sorted(
            arch.host_names(),
            key=lambda h: (load[h], -arch.hrel(h), h),
        )
    if sensor_candidates is None:
        sensor_candidates = {
            name: arch.sensor_names()
            for name in spec.input_communicators()
        }
    binding: dict[str, set[str]] = {}
    srgs: dict[str, float] = {}
    try:
        order = srg_evaluation_order(spec)
    except nx.NetworkXUnfeasible:
        raise SynthesisError(
            "specification has an unbroken communicator cycle"
        ) from None

    # Resolve sensor bindings first (same rule as replication).
    for name in sorted(spec.input_communicators()):
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
            raise SynthesisError(
                f"input communicator {name!r}: no sensor subset reaches "
                f"LRC {lrc}"
            )
        binding[name] = set(chosen)
        srgs[name] = 1.0 - failure

    assignment: dict[str, set[str]] = {}
    attempts: dict[str, int] = {}
    for name in order:
        writer = spec.writer_of(name)
        if writer is None:
            srgs.setdefault(name, 1.0)
            continue
        if writer.name in attempts:
            continue
        requirement = max(
            spec.communicators[out].lrc
            for out in writer.output_communicators()
        )
        gain = input_gain(writer, srgs)
        placed = False
        for host in host_order():
            failure = 1.0 - arch.hrel(host) * arch.network.reliability
            for count in range(1, max_attempts + 1):
                achieved = (1.0 - failure**count) * gain
                if achieved >= requirement:
                    assignment[writer.name] = {host}
                    attempts[writer.name] = count
                    load[host] += count * arch.wcet(writer.name, host)
                    for out in writer.output_communicators():
                        srgs[out] = achieved
                    placed = True
                    break
            if placed:
                break
        if not placed:
            raise SynthesisError(
                f"task {writer.name!r}: no host reaches LRC "
                f"{requirement} within {max_attempts} attempts"
            )
    plan = ReexecutionPlan(
        Implementation(assignment, binding), attempts
    )
    if require_schedulable:
        schedulability = check_schedulability_mixed(spec, plan, arch)
        if not schedulability.schedulable:
            raise SynthesisError(
                "re-execution plan meets the LRCs but does not fit the "
                "timeline: " + "; ".join(schedulability.reasons)
            )
    return plan
