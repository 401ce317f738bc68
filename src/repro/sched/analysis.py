"""The schedulability analysis and its report.

An implementation is schedulable when every task replication completes
execution and output transmission inside its LET window.  The check
combines:

* a quick necessary test — each job must fit its own window and each
  host's (and the network's) total utilisation must not exceed 1;
* the exact per-host processor-demand criterion against computation
  deadlines ``write_t - wctt``;
* the constructive timeline of :mod:`repro.sched.timeline`, whose
  feasibility is the final verdict (sufficient for the joint CPU +
  network problem) and which doubles as the schedule executed by the
  runtime's E-machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.arch.architecture import Architecture, ExecutionMetrics
from repro.mapping.implementation import Implementation
from repro.model.specification import Specification
from repro.sched.edf import demand_bound_feasible
from repro.sched.jobs import expand_jobs, jobs_on_host
from repro.sched.timeline import DistributedTimeline, build_timeline


@dataclass(frozen=True)
class HostLoad:
    """Utilisation summary of one host over a specification period."""

    host: str
    demand: int
    period: int
    job_count: int

    @property
    def utilisation(self) -> float:
        return self.demand / self.period if self.period else 0.0


@dataclass(frozen=True)
class SchedulabilityReport:
    """Result of a schedulability analysis."""

    schedulable: bool
    timeline: DistributedTimeline
    host_loads: tuple[HostLoad, ...]
    network_load: HostLoad
    reasons: tuple[str, ...] = ()

    def summary(self) -> str:
        """Return a human-readable multi-line summary."""
        status = "SCHEDULABLE" if self.schedulable else "NOT SCHEDULABLE"
        lines = [f"schedulability analysis: {status}"]
        for load in self.host_loads:
            lines.append(
                f"  host {load.host}: {load.job_count} jobs, demand "
                f"{load.demand}/{load.period} "
                f"(utilisation {load.utilisation:.3f})"
            )
        lines.append(
            f"  network: demand {self.network_load.demand}/"
            f"{self.network_load.period} "
            f"(utilisation {self.network_load.utilisation:.3f})"
        )
        for reason in self.reasons:
            lines.append(f"  reason: {reason}")
        return "\n".join(lines)


def inflate_wcet(
    spec: Specification,
    arch: Architecture,
    inflate: Callable[[str, int], int],
) -> Architecture:
    """Return *arch* with each WCET replaced by ``inflate(task, wcet)``.

    Time redundancy (re-execution, checkpointing) repeats computation
    inside the task's own LET window, so those plans are schedulable
    when the mapping is schedulable on the inflated architecture.
    Only the computation repeats: the output broadcast is sent once
    and keeps its WCTT.
    """
    pairs = [(task, host) for task in spec.tasks for host in arch.host_names()]
    metrics = ExecutionMetrics(
        wcet={(t, h): inflate(t, arch.wcet(t, h)) for t, h in pairs},
        wctt={(t, h): arch.wctt(t, h) for t, h in pairs},
    )
    return Architecture(
        hosts=arch.hosts.values(),
        sensors=arch.sensors.values(),
        metrics=metrics,
        network=arch.network,
    )


def check_schedulability(
    spec: Specification,
    arch: Architecture,
    implementation: Implementation,
) -> SchedulabilityReport:
    """Check that *implementation* meets every LET window on *arch*."""
    jobs = expand_jobs(spec, arch, implementation)
    period = spec.period()
    reasons: list[str] = []

    for job in jobs:
        if not job.fits_window():
            reasons.append(
                f"{job.label()}: wcet {job.wcet} + wctt {job.wctt} exceeds "
                f"the LET window [{job.release}, {job.deadline}]"
            )

    host_loads: list[HostLoad] = []
    for host in sorted(arch.hosts):
        on_host = jobs_on_host(jobs, host)
        demand = sum(job.wcet for job in on_host)
        host_loads.append(
            HostLoad(
                host=host,
                demand=demand,
                period=period,
                job_count=len(on_host),
            )
        )
        if demand > period:
            reasons.append(
                f"host {host}: utilisation {demand}/{period} exceeds 1"
            )
        elif not demand_bound_feasible(on_host):
            reasons.append(
                f"host {host}: processor-demand criterion violated"
            )

    network_demand = sum(job.wctt for job in jobs)
    network_capacity = period * arch.network.bandwidth
    network_load = HostLoad(
        host="<network>",
        demand=network_demand,
        period=network_capacity,
        job_count=sum(1 for job in jobs if job.wctt > 0),
    )
    if network_demand > network_capacity:
        reasons.append(
            f"network: utilisation {network_demand}/{network_capacity} "
            f"exceeds 1"
        )

    timeline = build_timeline(spec, arch, implementation)
    if not timeline.feasible:
        reasons.extend(
            f"timeline miss: {label}" for label in timeline.misses
        )

    return SchedulabilityReport(
        schedulable=timeline.feasible,
        timeline=timeline,
        host_loads=tuple(host_loads),
        network_load=network_load,
        reasons=tuple(reasons),
    )
