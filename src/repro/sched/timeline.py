"""Constructive distributed timelines.

A distributed timeline is an explicit static schedule over one
specification period: per-host CPU slices for every task replication
plus broadcast slots on the shared network.  The construction is
two-phase:

1. schedule each host's jobs with preemptive EDF against the
   computation deadline ``write_t - wctt``;
2. schedule the broadcasts with EDF on the network (released when the
   computation completes, due at the write time).

Both phases use optimal single-resource EDF, so phase 1 succeeds iff
the per-host job sets are feasible; phase 2 is a sufficient test
(network feasibility with fixed computation completions).  A returned
timeline is a *certificate*: it can be replayed and checked to respect
every LET window, and the runtime's E-machine executes it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.arch.architecture import Architecture
from repro.mapping.implementation import Implementation
from repro.model.specification import Specification
from repro.sched.edf import ScheduledSlice, edf_schedule
from repro.sched.jobs import Job, expand_jobs, jobs_on_host


@dataclass(frozen=True)
class BroadcastSlot:
    """A scheduled broadcast of one task replication's outputs."""

    start: int
    end: int
    task: str
    host: str

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class DistributedTimeline:
    """An explicit static schedule over one specification period.

    Attributes
    ----------
    period:
        The specification period ``pi_S``; the timeline repeats with it.
    host_slices:
        CPU execution slices per host, in start order.
    broadcasts:
        Broadcast slots on the shared medium, in start order.
    feasible:
        ``True`` iff every job met its computation deadline and every
        broadcast its write time.
    misses:
        Labels of the violating jobs/broadcasts when infeasible.
    """

    period: int
    host_slices: dict[str, tuple[ScheduledSlice, ...]]
    broadcasts: tuple[BroadcastSlot, ...]
    feasible: bool
    misses: tuple[str, ...] = field(default_factory=tuple)

    def completion_of(self, task: str, host: str) -> int | None:
        """Return the computation completion time of ``(task, host)``."""
        end = None
        for piece in self.host_slices.get(host, ()):
            if piece.task == task:
                end = piece.end if end is None else max(end, piece.end)
        return end

    def broadcast_of(self, task: str, host: str) -> BroadcastSlot | None:
        """Return the broadcast slot of ``(task, host)``, if scheduled."""
        for slot in self.broadcasts:
            if slot.task == task and slot.host == host:
                return slot
        return None

    def verify(self, spec: Specification, bandwidth: int = 1) -> list[str]:
        """Replay the timeline against the LET windows of *spec*.

        Returns a list of violation descriptions (empty when the
        timeline is a valid certificate): a slice starting before its
        task's read time, or a broadcast ending after its write time,
        or overlapping slices on one host, or more than *bandwidth*
        simultaneous broadcasts on the medium.
        """
        problems: list[str] = []
        periods = spec.periods()
        for host, slices in self.host_slices.items():
            ordered = sorted(slices, key=lambda s: s.start)
            for earlier, later in zip(ordered, ordered[1:]):
                if later.start < earlier.end:
                    problems.append(
                        f"host {host}: slices {earlier.task} and "
                        f"{later.task} overlap at {later.start}"
                    )
            for piece in slices:
                task = spec.tasks[piece.task]
                if piece.start < task.read_time(periods):
                    problems.append(
                        f"{piece.task}@{host}: starts at {piece.start} "
                        f"before read time {task.read_time(periods)}"
                    )
        # Sweep the broadcast slots and check the medium never carries
        # more than `bandwidth` simultaneous transmissions.
        events: list[tuple[int, int]] = []
        for slot in self.broadcasts:
            events.append((slot.start, 1))
            events.append((slot.end, -1))
        active = 0
        for _, delta in sorted(events):
            active += delta
            if active > bandwidth:
                problems.append(
                    f"network: more than {bandwidth} simultaneous "
                    f"broadcasts"
                )
                break
        for slot in self.broadcasts:
            task = spec.tasks[slot.task]
            write = task.write_time(periods)
            if slot.end > write:
                problems.append(
                    f"broadcast {slot.task}@{slot.host}: ends at "
                    f"{slot.end} after write time {write}"
                )
            completion = self.completion_of(slot.task, slot.host)
            if completion is not None and slot.start < completion:
                problems.append(
                    f"broadcast {slot.task}@{slot.host}: starts at "
                    f"{slot.start} before computation completes at "
                    f"{completion}"
                )
        return problems

    def render(self) -> str:
        """Return an ASCII rendering of the timeline for inspection."""
        lines = [f"distributed timeline (period {self.period})"]
        for host in sorted(self.host_slices):
            lines.append(f"  host {host}:")
            for piece in self.host_slices[host]:
                lines.append(
                    f"    [{piece.start:>5} .. {piece.end:>5}] {piece.task}"
                )
        lines.append("  network:")
        for slot in self.broadcasts:
            lines.append(
                f"    [{slot.start:>5} .. {slot.end:>5}] "
                f"{slot.task}@{slot.host}"
            )
        if not self.feasible:
            lines.append(f"  INFEASIBLE: misses {list(self.misses)}")
        return "\n".join(lines)


def build_timeline(
    spec: Specification,
    arch: Architecture,
    implementation: Implementation,
) -> DistributedTimeline:
    """Construct a distributed timeline for one specification period.

    Always returns a timeline; check :attr:`DistributedTimeline.feasible`
    (and :attr:`misses`) to learn whether it certifies schedulability.
    """
    return _two_phase_timeline(
        spec,
        arch,
        implementation,
        edf_schedule,
        capacity=arch.network.bandwidth,
    )


def _two_phase_timeline(
    spec: Specification,
    arch: Architecture,
    implementation: Implementation,
    schedule: Callable[..., Any],
    **network_options: Any,
) -> DistributedTimeline:
    """Build a timeline with one single-resource scheduler for both phases.

    *schedule* places jobs on one resource and returns their
    ``slices``, ``completion`` times (by job label) and ``misses``.
    Phase 1 calls it per host with its default demand (WCET) and
    deadline (computation deadline); phase 2 calls it once for the
    broadcast medium with *network_options* added.
    """
    jobs = expand_jobs(spec, arch, implementation)
    host_slices: dict[str, tuple[ScheduledSlice, ...]] = {}
    misses: list[str] = []
    completions: dict[tuple[str, str], int] = {}
    for host in sorted({job.host for job in jobs}):
        result = schedule(jobs_on_host(jobs, host))
        host_slices[host] = result.slices
        misses.extend(f"cpu:{label}" for label in result.misses)
        for job in jobs_on_host(jobs, host):
            label = job.label()
            if label in result.completion:
                completions[(job.task, job.host)] = result.completion[label]

    # Phase 2: broadcasts on the shared medium, released at computation
    # completion, due at the write time, demand = WCTT.
    network_jobs = []
    for job in jobs:
        if job.wctt == 0:
            continue
        completed = completions.get((job.task, job.host))
        if completed is None:
            continue
        network_jobs.append(
            Job(
                deadline=job.deadline,
                release=completed,
                task=job.task,
                host=job.host,
                wcet=job.wctt,  # demand on the network resource
                wctt=0,
            )
        )
    net_result = schedule(
        network_jobs,
        demand=lambda j: j.wcet,
        deadline=lambda j: j.deadline,
        **network_options,
    )
    misses.extend(f"net:{label}" for label in net_result.misses)
    broadcasts = tuple(
        BroadcastSlot(
            start=piece.start, end=piece.end, task=piece.task, host=piece.host
        )
        for piece in net_result.slices
    )
    return DistributedTimeline(
        period=spec.period(),
        host_slices=host_slices,
        broadcasts=broadcasts,
        feasible=not misses,
        misses=tuple(sorted(misses)),
    )
