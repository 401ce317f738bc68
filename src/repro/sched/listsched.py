"""Non-preemptive list scheduling — the ablation against EDF.

The timeline builder of :mod:`repro.sched.timeline` uses preemptive
EDF, which is optimal per resource.  Real time-triggered runtimes
often run tasks non-preemptively; this module builds timelines the
same two-phase way (host CPUs, then the broadcast medium) but places
each job as one contiguous slice, earliest-deadline-first at the
earliest gap after its release.

Non-preemptive scheduling is sufficient but not optimal: job sets
exist that EDF fits and list scheduling does not (a long low-urgency
job can block a later-released urgent one).  Benchmark
``test_bench_ablation_scheduler`` quantifies the feasibility-region
gap on random job sets, which is the ablation DESIGN.md calls out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.arch.architecture import Architecture
from repro.mapping.implementation import Implementation
from repro.model.specification import Specification
from repro.sched.edf import ScheduledSlice
from repro.sched.jobs import Job
from repro.sched.timeline import DistributedTimeline, _two_phase_timeline


@dataclass(frozen=True)
class ListScheduleResult:
    """Outcome of non-preemptive list scheduling on one resource."""

    slices: tuple[ScheduledSlice, ...]
    completion: dict[str, int]
    misses: tuple[str, ...]

    @property
    def feasible(self) -> bool:
        return not self.misses


def list_schedule(
    jobs: Sequence[Job],
    demand: Callable[[Job], int] | None = None,
    deadline: Callable[[Job], int] | None = None,
) -> ListScheduleResult:
    """Schedule *jobs* non-preemptively on one resource.

    Jobs are considered in EDF priority order (deadline, release,
    label); each is placed in the earliest idle gap at or after its
    release that fits its whole demand.  A job whose placement ends
    after its deadline is a miss (it is still placed, so the schedule
    remains a complete artifact).
    """
    if demand is None:
        demand = lambda job: job.wcet  # noqa: E731
    if deadline is None:
        deadline = lambda job: job.compute_deadline  # noqa: E731

    ordered = sorted(
        jobs, key=lambda j: (deadline(j), j.release, j.label())
    )
    busy: list[tuple[int, int]] = []  # sorted, disjoint (start, end)
    slices: list[ScheduledSlice] = []
    completion: dict[str, int] = {}
    misses: list[str] = []

    for job in ordered:
        need = demand(job)
        start = job.release
        for gap_start, gap_end in busy:
            if start + need <= gap_start:
                break
            start = max(start, gap_end)
        end = start + need
        busy.append((start, end))
        busy.sort()
        slices.append(
            ScheduledSlice(
                start=start, end=end, task=job.task, host=job.host
            )
        )
        completion[job.label()] = end
        if end > deadline(job):
            misses.append(job.label())

    return ListScheduleResult(
        slices=tuple(sorted(slices, key=lambda s: s.start)),
        completion=completion,
        misses=tuple(sorted(misses)),
    )


def build_timeline_nonpreemptive(
    spec: Specification,
    arch: Architecture,
    implementation: Implementation,
) -> DistributedTimeline:
    """Construct a distributed timeline with non-preemptive slices.

    Same two-phase structure as
    :func:`repro.sched.timeline.build_timeline`, but each task
    replication occupies one contiguous CPU slice and each broadcast
    one contiguous network slot.  The result is directly executable by
    a runtime without a preemption mechanism.
    """
    return _two_phase_timeline(spec, arch, implementation, list_schedule)
