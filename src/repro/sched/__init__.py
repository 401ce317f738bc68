"""Schedulability analysis for LET tasks with replication.

An implementation is schedulable when every replication of every task
completes execution *and* transmission of its outputs between the
task's read time and write time (its logical execution time window).
This package expands the task set into per-host jobs over one
specification period, runs exact per-resource EDF feasibility tests,
and constructs an explicit distributed timeline (CPU slices per host
plus broadcast slots on the shared network) as a certificate.
"""

from repro.sched.jobs import Job, expand_jobs
from repro.sched.edf import (
    ScheduledSlice,
    demand_bound_feasible,
    edf_schedule,
)
from repro.sched.timeline import DistributedTimeline, build_timeline
from repro.sched.analysis import (
    HostLoad,
    SchedulabilityReport,
    check_schedulability,
    inflate_wcet,
)

__all__ = [
    "DistributedTimeline",
    "HostLoad",
    "Job",
    "SchedulabilityReport",
    "ScheduledSlice",
    "build_timeline",
    "check_schedulability",
    "demand_bound_feasible",
    "edf_schedule",
    "expand_jobs",
    "inflate_wcet",
]
