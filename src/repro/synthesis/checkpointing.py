"""Checkpointing: partial re-execution of faulted tasks (paper's [10]).

Izosimov, Pop, Eles & Peng refine plain re-execution by inserting
checkpoints: a transient fault only re-executes the *current segment*
instead of the whole task.  With WCET ``C`` split into ``n`` equal
segments, checkpoint overhead ``o`` per checkpoint and recovery
overhead ``r`` per fault, the worst-case time tolerating ``f`` faults
is

    E(n) = C + n * o + f * (ceil(C / n) + o + r)

minimised near ``n* = sqrt(f * C / o)`` — their classic result.  The
probabilistic side (which their fault-count model leaves implicit) is
made explicit here: modelling segment executions as i.i.d. Bernoulli
trials with per-segment survival ``hrel ** (1/n)`` (so an unsegmented
task recovers the plain per-invocation ``hrel``), the probability that
at most ``f`` re-executions are needed is the negative-binomial tail

    P(success) = sum_{i=0..f} C(n - 1 + i, i) * s^n * (1 - s)^i,
    s = hrel ** (1/n).

Both halves of the trade-off are exercised by
``test_bench_checkpointing``: checkpointing fits LET windows where
full re-execution does not, at slightly lower per-fault coverage cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.arch.architecture import Architecture
from repro.errors import SynthesisError
from repro.mapping.implementation import Implementation
from repro.model.specification import Specification
from repro.sched.analysis import (
    SchedulabilityReport,
    check_schedulability,
    inflate_wcet,
)


@dataclass(frozen=True)
class CheckpointScheme:
    """A checkpointing configuration for one task."""

    segments: int
    checkpoint_overhead: int
    recovery_overhead: int
    tolerated_faults: int

    def __post_init__(self) -> None:
        if self.segments < 1:
            raise SynthesisError(
                f"segments must be >= 1, got {self.segments}"
            )
        if self.checkpoint_overhead < 0 or self.recovery_overhead < 0:
            raise SynthesisError("overheads must be non-negative")
        if self.tolerated_faults < 0:
            raise SynthesisError(
                f"tolerated_faults must be >= 0, got "
                f"{self.tolerated_faults}"
            )


def worst_case_time(wcet: int, scheme: CheckpointScheme) -> int:
    """Return ``E(n)``: the WCET inflated by checkpoints and recovery."""
    segment_length = math.ceil(wcet / scheme.segments)
    return (
        wcet
        + scheme.segments * scheme.checkpoint_overhead
        + scheme.tolerated_faults
        * (
            segment_length
            + scheme.checkpoint_overhead
            + scheme.recovery_overhead
        )
    )


def optimal_segments(
    wcet: int,
    checkpoint_overhead: int,
    tolerated_faults: int,
    recovery_overhead: int = 0,
) -> int:
    """Return the segment count minimising :func:`worst_case_time`.

    The continuous optimum is ``sqrt(f * C / o)``; the integer optimum
    is one of its floor/ceil neighbours (checked exactly, including
    the degenerate cases ``f = 0`` or ``o = 0``).
    """
    if tolerated_faults == 0:
        return 1
    if checkpoint_overhead == 0:
        # More segments are free and shrink the re-executed unit;
        # one segment per time unit is the useful maximum.
        return max(wcet, 1)
    continuous = math.sqrt(
        tolerated_faults * wcet / checkpoint_overhead
    )
    candidates = {
        max(1, math.floor(continuous)),
        max(1, math.ceil(continuous)),
        1,
    }
    scheme = lambda n: CheckpointScheme(  # noqa: E731
        segments=n,
        checkpoint_overhead=checkpoint_overhead,
        recovery_overhead=recovery_overhead,
        tolerated_faults=tolerated_faults,
    )
    return min(
        candidates, key=lambda n: (worst_case_time(wcet, scheme(n)), n)
    )


def task_reliability_checkpointed(
    hrel: float, scheme: CheckpointScheme
) -> float:
    """Return P(task completes within its re-execution budget).

    Negative-binomial tail over i.i.d. segment trials with survival
    ``hrel ** (1/n)``; with ``n = 1`` and ``f = k - 1`` this equals the
    plain re-execution reliability ``1 - (1 - hrel) ** k``.
    """
    if not 0.0 < hrel <= 1.0:
        raise SynthesisError(f"hrel must lie in (0, 1], got {hrel}")
    n = scheme.segments
    survival = hrel ** (1.0 / n)
    failure = 1.0 - survival
    total = 0.0
    for faults in range(scheme.tolerated_faults + 1):
        total += (
            math.comb(n - 1 + faults, faults)
            * survival**n
            * failure**faults
        )
    return total


@dataclass(frozen=True)
class CheckpointPlan:
    """Per-task checkpoint schemes over a single-host mapping."""

    implementation: Implementation
    schemes: Mapping[str, CheckpointScheme]

    def scheme_of(self, task: str) -> CheckpointScheme:
        try:
            return self.schemes[task]
        except KeyError:
            raise SynthesisError(
                f"task {task!r} has no checkpoint scheme"
            ) from None


def check_schedulability_checkpointed(
    spec: Specification,
    plan: CheckpointPlan,
    arch: Architecture,
) -> SchedulabilityReport:
    """Schedulability with WCETs inflated per checkpoint scheme."""
    inflated = inflate_wcet(
        spec,
        arch,
        lambda task, wcet: worst_case_time(wcet, plan.scheme_of(task)),
    )
    return check_schedulability(spec, inflated, plan.implementation)


def synthesize_checkpointing(
    spec: Specification,
    arch: Architecture,
    implementation: Implementation,
    tolerated_faults: int,
    checkpoint_overhead: int,
    recovery_overhead: int = 0,
) -> CheckpointPlan:
    """Attach time-optimal checkpoint schemes to an existing mapping.

    Every task gets the segment count minimising its inflated WCET for
    the given fault budget; the resulting plan is returned together
    with nothing else — run
    :func:`check_schedulability_checkpointed` for the timing
    certificate and :func:`task_reliability_checkpointed` for the
    per-task coverage.
    """
    schemes = {}
    for task in spec.tasks:
        (host,) = (
            implementation.hosts_of(task)
            if len(implementation.hosts_of(task)) == 1
            else (sorted(implementation.hosts_of(task))[0],)
        )
        wcet = arch.wcet(task, host)
        segments = optimal_segments(
            wcet, checkpoint_overhead, tolerated_faults,
            recovery_overhead,
        )
        schemes[task] = CheckpointScheme(
            segments=segments,
            checkpoint_overhead=checkpoint_overhead,
            recovery_overhead=recovery_overhead,
            tolerated_faults=tolerated_faults,
        )
    return CheckpointPlan(implementation=implementation, schemes=schemes)
