"""Synthesis of time-dependent (periodic) implementations.

The paper's "general implementation" example shows that the
limit-average definition of reliability admits mappings no static
analysis can certify: alternating two individually-invalid static
mappings achieves the LRCs on average.  This module automates the
discovery of such mappings.

Because the limit average of a periodic mapping sequence is the
arithmetic mean of the per-phase SRG vectors (each phase recurs with
the same frequency), the rotation order is irrelevant — only the
*multiset* of phases matters.  Synthesis therefore reduces to: given a
pool of candidate static mappings, find the smallest multiset whose
mean SRG vector dominates the LRC vector.  The pool defaults to every
one-host-per-task assignment (the shape of the paper's example), which
keeps the search exact for small systems; larger systems can pass a
hand-picked pool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arch.architecture import Architecture
from repro.errors import SynthesisError
from repro.mapping.implementation import Implementation
from repro.mapping.timedep import TimeDependentImplementation
from repro.model.specification import Specification
from repro.reliability.analysis import (
    LRC_TOLERANCE,
    ReliabilityReport,
    check_reliability,
)
from repro.reliability.srg import communicator_srgs
from repro.sched.analysis import check_schedulability


@dataclass(frozen=True)
class TimeDependentSynthesisResult:
    """A synthesised periodic mapping with its analysis certificate."""

    implementation: TimeDependentImplementation
    reliability: ReliabilityReport
    static_suffices: bool

    @property
    def phase_count(self) -> int:
        return self.implementation.phase_count()


def enumerate_single_host_assignments(
    spec: Specification,
    arch: Architecture,
    sensor_binding: dict[str, set[str]] | None = None,
    limit: int = 512,
) -> list[Implementation]:
    """Enumerate every mapping of each task to exactly one host.

    The candidate pool of the paper's example.  Raises
    :class:`SynthesisError` when the pool would exceed *limit* (use a
    hand-picked pool instead for larger systems).
    """
    tasks = sorted(spec.tasks)
    hosts = arch.host_names()
    count = len(hosts) ** len(tasks)
    if count > limit:
        raise SynthesisError(
            f"{count} single-host assignments exceed the enumeration "
            f"limit ({limit}); pass an explicit candidate pool"
        )
    if sensor_binding is None:
        sensors = arch.sensor_names()
        sensor_binding = {
            comm: set(sensors)
            for comm in spec.input_communicators()
        }
    pool = []
    for combo in itertools.product(hosts, repeat=len(tasks)):
        assignment = {task: {host} for task, host in zip(tasks, combo)}
        pool.append(Implementation(assignment, sensor_binding))
    return pool


def synthesize_timedep(
    spec: Specification,
    arch: Architecture,
    candidates: Sequence[Implementation] | None = None,
    max_phases: int = 4,
    require_schedulable: bool = True,
) -> TimeDependentSynthesisResult:
    """Find the shortest periodic mapping sequence meeting every LRC.

    Tries phase counts ``1 .. max_phases``; for each, searches the
    multisets of candidate mappings whose mean SRG vector dominates
    the LRCs.  Phase count 1 is exactly the static problem, so when a
    static candidate suffices the result degenerates gracefully
    (``static_suffices``).

    Raises :class:`SynthesisError` when no multiset within
    *max_phases* works.
    """
    if candidates is None:
        candidates = enumerate_single_host_assignments(spec, arch)
    if not candidates:
        raise SynthesisError("the candidate pool is empty")

    names = sorted(spec.communicators)
    lrcs = np.array([spec.communicators[n].lrc for n in names])

    usable: list[tuple[Implementation, np.ndarray]] = []
    for candidate in candidates:
        if require_schedulable and not check_schedulability(
            spec, arch, candidate
        ).schedulable:
            continue
        srgs = communicator_srgs(spec, candidate, arch)
        usable.append(
            (candidate, np.array([srgs[n] for n in names]))
        )
    if not usable:
        raise SynthesisError(
            "no candidate mapping is schedulable on this architecture"
        )

    # Prune candidates that are dominated by another candidate: a
    # dominated vector can always be replaced without lowering the
    # mean.
    kept: list[tuple[Implementation, np.ndarray]] = []
    for index, (candidate, vector) in enumerate(usable):
        dominated = any(
            np.all(other >= vector) and np.any(other > vector)
            for j, (_, other) in enumerate(usable)
            if j != index
        )
        if not dominated:
            kept.append((candidate, vector))

    for phases in range(1, max_phases + 1):
        for combo in itertools.combinations_with_replacement(
            range(len(kept)), phases
        ):
            mean = np.mean([kept[i][1] for i in combo], axis=0)
            if np.all(mean >= lrcs - LRC_TOLERANCE):
                implementation = TimeDependentImplementation(
                    [kept[i][0] for i in combo]
                )
                report = check_reliability(spec, arch, implementation)
                if report.reliable:
                    return TimeDependentSynthesisResult(
                        implementation=implementation,
                        reliability=report,
                        static_suffices=(phases == 1),
                    )
    raise SynthesisError(
        f"no periodic mapping of up to {max_phases} phases meets every "
        f"LRC with the given candidate pool"
    )
