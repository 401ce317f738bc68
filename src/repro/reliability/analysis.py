"""The reliability analysis of Proposition 1 and its generalisation.

Proposition 1: given a memory-free, race-free specification, an
implementation is reliable if ``lambda_c >= mu_c`` for every
communicator ``c``.  The proof is by the strong law of large numbers —
the per-iteration reliability events are independent with success
probability at least ``lambda_c``, so the long-run fraction of
reliable accesses is at least ``lambda_c`` with probability 1.

For specifications *with memory* (communicator cycles) the check is
extended with the safety condition of Section 3: every cycle must
contain a task with the independent input failure model, otherwise one
unreliable write poisons the cycle forever and the limit average drops
to 0 regardless of the SRGs.

For *time-dependent* implementations (a periodic sequence of static
mappings) the per-iteration success probability of communicator ``c``
cycles through the per-phase SRGs, and the limit average equals their
arithmetic mean; reliability requires that mean to be at least
``mu_c``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.architecture import Architecture
from repro.mapping.implementation import Implementation
from repro.mapping.timedep import TimeDependentImplementation
from repro.model.graph import is_memory_free, unsafe_cycles
from repro.model.specification import Specification
from repro.reliability.srg import communicator_srgs

#: Absolute tolerance of the SRG >= LRC comparison.  SRGs are products
#: and averages of floats, so an exact boundary case (e.g. the paper's
#: alternating mapping achieving exactly 0.9) can land one ulp short;
#: the tolerance is far below any meaningful reliability difference.
LRC_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CommunicatorVerdict:
    """Per-communicator outcome of a reliability analysis."""

    communicator: str
    srg: float
    lrc: float

    @property
    def margin(self) -> float:
        """Return ``srg - lrc`` (non-negative iff the LRC is met)."""
        return self.srg - self.lrc

    @property
    def satisfied(self) -> bool:
        """Return ``True`` iff the SRG meets the LRC (within tolerance)."""
        return self.srg >= self.lrc - LRC_TOLERANCE


@dataclass(frozen=True)
class ReliabilityReport:
    """Result of a reliability analysis over all communicators."""

    verdicts: tuple[CommunicatorVerdict, ...]
    memory_free: bool
    unsafe_cycles: tuple[tuple[str, ...], ...] = field(default_factory=tuple)

    @property
    def reliable(self) -> bool:
        """Return ``True`` iff the implementation is reliable.

        Requires every LRC to be met and, for specifications with
        memory, every communicator cycle to contain an
        independent-model breaker task.
        """
        if self.unsafe_cycles:
            return False
        return all(v.satisfied for v in self.verdicts)

    def srgs(self) -> dict[str, float]:
        """Return the computed SRG per communicator."""
        return {v.communicator: v.srg for v in self.verdicts}

    def violations(self) -> list[CommunicatorVerdict]:
        """Return the verdicts whose LRC is violated, worst first."""
        return sorted(
            (v for v in self.verdicts if not v.satisfied),
            key=lambda v: v.margin,
        )

    def verdict_for(self, communicator: str) -> CommunicatorVerdict:
        """Return the verdict of the named communicator."""
        for verdict in self.verdicts:
            if verdict.communicator == communicator:
                return verdict
        raise KeyError(communicator)

    def summary(self) -> str:
        """Return a human-readable multi-line summary."""
        lines = []
        status = "RELIABLE" if self.reliable else "NOT RELIABLE"
        lines.append(f"reliability analysis: {status}")
        if not self.memory_free:
            note = (
                "all cycles broken by independent-model tasks"
                if not self.unsafe_cycles
                else f"UNSAFE cycles: {list(self.unsafe_cycles)}"
            )
            lines.append(f"  specification has memory ({note})")
        for v in sorted(self.verdicts, key=lambda v: v.communicator):
            mark = "ok " if v.satisfied else "FAIL"
            lines.append(
                f"  [{mark}] {v.communicator}: SRG={v.srg:.9f} "
                f"LRC={v.lrc:.9f} margin={v.margin:+.9f}"
            )
        return "\n".join(lines)


def check_reliability(
    spec: Specification,
    arch: Architecture,
    implementation: "Implementation | TimeDependentImplementation",
) -> ReliabilityReport:
    """Run the Proposition 1 reliability analysis on a mapping.

    Computes every communicator's SRG under *implementation* and
    compares it against the communicator's LRC; for a time-dependent
    mapping the SRG is the mean over its phases (see
    :func:`~repro.reliability.srg.communicator_srgs`).  For
    specifications with memory, the report additionally flags
    communicator cycles lacking an independent-model breaker; such
    implementations are never reliable (the limit average collapses
    to 0).
    """
    srgs = communicator_srgs(spec, implementation, arch)
    verdicts = tuple(
        CommunicatorVerdict(name, srgs[name], comm.lrc)
        for name, comm in sorted(spec.communicators.items())
    )
    memory_free = is_memory_free(spec)
    bad_cycles = (
        tuple(tuple(cycle) for cycle in unsafe_cycles(spec))
        if not memory_free
        else ()
    )
    return ReliabilityReport(
        verdicts=verdicts,
        memory_free=memory_free,
        unsafe_cycles=bad_cycles,
    )
