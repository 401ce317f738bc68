"""E-code: the time-tagged target code of the HTL compiler.

Following the Embedded Machine (Henzinger & Kirsch) lineage of
Giotto/HTL, the compiler emits *E-code*: a periodic program of
time-tagged instructions interpreted by the E-machine.  One E-code
period covers one specification period; instruction opcodes, in
within-instant execution order:

``VOTE task``
    Commit the task's outputs: vote over the replica values received
    for the invocation due now and write the result into the
    communicator replications (output driver call).
``UPDATE comm``
    Run the sensor driver of an input communicator.
``SNAPSHOT task index comm``
    Latch input port *index* of *task* from communicator *comm*
    (LET read driver; ports latch at their own instance times).
``RELEASE task``
    Release the invocation: every replication of *task* starts
    computing on the latched snapshot.
``DISPATCH task host`` / ``BROADCAST task host``
    Timeline annotations from the schedulability certificate: the CPU
    slice and network slot assigned to the replication.  They are
    annotations the E-machine skips; logical values do not depend on
    them (LET semantics).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from repro.arch.architecture import Architecture
from repro.mapping.implementation import Implementation
from repro.model.specification import Specification
from repro.sched.timeline import DistributedTimeline, build_timeline


class Opcode(enum.IntEnum):
    """E-code opcodes; numeric order is within-instant execution order."""

    VOTE = 0
    UPDATE = 1
    SNAPSHOT = 2
    RELEASE = 3
    DISPATCH = 4
    BROADCAST = 5


@dataclass(frozen=True, order=True)
class Instruction:
    """One time-tagged E-code instruction.

    ``time`` is the offset within the E-code period, except for VOTE
    instructions whose ``when`` records the task's absolute write time
    (a write at the period boundary commits at offset 0 of the next
    period; the E-machine derives the invocation index from ``when``).
    """

    time: int
    opcode: Opcode
    args: tuple = ()
    when: int = 0  # absolute write time for VOTE; slice end for DISPATCH

    def render(self) -> str:
        parts = " ".join(str(a) for a in self.args)
        return f"{self.time:>6}: {self.opcode.name} {parts}"


@dataclass(frozen=True)
class ECode:
    """A periodic E-code program."""

    period: int
    instructions: tuple[Instruction, ...]
    timeline: DistributedTimeline | None = field(default=None, compare=False)

    def at(self, offset: int) -> list[Instruction]:
        """Return the instructions tagged with *offset*, in order."""
        return [i for i in self.instructions if i.time == offset]

    def offsets(self) -> list[int]:
        """Return the sorted distinct instruction offsets."""
        return sorted({i.time for i in self.instructions})

    def render(self) -> str:
        """Return a readable listing of the E-code program."""
        lines = [f"e-code (period {self.period})"]
        lines.extend(f"  {i.render()}" for i in self.instructions)
        return "\n".join(lines)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)


def generate_ecode(
    spec: Specification,
    arch: Architecture,
    implementation: Implementation,
    include_timeline: bool = True,
) -> ECode:
    """Generate the E-code program for one specification period.

    The logical instructions (VOTE/UPDATE/SNAPSHOT/RELEASE) come from
    the specification and the mapping; DISPATCH/BROADCAST annotations
    come from the constructive timeline when *include_timeline* is set
    (and the timeline is feasible).
    """
    implementation.validate(spec, arch)
    period = spec.period()
    periods = spec.periods()
    instructions: list[Instruction] = []

    for name in sorted(spec.input_communicators()):
        comm = spec.communicators[name]
        for offset in range(0, period, comm.period):
            instructions.append(
                Instruction(offset, Opcode.UPDATE, (name,))
            )

    for task in sorted(spec.tasks.values(), key=lambda t: t.name):
        write = task.write_time(periods)
        instructions.append(
            Instruction(write % period, Opcode.VOTE, (task.name,), when=write)
        )
        for index, port in enumerate(task.inputs):
            offset = periods[port.communicator] * port.instance
            instructions.append(
                Instruction(
                    offset,
                    Opcode.SNAPSHOT,
                    (task.name, index, port.communicator),
                )
            )
        instructions.append(
            Instruction(task.read_time(periods), Opcode.RELEASE, (task.name,))
        )

    timeline = None
    if include_timeline:
        timeline = build_timeline(spec, arch, implementation)
        for host in sorted(timeline.host_slices):
            for piece in timeline.host_slices[host]:
                instructions.append(
                    Instruction(
                        piece.start,
                        Opcode.DISPATCH,
                        (piece.task, host),
                        when=piece.end,
                    )
                )
        for slot in timeline.broadcasts:
            instructions.append(
                Instruction(
                    slot.start,
                    Opcode.BROADCAST,
                    (slot.task, slot.host),
                    when=slot.end,
                )
            )

    return ECode(
        period=period,
        instructions=tuple(sorted(instructions)),
        timeline=timeline,
    )
