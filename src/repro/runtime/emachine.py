"""The E-machine: interpreter of compiled E-code.

Executes the periodic E-code emitted by
:func:`repro.htl.ecode.generate_ecode`.  The E-machine is the runtime
half of the paper's prototype: the compiler emits drivers
(VOTE/UPDATE/SNAPSHOT) and scheduling commands (RELEASE, plus the
DISPATCH/BROADCAST timeline annotations), and this interpreter runs
them.

:class:`EMachine` is a :class:`~repro.runtime.engine.Simulator` that
replaces only the per-instant timetable walk: instead of the compiled
plan's tables, it walks the E-code instructions tagged with the
current offset and calls the simulator's step actions — the one
implementation of the vote, sensor, trace, snapshot, and release
drivers.  Run framing, fault-injector resets, hook dispatch, and
chained runs are inherited (a chained run's final-boundary flush
commits from the plan's table).  Randomness is therefore consumed in the
simulator's order by construction whenever the E-code emits the same
instructions at the same offsets in the same order as the plan's
timetable; with equal seeds the two then produce identical traces,
which is what the test suite certifies about :func:`generate_ecode`.

Within one time instant the opcode order guarantees the semantics
constraint "update all replications first, then read": VOTE and UPDATE
run before the trace is recorded and before SNAPSHOT/RELEASE.
DISPATCH and BROADCAST are annotations the E-machine skips; logical
values do not depend on them (LET semantics).
"""

from __future__ import annotations

from typing import Iterable

from repro.arch.architecture import Architecture
from repro.errors import RuntimeSimulationError
from repro.htl.ecode import ECode, Instruction, Opcode
from repro.mapping.implementation import Implementation
from repro.model.specification import Specification
from repro.runtime.engine import Simulator, _RunState
from repro.runtime.environment import Environment
from repro.runtime.faults import FaultInjector
from repro.runtime.voting import Voter, first_non_bottom
from repro.telemetry.sink import InstrumentationSink


class EMachine(Simulator):
    """Interpreter for compiled E-code programs.

    Parameters mirror :class:`~repro.runtime.engine.Simulator`; the
    implementation must be the (static) mapping the E-code was
    generated for.  *sinks* receive the simulator's
    :class:`~repro.telemetry.sink.InstrumentationSink` hook stream, so
    the same tracer/metrics attach to interpreted E-code.
    """

    def __init__(
        self,
        ecode: ECode,
        spec: Specification,
        arch: Architecture,
        implementation: Implementation,
        environment: Environment | None = None,
        faults: FaultInjector | None = None,
        voter: Voter = first_non_bottom,
        actuator_communicators: "frozenset[str] | None" = None,
        seed: int = 0,
        sinks: Iterable[InstrumentationSink] = (),
    ) -> None:
        super().__init__(
            spec,
            arch,
            implementation,
            environment=environment,
            faults=faults,
            voter=voter,
            actuator_communicators=actuator_communicators,
            seed=seed,
            sinks=sinks,
        )
        if ecode.period != self.period:
            raise RuntimeSimulationError(
                f"E-code period {ecode.period} differs from the "
                f"specification period {self.period}"
            )
        self.ecode = ecode
        self._by_offset: dict[int, list[Instruction]] = {}
        for instruction in sorted(ecode.instructions):
            self._by_offset.setdefault(instruction.time, []).append(
                instruction
            )

    def _instant(self, now: int, offset: int, state: _RunState) -> None:
        """Execute the E-code instructions tagged with *offset*.

        The trace is sampled before the first opcode at SNAPSHOT or
        later (after every VOTE and UPDATE), or at the end of an
        instant with no such opcode.
        """
        sampled = False
        for instruction in self._by_offset.get(offset, ()):
            opcode = instruction.opcode
            if not sampled and opcode >= Opcode.SNAPSHOT:
                self._sample(now, state)
                sampled = True
            if opcode is Opcode.VOTE:
                # ``when`` is the absolute write time: a write at the
                # period boundary commits the previous iteration.
                if now >= instruction.when:
                    (task_name,) = instruction.args
                    iteration = (now - instruction.when) // self.period
                    self._commit(task_name, iteration, now, state)
            elif opcode is Opcode.UPDATE:
                self._update(instruction.args[0], now, state)
            elif opcode is Opcode.SNAPSHOT:
                task_name, index, comm = instruction.args
                self._snapshot(task_name, index, comm, now, state)
            elif opcode is Opcode.RELEASE:
                self._release(instruction.args[0], now, state)
        if not sampled:
            self._sample(now, state)
