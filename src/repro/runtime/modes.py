"""Mode-switching execution of compiled HTL programs.

HTL programs organise tasks into per-module *modes*; at the end of
every mode period the mode's switch conditions are evaluated on the
current communicator values and, if one fires, the module continues in
the target mode.  The paper's 3TS controller uses exactly this
structure ("there are mode switches between tasks, but the switch is
always to tasks with identical reliability constraints, and the
reliability analysis of Section 3 applies").

:class:`ModeSwitchingExecutive` runs a compiled program one period at
a time: each period executes the flattened specification of the
current mode selection on the reference simulator (chained by
:func:`~repro.runtime.engine.run_chained`, which carries the
communicator store, clock, fault scripts, and RNG across periods),
then evaluates the switch statements of every module in
declaration order — the first condition that returns true wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from repro.arch.architecture import Architecture
from repro.errors import RuntimeSimulationError
from repro.htl.compiler import CompiledProgram
from repro.mapping.implementation import Implementation
from repro.model.specification import Specification
from repro.runtime.engine import SimulationResult, Simulator, run_chained
from repro.runtime.environment import Environment
from repro.runtime.faults import FaultInjector
from repro.runtime.voting import Voter, first_non_bottom


@dataclass(kw_only=True)
class ModeSwitchingResult(SimulationResult):
    """Aggregated outcome of a mode-switching run.

    A :class:`~repro.runtime.engine.SimulationResult` whose ``values``
    concatenate the per-period traces and whose ``spec`` is the
    flattened specification of the start selection (every mode shares
    the program's communicators and their LRCs, so the trace
    statistics are program-wide); ``mode_log[k]`` is the mode
    selection that governed period ``k``; ``switch_log`` records every
    switch as ``(period, module, source, target)``.
    """

    mode_log: list[dict[str, str]]
    switch_log: list[tuple[int, str, str, str]]

    def modes_visited(self, module: str) -> list[str]:
        """Return the distinct modes *module* passed through, in order."""
        visited: list[str] = []
        for selection in self.mode_log:
            mode = selection[module]
            if not visited or visited[-1] != mode:
                visited.append(mode)
        return visited


class ModeSwitchingExecutive:
    """Executes a compiled HTL program with live mode switching.

    Parameters
    ----------
    compiled:
        The compiled program (functions and switch conditions bound).
    arch:
        The architecture to execute on.
    implementation:
        A mapping covering *every* task declared in any mode (plus the
        sensor bindings); each period it is projected onto the tasks of
        the current mode selection.
    environment, faults, voter, actuator_communicators, seed:
        As for :class:`~repro.runtime.engine.Simulator`.

    Switch conditions are called with one argument: a read-only dict of
    the current communicator values (after the period's final commits).
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        arch: Architecture,
        implementation: Implementation,
        environment: Environment | None = None,
        faults: FaultInjector | None = None,
        voter: Voter = first_non_bottom,
        actuator_communicators: Iterable[str] | None = None,
        seed: int = 0,
    ) -> None:
        self.compiled = compiled
        self.arch = arch
        self.full_implementation = implementation
        self.environment = environment
        self.faults = faults
        self.voter = voter
        self.actuators = actuator_communicators
        self.rng = np.random.default_rng(seed)
        self._pending: dict[str, str] = {}
        # Validate all conditions up front so a typo fails fast.
        for module in compiled.program.modules:
            for mode in module.modes:
                for switch in mode.switches:
                    compiled.condition(switch.condition_name)

    def _project(self, spec: Specification) -> Implementation:
        assignment = {}
        for task in spec.tasks:
            assignment[task] = self.full_implementation.hosts_of(task)
        binding = {
            comm: self.full_implementation.sensors_of(comm)
            for comm in spec.input_communicators()
        }
        return Implementation(assignment, binding)

    def _simulator_for(
        self, selection: tuple[tuple[str, str], ...]
    ) -> Simulator:
        spec = self.compiled.specification(dict(selection))
        return Simulator(
            spec,
            self.arch,
            self._project(spec),
            environment=self.environment,
            faults=self.faults,
            voter=self.voter,
            actuator_communicators=self.actuators,
            seed=self.rng,
        )

    def request_switch(self, module: str, target: str) -> None:
        """Request an external mode switch, applied at the next boundary.

        The override wins over *module*'s own switch conditions for
        that one period boundary and is recorded in the switch log.
        This is the hook a resilience executive (or any supervisory
        layer) uses to drive a module into its declared safe/reduced
        mode when recovery demands a degrade.
        """
        modules = {m.name: m for m in self.compiled.program.modules}
        if module not in modules:
            raise RuntimeSimulationError(
                f"program has no module {module!r}"
            )
        modes = {m.name for m in modules[module].modes}
        if target not in modes:
            raise RuntimeSimulationError(
                f"module {module!r} has no mode {target!r} "
                f"(declared: {sorted(modes)})"
            )
        self._pending[module] = target

    def _evaluate_switches(
        self,
        selection: dict[str, str],
        store: Mapping[str, Any],
        period_index: int,
        switch_log: list[tuple[int, str, str, str]],
    ) -> dict[str, str]:
        view = dict(store)
        updated = dict(selection)
        for module in self.compiled.program.modules:
            if module.name in self._pending:
                # An external request_switch override wins over the
                # module's own conditions at this boundary.
                continue
            mode = module.mode_named(selection[module.name])
            for switch in mode.switches:
                condition = self.compiled.condition(switch.condition_name)
                if condition(view):
                    updated[module.name] = switch.target
                    switch_log.append(
                        (period_index, module.name, mode.name,
                         switch.target)
                    )
                    break
        for name, target in sorted(self._pending.items()):
            source = selection[name]
            if target != source:
                switch_log.append((period_index, name, source, target))
            updated[name] = target
        self._pending.clear()
        return updated

    def run(self, iterations: int) -> ModeSwitchingResult:
        """Execute *iterations* periods with live mode switching."""
        selection = self.compiled.start_selection()
        mode_log: list[dict[str, str]] = []
        switch_log: list[tuple[int, str, str, str]] = []

        def boundary(index: int, time: int, result: SimulationResult) -> None:
            nonlocal selection
            mode_log.append(dict(selection))
            selection = self._evaluate_switches(
                selection, result.final_store, index, switch_log
            )

        chained = run_chained(
            iterations,
            lambda: tuple(sorted(selection.items())),
            self._simulator_for,
            boundary,
        )
        return ModeSwitchingResult(
            **vars(chained), mode_log=mode_log, switch_log=switch_log
        )
