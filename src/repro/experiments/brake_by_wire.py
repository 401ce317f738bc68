"""A distributed brake-by-wire controller — the second application.

The paper's introduction motivates the framework with automotive
safety systems; this module builds one on the same pattern as the 3TS:
wheel-speed sensing, a vehicle-speed reference estimator, and one
anti-lock slip controller per axle, distributed over three ECUs.

Communicators (periods in milliseconds; control period 20 ms):

========  ======  ============================================
name      period  role
========  ======  ============================================
``ws_f``      20  front wheel speed (input, rad/s)
``ws_r``      20  rear wheel speed (input, rad/s)
``pedal``     20  demanded brake torque (input, Nm)
``vref``      10  vehicle-speed reference (estimator output)
``tq_f``      10  front brake torque command (actuator)
``tq_r``      10  rear brake torque command (actuator)
========  ======  ============================================

Tasks: ``estimate_v`` computes the ramp-limited reference in
``[0, 10]`` (parallel model — one dead wheel sensor degrades, two kill
it); ``abs_f``/``abs_r`` run the slip law in ``[10, 20]`` (series).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.arch.architecture import Architecture, ExecutionMetrics
from repro.arch.host import Host
from repro.arch.sensor import Sensor
from repro.mapping.implementation import Implementation
from repro.model.communicator import Communicator
from repro.model.specification import Specification
from repro.model.task import Task
from repro.model.values import is_reliable_value
from repro.plants.brake_by_wire import (
    BrakeByWirePlant,
    ReferenceSpeedEstimator,
    slip_controller,
)
from repro.runtime.environment import Environment

#: The control period in milliseconds.
BRAKE_PERIOD_MS = 20

#: The actuator communicators (torque commands).
BRAKE_ACTUATORS = frozenset({"tq_f", "tq_r"})

#: Demanded torque of a panic stop (Nm per axle).
PANIC_TORQUE = 2200.0

#: Initial vehicle speed (m/s) and the matching wheel speed (rad/s).
INITIAL_SPEED = 30.0
INITIAL_WHEEL = INITIAL_SPEED / 0.3


def brake_by_wire_spec(
    lrc_tq: float = 0.99,
    lrc_ws: float = 0.999,
    functions: dict[str, Callable[..., Any]] | None = None,
) -> Specification:
    """Build the brake-by-wire specification."""
    functions = functions or {}
    communicators = [
        Communicator("ws_f", period=20, lrc=lrc_ws, init=INITIAL_WHEEL),
        Communicator("ws_r", period=20, lrc=lrc_ws, init=INITIAL_WHEEL),
        Communicator("pedal", period=20, lrc=lrc_ws, init=0.0),
        Communicator("vref", period=10, lrc=0.99, init=INITIAL_SPEED),
        Communicator("tq_f", period=10, lrc=lrc_tq, init=0.0),
        Communicator("tq_r", period=10, lrc=lrc_tq, init=0.0),
    ]
    tasks = [
        Task(
            "estimate_v",
            inputs=[("ws_f", 0), ("ws_r", 0)],
            outputs=[("vref", 1)],
            model="parallel",
            defaults={"ws_f": 0.0, "ws_r": 0.0},
            function=functions.get("estimate_v"),
        ),
        Task(
            "abs_f",
            inputs=[("ws_f", 0), ("vref", 1), ("pedal", 0)],
            outputs=[("tq_f", 2)],
            model="series",
            function=functions.get("abs_f"),
        ),
        Task(
            "abs_r",
            inputs=[("ws_r", 0), ("vref", 1), ("pedal", 0)],
            outputs=[("tq_r", 2)],
            model="series",
            function=functions.get("abs_r"),
        ),
    ]
    return Specification(communicators, tasks)


def brake_by_wire_architecture(
    reliability: float = 0.999,
) -> Architecture:
    """Three ECUs, wheel-speed and pedal sensors (with spares)."""
    return Architecture(
        hosts=[
            Host("ecu1", reliability),
            Host("ecu2", reliability),
            Host("ecu3", reliability),
        ],
        sensors=[
            Sensor("wsf_s", reliability),
            Sensor("wsr_s", reliability),
            Sensor("pedal_s", reliability),
            Sensor("wsf_b", reliability),
            Sensor("wsr_b", reliability),
        ],
        metrics=ExecutionMetrics(default_wcet=2, default_wctt=1),
    )


def brake_baseline_implementation() -> Implementation:
    """One ECU per function, single sensors."""
    return Implementation(
        {
            "estimate_v": {"ecu3"},
            "abs_f": {"ecu1"},
            "abs_r": {"ecu2"},
        },
        {
            "ws_f": {"wsf_s"},
            "ws_r": {"wsr_s"},
            "pedal": {"pedal_s"},
        },
    )


def brake_replicated_implementation() -> Implementation:
    """Slip controllers replicated across both actuation ECUs."""
    baseline = brake_baseline_implementation()
    return baseline.with_assignment(
        "abs_f", {"ecu1", "ecu2"}
    ).with_assignment("abs_r", {"ecu1", "ecu2"})


@dataclass
class BrakeByWireEnvironment(Environment):
    """Couples the runtime to the braking plant.

    The driver demands :data:`PANIC_TORQUE` from *brake_at_ms* on; an
    unreliable torque command holds the previous torque (what a brake
    actuator driver does when no update arrives).  Time units are
    milliseconds.
    """

    plant: BrakeByWirePlant = field(default_factory=BrakeByWirePlant)
    brake_at_ms: int = 1000
    speed_log: list[float] = field(default_factory=list)
    bottom_actuations: int = 0
    _brake_onset_distance: float | None = field(default=None, repr=False)

    def sense(self, communicator: str, time: int) -> float:
        if communicator == "ws_f":
            return self.plant.wheel_speed(0)
        if communicator == "ws_r":
            return self.plant.wheel_speed(1)
        if communicator == "pedal":
            return PANIC_TORQUE if time >= self.brake_at_ms else 0.0
        return 0.0

    def actuate(self, communicator: str, time: int, value: Any) -> None:
        if not is_reliable_value(value):
            self.bottom_actuations += 1
            return
        if communicator == "tq_f":
            self.plant.set_torque(0, value)
        elif communicator == "tq_r":
            self.plant.set_torque(1, value)

    def advance(self, time: int, dt: int) -> None:
        if (
            self._brake_onset_distance is None
            and time >= self.brake_at_ms
        ):
            self._brake_onset_distance = self.plant.distance
        self.plant.step(dt / 1000.0)
        self.speed_log.append(self.plant.speed)

    def stopping_distance(self) -> float:
        """Distance travelled since the brake demand (so far)."""
        if self._brake_onset_distance is None:
            return 0.0
        return self.plant.distance - self._brake_onset_distance


def bind_brake_functions() -> dict[str, Callable[..., Any]]:
    """Task-function bindings with fresh estimator state."""
    estimator = ReferenceSpeedEstimator(dt=BRAKE_PERIOD_MS / 1000.0)
    return {
        "estimate_v": estimator.update,
        "abs_f": slip_controller,
        "abs_r": slip_controller,
    }


def brake_closed_loop(
    implementation: Implementation,
    faults: Any = None,
    iterations: int = 400,
    seed: int = 6,
) -> BrakeByWireEnvironment:
    """Run a panic stop on the distributed runtime; return the env."""
    from repro.runtime.engine import Simulator

    functions = bind_brake_functions()
    spec = brake_by_wire_spec(functions=functions)
    arch = brake_by_wire_architecture()
    environment = BrakeByWireEnvironment()
    simulator = Simulator(
        spec,
        arch,
        implementation,
        environment=environment,
        faults=faults,
        actuator_communicators=BRAKE_ACTUATORS,
        seed=seed,
    )
    simulator.run(iterations)
    return environment
