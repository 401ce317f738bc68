"""Prebuilt systems from the paper, shared by tests and benchmarks.

* :mod:`repro.experiments.fig1` — the communicator/LET example of
  Fig. 1;
* :mod:`repro.experiments.three_tank_system` — the 3TS controller of
  Fig. 2 / Section 4, with the baseline mapping and the two
  replication scenarios;
* :mod:`repro.experiments.general_example` — the time-dependent
  "general implementation" example of Section 3;
* :mod:`repro.experiments.cycle_example` — the specification-with-
  memory pathology of Section 3;
* :mod:`repro.experiments.random_systems` — seeded random
  specification/architecture generators for property tests and
  scaling benchmarks.
"""

from repro.experiments.fig1 import fig1_specification
from repro.experiments.three_tank_system import (
    ACTUATORS,
    SETPOINT,
    DetectAndRecoverOutcome,
    ThreeTankEnvironment,
    baseline_implementation,
    bind_control_functions,
    closed_loop_simulator,
    detect_and_recover,
    scenario1_implementation,
    scenario2_implementation,
    three_tank_architecture,
    three_tank_spec,
    unplug_monte_carlo,
)
from repro.experiments.general_example import (
    alternating_implementation,
    general_example,
    static_implementations,
)
from repro.experiments.cycle_example import (
    cyclic_specification,
    cyclic_specification_with_input,
)
from repro.experiments.htl_sources import (
    BRAKE_BY_WIRE_HTL,
    THREE_TANK_HTL,
    three_tank_htl,
)
from repro.experiments.brake_by_wire import (
    BRAKE_ACTUATORS,
    BrakeByWireEnvironment,
    bind_brake_functions,
    brake_baseline_implementation,
    brake_by_wire_architecture,
    brake_by_wire_spec,
    brake_closed_loop,
    brake_replicated_implementation,
)
from repro.experiments.random_systems import (
    random_architecture,
    random_implementation,
    random_system,
    random_specification,
    refine_system,
)

__all__ = [
    "ACTUATORS",
    "BRAKE_ACTUATORS",
    "BRAKE_BY_WIRE_HTL",
    "BrakeByWireEnvironment",
    "SETPOINT",
    "THREE_TANK_HTL",
    "bind_brake_functions",
    "brake_baseline_implementation",
    "brake_by_wire_architecture",
    "brake_by_wire_spec",
    "brake_closed_loop",
    "brake_replicated_implementation",
    "DetectAndRecoverOutcome",
    "ThreeTankEnvironment",
    "closed_loop_simulator",
    "detect_and_recover",
    "alternating_implementation",
    "baseline_implementation",
    "bind_control_functions",
    "cyclic_specification",
    "cyclic_specification_with_input",
    "fig1_specification",
    "general_example",
    "unplug_monte_carlo",
    "random_architecture",
    "random_implementation",
    "random_specification",
    "random_system",
    "refine_system",
    "scenario1_implementation",
    "scenario2_implementation",
    "static_implementations",
    "three_tank_architecture",
    "three_tank_htl",
    "three_tank_spec",
]
