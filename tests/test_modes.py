"""Tests for mode-switching execution of HTL programs."""

import pytest

from repro.errors import HTLSemanticError, RuntimeSimulationError
from repro.experiments import (
    ACTUATORS,
    ThreeTankEnvironment,
    baseline_implementation,
    bind_control_functions,
    three_tank_architecture,
    three_tank_htl,
)
from repro.htl import compile_program
from repro.mapping import Implementation
from repro.runtime import (
    CallbackEnvironment,
    ModeSwitchingExecutive,
    ScriptedFaults,
    Simulator,
)

TOGGLE_PROGRAM = """
program Toggle {
  communicator x : float period 10 init 0.0 ;
  communicator y : float period 10 init 0.0 ;
  module M start up {
    task inc input (x[0]) output (y[1]) function "inc" ;
    task dec input (x[0]) output (y[1]) function "dec" ;
    mode up period 10 {
      invoke inc ;
      switch to down when "high" ;
    }
    mode down period 10 {
      invoke dec ;
      switch to up when "low" ;
    }
  }
}
"""


def toggle_executive(environment=None, faults=None, seed=0):
    compiled = compile_program(
        TOGGLE_PROGRAM,
        functions={"inc": lambda x: x + 1.0, "dec": lambda x: x - 1.0},
        conditions={
            "high": lambda values: values["y"] >= 3.0,
            "low": lambda values: values["y"] <= 0.0,
        },
    )
    from repro.arch import Architecture, ExecutionMetrics, Host, Sensor

    arch = Architecture(
        hosts=[Host("h1"), Host("h2")],
        sensors=[Sensor("s")],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )
    implementation = Implementation(
        {"inc": {"h1"}, "dec": {"h2"}}, {"x": {"s"}}
    )
    executive = ModeSwitchingExecutive(
        compiled, arch, implementation,
        environment=environment, faults=faults, seed=seed,
    )
    return executive


def test_hysteresis_oscillation():
    # y counts x(=0)+1 while in `up`; after it reaches 3 the module
    # switches to `down`, which counts it back to 0, and so on.
    env = CallbackEnvironment(sense_fn=lambda c, t: 0.0)
    # y accumulates? No: tasks read x (always 0) so inc yields 1.0
    # every period.  Use y's own value through x? Simpler: make the
    # sensor return the last y via the environment is overkill; the
    # switch fires when y >= 3 which never happens with x = 0 -> 1.
    # Drive x so the modes genuinely toggle: x ramps with time.
    env = CallbackEnvironment(sense_fn=lambda c, t: float(t // 10))
    executive = toggle_executive(environment=env)
    result = executive.run(10)
    # inc: y = x + 1 = period index + 1; once y >= 3 (period 2, value
    # 3 committed at period boundary) the module switches to `down`.
    modes = [selection["M"] for selection in result.mode_log]
    assert modes[0] == "up"
    assert "down" in modes
    assert result.switch_log[0][1] == "M"
    assert result.switch_log[0][2] == "up"
    assert result.switch_log[0][3] == "down"


def test_modes_visited_helper():
    env = CallbackEnvironment(sense_fn=lambda c, t: float(t // 10))
    result = toggle_executive(environment=env).run(10)
    visited = result.modes_visited("M")
    assert visited[0] == "up"
    assert len(visited) >= 2


def test_switch_changes_executed_task():
    # While in `down`, y = x - 1 instead of x + 1.
    env = CallbackEnvironment(sense_fn=lambda c, t: float(t // 10))
    result = toggle_executive(environment=env).run(10)
    switch_period = result.switch_log[0][0]
    # Before the switch: y[k+1] = x[k] + 1; after: y[k+1] = x[k] - 1.
    after_index = switch_period + 2
    x_value = float(after_index - 1)
    assert result.values["y"][after_index] == x_value - 1.0


def test_no_switch_means_start_mode_forever():
    executive = toggle_executive(
        environment=CallbackEnvironment(sense_fn=lambda c, t: 0.0)
    )
    result = executive.run(5)
    assert all(sel["M"] == "up" for sel in result.mode_log)
    # The result carries the trace statistics of any simulation.
    assert result.iterations == 5
    assert set(result.limit_averages()) == {"x", "y"}
    assert result.switch_log == []
    # y = x + 1 = 1 at every commit.
    assert result.values["y"][1:] == [1.0] * 4


def test_trace_layout_matches_plain_simulator():
    # With no switches firing, the executive's concatenated trace must
    # equal a plain multi-iteration Simulator run of the start modes.
    compiled = compile_program(
        TOGGLE_PROGRAM,
        functions={"inc": lambda x: x + 1.0, "dec": lambda x: x - 1.0},
        conditions={
            "high": lambda values: False,
            "low": lambda values: False,
        },
    )
    from repro.arch import Architecture, ExecutionMetrics, Host, Sensor

    arch = Architecture(
        hosts=[Host("h1"), Host("h2")],
        sensors=[Sensor("s")],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )
    implementation = Implementation(
        {"inc": {"h1"}, "dec": {"h2"}}, {"x": {"s"}}
    )
    executive = ModeSwitchingExecutive(
        compiled, arch, implementation,
        environment=CallbackEnvironment(sense_fn=lambda c, t: float(t)),
    )
    chained = executive.run(6)
    spec = compiled.specification()
    plain = Simulator(
        spec, arch,
        Implementation({"inc": {"h1"}}, {"x": {"s"}}),
        environment=CallbackEnvironment(sense_fn=lambda c, t: float(t)),
    ).run(6)
    assert chained.values == plain.values


def test_unknown_condition_fails_fast():
    compiled = compile_program(
        TOGGLE_PROGRAM,
        functions={"inc": lambda x: x + 1.0, "dec": lambda x: x - 1.0},
        conditions={"high": lambda values: False},  # 'low' missing
    )
    from repro.arch import Architecture, ExecutionMetrics, Host, Sensor

    arch = Architecture(
        hosts=[Host("h1")],
        sensors=[Sensor("s")],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )
    implementation = Implementation(
        {"inc": {"h1"}, "dec": {"h1"}}, {"x": {"s"}}
    )
    with pytest.raises(HTLSemanticError, match="condition registry"):
        ModeSwitchingExecutive(compiled, arch, implementation)


def test_positive_iterations_required():
    executive = toggle_executive()
    with pytest.raises(RuntimeSimulationError, match="positive"):
        executive.run(0)


def test_three_tank_hold_mode_engages_on_high_level():
    functions = bind_control_functions()
    functions["t1_hold"] = lambda level: 0.0
    functions["t2_hold"] = lambda level: 0.0
    compiled = compile_program(
        three_tank_htl(),
        functions=functions,
        conditions={
            "level1_out_of_range": lambda v: v["l1"] > 0.28,
            "level1_in_range": lambda v: v["l1"] <= 0.26,
            "level2_out_of_range": lambda v: v["l2"] > 0.28,
            "level2_in_range": lambda v: v["l2"] <= 0.26,
        },
    )
    arch = three_tank_architecture()
    implementation = baseline_implementation()
    implementation = Implementation(
        dict(implementation.assignment)
        | {"t1_hold": {"h1"}, "t2_hold": {"h2"}},
        implementation.sensor_binding,
    )
    environment = ThreeTankEnvironment()
    # Start the tanks well above the hold threshold.
    environment.plant.levels = [0.35, 0.35, 0.3]
    executive = ModeSwitchingExecutive(
        compiled, arch, implementation,
        environment=environment,
        actuator_communicators=ACTUATORS,
    )
    result = executive.run(120)
    # The controllers switch to `hold` (pumps off) until the levels
    # drain back into range, then return to `regulate`.
    assert result.modes_visited("Control1")[:3] == [
        "regulate", "hold", "regulate",
    ]
    assert environment.plant.level(0) == pytest.approx(0.25, abs=0.02)

def test_request_switch_overrides_conditions():
    # x is 0 forever, so the module's own conditions never fire; an
    # external request_switch drives M into `down` at the next
    # boundary anyway (the hook a degrade recovery uses).
    executive = toggle_executive(
        environment=CallbackEnvironment(sense_fn=lambda c, t: 0.0)
    )
    executive.request_switch("M", "down")
    result = executive.run(5)
    modes = [sel["M"] for sel in result.mode_log]
    assert modes[0] == "up"
    assert modes[1] == "down"
    assert result.switch_log[0] == (0, "M", "up", "down")
    # The override lasts one boundary; conditions then rule again, and
    # with y = x - 1 = -1 committed in `down` the "low" condition
    # flips M straight back up.
    assert modes[2] == "up"
    assert result.switch_log[1] == (1, "M", "down", "up")


def test_request_switch_wins_over_firing_condition():
    # A sensor stuck at 9 makes y = 10 >= 3, so the "high" condition
    # fires at the very first boundary — but the override targets `up`
    # (a self-switch) and wins: the module stays in `up` at that
    # boundary, with no transition logged for it.
    env = CallbackEnvironment(sense_fn=lambda c, t: 9.0)
    baseline = toggle_executive(environment=env).run(2)
    assert baseline.switch_log[0][0] == 0  # the condition does fire

    executive = toggle_executive(
        environment=CallbackEnvironment(sense_fn=lambda c, t: 9.0)
    )
    executive.request_switch("M", "up")
    stayed = executive.run(1)
    assert all(sel["M"] == "up" for sel in stayed.mode_log)
    # A self-switch is not logged as a transition.
    assert stayed.switch_log == []


def test_request_switch_validates_names():
    executive = toggle_executive()
    with pytest.raises(RuntimeSimulationError, match="no module"):
        executive.request_switch("nope", "down")
    with pytest.raises(RuntimeSimulationError, match="no mode"):
        executive.request_switch("M", "sideways")
