"""Tests for the E-machine and its equivalence with the simulator."""

import pytest

from repro.arch import Architecture, ExecutionMetrics, Host, Sensor
from repro.errors import RuntimeSimulationError
from repro.experiments import (
    ACTUATORS,
    ThreeTankEnvironment,
    baseline_implementation,
    bind_control_functions,
    scenario1_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.htl import ECode, generate_ecode
from repro.mapping import Implementation
from repro.model import Communicator, Specification, Task
from repro.runtime import (
    BernoulliFaults,
    CallbackEnvironment,
    ScriptedFaults,
    Simulator,
)
from repro.runtime.emachine import EMachine


def pipeline_system():
    comms = [
        Communicator("raw", period=10, lrc=0.5, init=0.0),
        Communicator("mid", period=10, lrc=0.5, init=0.0),
        Communicator("out", period=10, lrc=0.5, init=0.0),
    ]
    tasks = [
        Task("f", [("raw", 0)], [("mid", 1)], function=lambda x: 2 * x),
        Task("g", [("mid", 1)], [("out", 2)], function=lambda x: x + 1),
    ]
    spec = Specification(comms, tasks)
    arch = Architecture(
        hosts=[Host("h1", 0.95), Host("h2", 0.9)],
        sensors=[Sensor("s", 0.97)],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )
    impl = Implementation(
        {"f": {"h1", "h2"}, "g": {"h1"}}, {"raw": {"s"}}
    )
    return spec, arch, impl


def run_both(spec, arch, impl, faults_factory=lambda: None, iterations=50,
             seed=5, env_factory=lambda: None):
    simulator = Simulator(
        spec, arch, impl, environment=env_factory(),
        faults=faults_factory(), seed=seed,
    )
    reference = simulator.run(iterations)
    ecode = generate_ecode(spec, arch, impl)
    machine = EMachine(
        ecode, spec, arch, impl, environment=env_factory(),
        faults=faults_factory(), seed=seed,
    )
    compiled = machine.run(iterations)
    return reference, compiled


def test_equivalence_fault_free():
    spec, arch, impl = pipeline_system()
    env = lambda: CallbackEnvironment(sense_fn=lambda c, t: float(t))
    reference, compiled = run_both(spec, arch, impl, env_factory=env)
    assert reference.values == compiled.values


def test_equivalence_scripted_faults():
    spec, arch, impl = pipeline_system()
    faults = lambda: ScriptedFaults(host_outages={"h1": [(100, 300)]})
    reference, compiled = run_both(spec, arch, impl, faults)
    assert reference.values == compiled.values
    assert reference.replica_failures == compiled.replica_failures


def test_equivalence_bernoulli_same_seed():
    spec, arch, impl = pipeline_system()
    faults = lambda: BernoulliFaults(arch)
    reference, compiled = run_both(spec, arch, impl, faults,
                                   iterations=300)
    assert reference.values == compiled.values
    assert reference.replica_attempts == compiled.replica_attempts
    assert reference.replica_failures == compiled.replica_failures


def test_equivalence_three_tank_closed_loop():
    arch = three_tank_architecture()
    impl = scenario1_implementation()

    def build(kind):
        functions = bind_control_functions()
        spec = three_tank_spec(functions=functions)
        env = ThreeTankEnvironment()
        if kind == "sim":
            runner = Simulator(
                spec, arch, impl, environment=env,
                actuator_communicators=ACTUATORS, seed=3,
            )
        else:
            runner = EMachine(
                generate_ecode(spec, arch, impl), spec, arch, impl,
                environment=env, actuator_communicators=ACTUATORS, seed=3,
            )
        return runner.run(60), env

    reference, env_a = build("sim")
    compiled, env_b = build("em")
    assert reference.values == compiled.values
    assert env_a.plant.levels == env_b.plant.levels


def test_emachine_requires_functions():
    spec, arch, impl = pipeline_system()
    stripped = spec.with_tasks(
        [
            Task("f", [("raw", 0)], [("mid", 1)]),
            Task("g", [("mid", 1)], [("out", 2)]),
        ]
    )
    ecode = generate_ecode(stripped, arch, impl)
    with pytest.raises(RuntimeSimulationError, match="no function"):
        EMachine(ecode, stripped, arch, impl)


def test_emachine_rejects_ecode_of_another_period():
    spec, arch, impl = pipeline_system()
    ecode = generate_ecode(spec, arch, impl)
    foreign = ECode(period=2 * ecode.period, instructions=ecode.instructions)
    with pytest.raises(RuntimeSimulationError, match="period"):
        EMachine(foreign, spec, arch, impl)


def test_emachine_positive_iterations():
    spec, arch, impl = pipeline_system()
    machine = EMachine(generate_ecode(spec, arch, impl), spec, arch, impl)
    with pytest.raises(RuntimeSimulationError, match="positive"):
        machine.run(0)


def test_emachine_works_without_timeline_annotations():
    spec, arch, impl = pipeline_system()
    ecode = generate_ecode(spec, arch, impl, include_timeline=False)
    machine = EMachine(ecode, spec, arch, impl, seed=5)
    result = machine.run(20)
    reference = Simulator(spec, arch, impl, seed=5).run(20)
    assert reference.values == result.values


def test_emachine_baseline_unplug_degrades_like_simulator():
    arch = three_tank_architecture()
    impl = baseline_implementation()
    faults = lambda: ScriptedFaults(host_outages={"h2": [(5000, None)]})

    functions = bind_control_functions()
    spec = three_tank_spec(functions=functions)
    machine = EMachine(
        generate_ecode(spec, arch, impl), spec, arch, impl,
        faults=faults(), actuator_communicators=ACTUATORS, seed=3,
    )
    result = machine.run(40)
    # After t=5000 every u2 write is unreliable (t2 only on h2).
    from repro.model import BOTTOM

    u2 = result.values["u2"]
    assert all(v is BOTTOM for v in u2[60:])
