"""Tests for time-redundant (re-execution) synthesis and semantics."""

import pytest

from repro.errors import SynthesisError
from repro.experiments import (
    baseline_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.mapping import Implementation
from repro.reliability import communicator_srgs, task_reliability
from repro.runtime import BernoulliFaults, ScriptedFaults, Simulator
from repro.synthesis import (
    ReexecutionPlan,
    TransientReexecutionFaults,
    check_schedulability_mixed,
    synthesize_reexecution,
)


@pytest.fixture
def strict_tank():
    return three_tank_spec(lrc_u=0.9975), three_tank_architecture()


def test_plan_validation_single_host():
    with pytest.raises(SynthesisError, match="one host"):
        ReexecutionPlan(
            Implementation({"t": {"h1", "h2"}}), {"t": 2}
        )


def test_plan_validation_positive_attempts():
    with pytest.raises(SynthesisError, match=">= 1"):
        ReexecutionPlan(Implementation({"t": {"h1"}}), {"t": 0})


def test_plan_accessors():
    plan = ReexecutionPlan(
        Implementation({"a": {"h1"}, "b": {"h2"}}), {"a": 3}
    )
    assert plan.attempts_of("a") == 3
    assert plan.attempts_of("b") == 1  # default
    assert plan.host_of("a") == "h1"
    assert plan.total_executions() == 4


def test_task_reliability_formula(strict_tank):
    _, arch = strict_tank
    plan = ReexecutionPlan(
        Implementation({"t1": {"h1"}}), {"t1": 2}
    )
    expected = 1 - (1 - 0.999) ** 2
    assert task_reliability(
        "t1", plan.implementation, arch, plan.attempts_of("t1")
    ) == pytest.approx(
        expected
    )


def test_reexec_srgs_match_replication_math(strict_tank):
    spec, arch = strict_tank
    # Two attempts of t1 on h1 have the same reliability as one
    # attempt on each of two 0.999 hosts (scenario 1's per-task math).
    base = baseline_implementation()
    plan = ReexecutionPlan(
        Implementation(dict(base.assignment), base.sensor_binding),
        {"t1": 2, "t2": 2},
    )
    srgs = communicator_srgs(spec, plan.implementation, arch, plan.attempts)
    assert srgs["u1"] == pytest.approx(0.998000002, abs=1e-9)
    assert srgs["u2"] == pytest.approx(0.998000002, abs=1e-9)


def test_synthesize_reexecution_meets_strict_lrc(strict_tank):
    spec, arch = strict_tank
    plan = synthesize_reexecution(spec, arch)
    srgs = communicator_srgs(spec, plan.implementation, arch, plan.attempts)
    for name, comm in spec.communicators.items():
        assert srgs[name] >= comm.lrc - 1e-9
    assert check_schedulability_mixed(spec, plan, arch).schedulable
    # Time redundancy engaged: some task re-executes OR the sensor
    # pool was widened (the synthesiser may prefer either lever).
    assert (
        plan.total_executions() > len(spec.tasks)
        or len(plan.implementation.sensors_of("s1")) >= 2
    )


def test_synthesize_reexecution_unreachable_lrc(strict_tank):
    _, arch = strict_tank
    spec = three_tank_spec(lrc_u=1.0)
    with pytest.raises(SynthesisError, match="no host reaches"):
        synthesize_reexecution(spec, arch)


def test_schedulability_inflates_demand(strict_tank):
    spec, arch = strict_tank
    base = baseline_implementation()
    fat_plan = ReexecutionPlan(
        Implementation(dict(base.assignment), base.sensor_binding),
        {name: 12 for name in spec.tasks},
    )
    report = check_schedulability_mixed(spec, fat_plan, arch)
    # 12 x 20 = 240 > every LET window (200 max): infeasible.
    assert not report.schedulable


# -- runtime semantics of time redundancy -------------------------------------


def test_transient_faults_are_masked(strict_tank):
    spec, arch = strict_tank
    from repro.experiments import bind_control_functions

    spec = three_tank_spec(
        lrc_u=0.9975, functions=bind_control_functions()
    )
    base = baseline_implementation()
    plan = ReexecutionPlan(
        Implementation(dict(base.assignment), base.sensor_binding),
        {"t1": 3, "t2": 3, "read1": 3, "read2": 3},
    )
    faults = TransientReexecutionFaults(BernoulliFaults(arch), plan)
    result = Simulator(
        spec, arch, plan.implementation, faults=faults, seed=4
    ).run(4000)
    averages = result.limit_averages()
    srgs = communicator_srgs(spec, plan.implementation, arch, plan.attempts)
    assert averages["u1"] == pytest.approx(srgs["u1"], abs=0.01)
    assert averages["u1"] >= 0.9975 - 0.01


def test_permanent_faults_are_not_masked(strict_tank):
    """The key limit of time redundancy: a dead host defeats every
    attempt, unlike spatial replication (the paper's experiment)."""
    _, arch = strict_tank
    from repro.experiments import bind_control_functions
    from repro.model import BOTTOM

    spec = three_tank_spec(functions=bind_control_functions())
    base = baseline_implementation()
    plan = ReexecutionPlan(
        Implementation(dict(base.assignment), base.sensor_binding),
        {"t2": 5},
    )
    unplug = ScriptedFaults(host_outages={"h2": [(0, None)]})
    faults = TransientReexecutionFaults(unplug, plan)
    result = Simulator(
        spec, arch, plan.implementation, faults=faults, seed=4
    ).run(20)
    # t2 runs only on the dead h2: u2 is bottom despite 5 attempts.
    assert all(v is BOTTOM for v in result.values["u2"][4:])
