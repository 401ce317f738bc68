"""Tests for mixed (replication x re-execution) redundancy synthesis."""

import pytest

from repro.arch import Architecture, ExecutionMetrics, Host, Sensor
from repro.errors import SynthesisError
from repro.experiments import (
    three_tank_architecture,
    three_tank_spec,
)
from repro.mapping import Implementation
from repro.model import Communicator, Specification, Task
from repro.reliability import communicator_srgs, task_reliability
from repro.runtime import BernoulliFaults, Simulator
from repro.synthesis import (
    MixedPlan,
    TransientReexecutionFaults,
    check_schedulability_mixed,
    synthesize_mixed,
    synthesize_reexecution,
    synthesize_replication,
)


def test_plan_validation():
    with pytest.raises(SynthesisError, match=">= 1"):
        MixedPlan(Implementation({"t": {"h1"}}), {"t": 0})


def test_plan_accessors():
    plan = MixedPlan(
        Implementation({"a": {"h1", "h2"}, "b": {"h1"}}), {"a": 2}
    )
    assert plan.attempts_of("a") == 2
    assert plan.attempts_of("b") == 1
    assert plan.total_executions() == 2 * 2 + 1


def test_mixed_reliability_reduces_to_pure_cases():
    arch = three_tank_architecture()
    # Pure replication: attempts 1 on two hosts.
    replicated = MixedPlan(
        Implementation({"t1": {"h1", "h2"}}), {}
    )
    expected = 1 - (1 - 0.999) ** 2
    assert task_reliability(
        "t1", replicated.implementation, arch, replicated.attempts_of("t1")
    ) == pytest.approx(expected)
    # Pure re-execution: two attempts on one host.
    reexecuted = MixedPlan(
        Implementation({"t1": {"h1"}}), {"t1": 2}
    )
    assert task_reliability(
        "t1", reexecuted.implementation, arch, reexecuted.attempts_of("t1")
    ) == pytest.approx(expected)


def test_mixed_dimension_compose():
    arch = three_tank_architecture()
    plan = MixedPlan(
        Implementation({"t1": {"h1", "h2"}}), {"t1": 2}
    )
    replica = 1 - (1 - 0.999) ** 2
    expected = 1 - (1 - replica) ** 2
    assert task_reliability(
        "t1", plan.implementation, arch, plan.attempts_of("t1")
    ) == pytest.approx(expected)


def test_mixed_srgs_on_three_tank():
    spec = three_tank_spec(lrc_u=0.9975)
    arch = three_tank_architecture()
    base = {
        "read1": {"h3"}, "read2": {"h3"},
        "t1": {"h1"}, "t2": {"h2"},
        "estimate1": {"h3"}, "estimate2": {"h3"},
    }
    plan = MixedPlan(
        Implementation(base, {"s1": {"sen1"}, "s2": {"sen2"}}),
        {"t1": 2, "t2": 2},
    )
    srgs = communicator_srgs(spec, plan.implementation, arch, plan.attempts)
    # Same math as scenario 1 / the re-execution plan.
    assert srgs["u1"] == pytest.approx(0.998000002, abs=1e-9)


def test_synthesize_mixed_three_tank_strict():
    spec = three_tank_spec(lrc_u=0.9975)
    arch = three_tank_architecture()
    result = synthesize_mixed(spec, arch)
    for name, comm in spec.communicators.items():
        assert result.srgs[name] >= comm.lrc - 1e-9
    assert result.schedulability.schedulable
    # The mixed synthesiser binds minimal sensor subsets (sensor
    # over-provisioning is the replication synthesiser's lever), so
    # the controllers each need a second execution — 8 in total,
    # matching scenario 1's redundancy budget.
    assert result.total_executions == 8


def test_mixed_beats_pure_strategies_under_scarcity():
    """Two hosts only, one strong and one weak, and a tight window on
    one task: pure replication cannot use re-execution depth, pure
    re-execution cannot use the second host — the mixed search finds
    the cheapest combination for each task."""
    comms = [
        Communicator("a", period=100, lrc=0.9),
        # `fast`'s LRC exceeds any single host; its window [0, 45]
        # fits at most two 20-unit executions.
        Communicator("fast", period=50, lrc=0.9995),
        Communicator("slow", period=100, lrc=0.99995),
    ]
    tasks = [
        Task("quick", [("a", 0)], [("fast", 1)]),
        Task("deep", [("a", 0)], [("slow", 1)]),
    ]
    spec = Specification(comms, tasks)
    arch = Architecture(
        hosts=[Host("strong", 0.999), Host("weak", 0.99)],
        sensors=[Sensor("s", 0.99999)],
        metrics=ExecutionMetrics(default_wcet=20, default_wctt=5),
    )
    result = synthesize_mixed(spec, arch, max_attempts=4)
    assert result.schedulability.schedulable
    for name, comm in spec.communicators.items():
        assert result.srgs[name] >= comm.lrc - 1e-9
    # Both tasks need redundancy (LRCs above any single host), and
    # the minimum is two executions each — by replication, depth, or
    # a mix; the search must find a 4-execution plan.
    assert result.total_executions == 4

    # The pure strategies also solve it here; the mixed plan is never
    # costlier than either (its search space contains both).
    replication = synthesize_replication(spec, arch)
    reexecution = synthesize_reexecution(spec, arch)
    assert result.total_executions <= replication.replication_count
    assert result.total_executions <= reexecution.total_executions()


def test_schedulability_counts_attempts():
    spec = three_tank_spec()
    arch = three_tank_architecture()
    base = {
        "read1": {"h3"}, "read2": {"h3"},
        "t1": {"h1"}, "t2": {"h2"},
        "estimate1": {"h3"}, "estimate2": {"h3"},
    }
    plan = MixedPlan(
        Implementation(base, {"s1": {"sen1"}, "s2": {"sen2"}}),
        {name: 12 for name in spec.tasks},
    )
    assert not check_schedulability_mixed(spec, plan, arch).schedulable


def test_unreachable_lrc_raises():
    spec = three_tank_spec(lrc_u=1.0)
    arch = three_tank_architecture()
    with pytest.raises(SynthesisError, match="no mixed"):
        synthesize_mixed(spec, arch, max_attempts=2)


def test_simulated_mixed_plan_meets_lrcs():
    from repro.experiments import bind_control_functions

    spec = three_tank_spec(
        lrc_u=0.9975, functions=bind_control_functions()
    )
    arch = three_tank_architecture()
    base = {
        "read1": {"h3"}, "read2": {"h3"},
        "t1": {"h1", "h2"}, "t2": {"h1", "h2"},
        "estimate1": {"h3"}, "estimate2": {"h3"},
    }
    plan = MixedPlan(
        Implementation(base, {"s1": {"sen1"}, "s2": {"sen2"}}),
        {"read1": 2, "read2": 2},
    )
    faults = TransientReexecutionFaults(BernoulliFaults(arch), plan)
    result = Simulator(
        spec, arch, plan.implementation, faults=faults, seed=21
    ).run(6000)
    srgs = communicator_srgs(spec, plan.implementation, arch, plan.attempts)
    averages = result.limit_averages()
    for name in ("l1", "u1", "u2"):
        assert averages[name] == pytest.approx(srgs[name], abs=0.01)
