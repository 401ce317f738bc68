"""Tests for replication synthesis and the two baselines."""

import pytest

from repro.arch import Architecture, ExecutionMetrics, Host, Sensor
from repro.errors import SynthesisError
from repro.experiments import (
    cyclic_specification,
    three_tank_architecture,
    three_tank_spec,
)
from repro.mapping import Implementation
from repro.model import Communicator, Specification, Task
from repro.synthesis import (
    FailurePattern,
    bicriteria_schedule,
    pareto_front,
    priority_replication,
    synthesize_replication,
)
from repro.synthesis.priority import surviving_tasks
from repro.validity import check_validity


# -- LRC-driven synthesis ---------------------------------------------------


def test_synthesis_baseline_three_tank(tank_spec, tank_arch):
    result = synthesize_replication(tank_spec, tank_arch)
    assert result.valid
    assert result.reliability.reliable
    assert result.schedulability.schedulable
    # The relaxed requirement (0.99) is met without replication.
    assert result.replication_count == len(tank_spec.tasks)


def test_synthesis_strict_three_tank(tank_spec_strict, tank_arch):
    result = synthesize_replication(tank_spec_strict, tank_arch)
    assert result.valid
    # The strict requirement (0.9975 on u1/u2) can be met two ways:
    # replicating the controllers (scenario 1, 8 task replicas) or
    # duplicating the sensors (scenario 2, 6 task replicas).  The
    # synthesiser discovers the cheaper scenario 2 automatically.
    assert result.replication_count == len(tank_spec_strict.tasks)
    assert len(result.implementation.sensors_of("s1")) >= 2
    assert len(result.implementation.sensors_of("s2")) >= 2


def test_synthesised_mapping_is_valid_end_to_end(
    tank_spec_strict, tank_arch
):
    result = synthesize_replication(tank_spec_strict, tank_arch)
    report = check_validity(
        tank_spec_strict, tank_arch, result.implementation
    )
    assert report.valid


def test_synthesis_unreachable_lrc_fails():
    # An LRC of exactly 1.0 on a task-written communicator can never be
    # met by hosts with reliability < 1.
    spec = three_tank_spec(lrc_u=1.0)
    arch = three_tank_architecture()
    with pytest.raises(SynthesisError, match="no replication mapping"):
        synthesize_replication(spec, arch)


def test_synthesis_sensor_replication():
    # An input LRC above a single sensor's reliability forces sensor
    # replication.
    spec = three_tank_spec(lrc_s=0.99999)
    arch = three_tank_architecture()
    result = synthesize_replication(spec, arch)
    assert result.valid
    assert len(result.implementation.sensors_of("s1")) >= 2


def test_synthesis_without_schedulability_check(tank_spec, tank_arch):
    result = synthesize_replication(
        tank_spec, tank_arch, require_schedulable=False
    )
    assert result.schedulability is None
    assert result.reliability.reliable


def test_synthesis_respects_max_replicas(tank_spec, tank_arch):
    result = synthesize_replication(tank_spec, tank_arch, max_replicas=1)
    for task in tank_spec.tasks:
        assert len(result.implementation.hosts_of(task)) == 1


def test_synthesis_rejects_unsafe_cycles():
    spec = cyclic_specification("series")
    arch = three_tank_architecture()
    with pytest.raises(SynthesisError, match="cycle"):
        synthesize_replication(spec, arch)


def test_synthesis_infeasible_schedule_detected():
    comms = [
        Communicator("a", period=10, lrc=0.9),
        Communicator("b", period=10, lrc=0.9),
    ]
    tasks = [Task("t", [("a", 0)], [("b", 1)])]
    spec = Specification(comms, tasks)
    arch = Architecture(
        hosts=[Host("h", 0.99)],
        sensors=[Sensor("s", 0.99)],
        metrics=ExecutionMetrics(default_wcet=20, default_wctt=1),
    )
    with pytest.raises(SynthesisError):
        synthesize_replication(spec, arch)


def test_synthesis_accepts_an_srg_one_ulp_below_the_lrc():
    # 0.82 * 0.82 rounds to 0.6723999999999999, one ulp under the LRC;
    # every check accepts it within LRC_TOLERANCE, so synthesis must
    # find the one mapping there is.
    comms = [
        Communicator("a", period=10, lrc=0.8),
        Communicator("out", period=10, lrc=0.6724),
    ]
    tasks = [Task("t", [("a", 0)], [("out", 1)], model="series")]
    spec = Specification(comms, tasks)
    arch = Architecture(
        hosts=[Host("A", 0.82)],
        sensors=[Sensor("s", 0.82)],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )
    result = synthesize_replication(spec, arch)
    assert result.implementation == Implementation({"t": {"A"}}, {"a": {"s"}})
    assert result.reliability.srgs()["out"] < 0.6724
    assert check_validity(spec, arch, result.implementation).valid


def test_synthesis_explored_counter(tank_spec, tank_arch):
    result = synthesize_replication(tank_spec, tank_arch)
    assert result.explored >= len(tank_spec.tasks)


# -- bi-criteria baseline ----------------------------------------------------


def test_bicriteria_theta_zero_minimises_length(tank_spec, tank_arch):
    fast = bicriteria_schedule(tank_spec, tank_arch, theta=0.0)
    safe = bicriteria_schedule(tank_spec, tank_arch, theta=1.0)
    assert fast.makespan <= safe.makespan
    assert safe.system_reliability >= fast.system_reliability


def test_bicriteria_theta_one_replicates_everything(tank_spec, tank_arch):
    safe = bicriteria_schedule(tank_spec, tank_arch, theta=1.0)
    for task in tank_spec.tasks:
        assert len(safe.implementation.hosts_of(task)) == 3


def test_bicriteria_theta_bounds(tank_spec, tank_arch):
    with pytest.raises(SynthesisError):
        bicriteria_schedule(tank_spec, tank_arch, theta=1.5)


def test_bicriteria_max_replicas(tank_spec, tank_arch):
    result = bicriteria_schedule(
        tank_spec, tank_arch, theta=1.0, max_replicas=2
    )
    for task in tank_spec.tasks:
        assert len(result.implementation.hosts_of(task)) <= 2


def test_bicriteria_rejects_cyclic_dataflow(tank_arch):
    # A two-task feedback loop makes the task data-flow graph cyclic
    # (a single task reading its own output does not: the dependency
    # crosses the period boundary and list scheduling handles it).
    comms = [
        Communicator("b", period=10, lrc=0.5),
        Communicator("c", period=10, lrc=0.5),
    ]
    tasks = [
        Task("t1", [("b", 0)], [("c", 1)], model="independent",
             defaults={"b": 0.0}),
        Task("t2", [("c", 1)], [("b", 2)], model="independent",
             defaults={"c": 0.0}),
    ]
    spec = Specification(comms, tasks)
    with pytest.raises(SynthesisError, match="acyclic"):
        bicriteria_schedule(spec, tank_arch, theta=0.5)


def test_pareto_front_is_staircase(tank_spec, tank_arch):
    front = pareto_front(
        tank_spec, tank_arch, thetas=(0.0, 0.25, 0.5, 0.75, 1.0)
    )
    assert front
    for earlier, later in zip(front, front[1:]):
        assert earlier.makespan <= later.makespan
        assert earlier.system_reliability <= later.system_reliability
    # No element dominates another.
    for a in front:
        for b in front:
            if a is not b:
                assert not a.dominates(b)


def test_dominates_relation():
    from repro.synthesis import BiCriteriaResult

    impl = Implementation({"t": {"h"}})
    fast = BiCriteriaResult(0.0, impl, makespan=10,
                            system_reliability=0.9)
    slow_safe = BiCriteriaResult(1.0, impl, makespan=20,
                                 system_reliability=0.99)
    better = BiCriteriaResult(0.5, impl, makespan=10,
                              system_reliability=0.95)
    assert better.dominates(fast)
    assert not fast.dominates(slow_safe)
    assert not slow_safe.dominates(fast)


# -- priority baseline --------------------------------------------------------


def test_priority_replication_survives_patterns(tank_spec, tank_arch):
    priorities = {name: 2 for name in tank_spec.tasks}
    priorities["estimate1"] = 0  # may die with any fault
    priorities["estimate2"] = 0
    patterns = [
        FailurePattern({"h1"}, priority=1),
        FailurePattern({"h2"}, priority=1),
        FailurePattern({"h3"}, priority=1),
    ]
    impl = priority_replication(tank_spec, tank_arch, priorities, patterns)
    for pattern in patterns:
        alive = surviving_tasks(impl, pattern)
        for name, priority in priorities.items():
            if priority > pattern.priority:
                assert name in alive


def test_priority_low_priority_task_single_replica(tank_spec, tank_arch):
    priorities = {name: 0 for name in tank_spec.tasks}
    patterns = [FailurePattern({"h1"}, priority=5)]
    impl = priority_replication(tank_spec, tank_arch, priorities, patterns)
    for name in tank_spec.tasks:
        assert len(impl.hosts_of(name)) == 1


def test_priority_missing_task_priority_rejected(tank_spec, tank_arch):
    with pytest.raises(SynthesisError, match="no priority"):
        priority_replication(tank_spec, tank_arch, {}, [])


def test_priority_unsurvivable_pattern_rejected(tank_spec, tank_arch):
    priorities = {name: 2 for name in tank_spec.tasks}
    pattern = FailurePattern({"h1", "h2", "h3"}, priority=1)
    with pytest.raises(SynthesisError, match="no host remains"):
        priority_replication(
            tank_spec, tank_arch, priorities, [pattern]
        )


def test_failure_pattern_validation():
    with pytest.raises(SynthesisError):
        FailurePattern([], priority=1)


def test_priority_two_host_pattern_needs_survivor(tank_spec, tank_arch):
    priorities = {name: 2 for name in tank_spec.tasks}
    patterns = [FailurePattern({"h1", "h2"}, priority=1)]
    impl = priority_replication(tank_spec, tank_arch, priorities, patterns)
    for name in tank_spec.tasks:
        assert "h3" in impl.hosts_of(name)
