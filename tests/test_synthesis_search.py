"""The one synthesis search behind replication, mixed and re-execution.

Replication is the search's one-attempt case and re-execution its
one-host case, so the three entry points share the decision walk, the
candidate rules, the oracle's pruning and the single timing check.
"""

import pytest

from repro.arch import Architecture, ExecutionMetrics, Host, Sensor
from repro.errors import SynthesisError
from repro.experiments import (
    random_architecture,
    random_specification,
    three_tank_architecture,
    three_tank_spec,
)
from repro.model import Communicator, Specification, Task
from repro.reliability import communicator_srgs
from repro.synthesis import (
    mixed,
    replication,
    synthesize_mixed,
    synthesize_reexecution,
    synthesize_replication,
)
from repro.validity import check_validity


@pytest.fixture(scope="module")
def strict_tank():
    return three_tank_spec(lrc_u=0.9975), three_tank_architecture()


def small_random_system(seed):
    spec = random_specification(
        seed, layers=1, tasks_per_layer=2, inputs=2,
        lrc_range=(0.6, 0.93),
    )
    arch = random_architecture(
        seed, hosts=3, sensors=2, reliability_range=(0.85, 0.99)
    )
    return spec, arch


def test_mixed_is_never_costlier_than_replication(strict_tank):
    spec, arch = strict_tank
    mixed_result = synthesize_mixed(spec, arch)
    replicated = synthesize_replication(spec, arch)
    assert mixed_result.total_executions <= replicated.replication_count


def test_one_attempt_mixed_is_replication_on_the_strict_tank(strict_tank):
    spec, arch = strict_tank
    assert (
        synthesize_mixed(spec, arch, max_attempts=1).plan.implementation
        == synthesize_replication(spec, arch).implementation
    )


def test_one_attempt_mixed_is_replication_on_small_systems():
    for seed in range(4):
        spec, arch = small_random_system(seed)
        try:
            expected = synthesize_replication(spec, arch).implementation
        except SynthesisError:
            with pytest.raises(SynthesisError):
                synthesize_mixed(spec, arch, max_attempts=1)
            continue
        plan = synthesize_mixed(spec, arch, max_attempts=1).plan
        assert plan.implementation == expected, seed
        assert set(plan.attempts.values()) == {1}


def test_reexecution_keeps_every_task_on_the_reliable_host():
    """A load-balancing walk puts t2 on the idle weak host B, and then
    no host can lift t3 (which reads t2's output) to its LRC; the
    valid plan keeps all three tasks on A at one attempt each."""
    comms = [
        Communicator("a", period=10, lrc=0.5),
        Communicator("m", period=10, lrc=0.5),
        Communicator("n", period=10, lrc=0.5),
        Communicator("out", period=10, lrc=0.9),
    ]
    tasks = [
        Task("t1", [("a", 0)], [("m", 1)]),
        Task("t2", [("a", 0)], [("n", 1)]),
        Task("t3", [("n", 1)], [("out", 2)]),
    ]
    spec = Specification(comms, tasks)
    arch = Architecture(
        hosts=[Host("A", 0.99), Host("B", 0.6)],
        sensors=[Sensor("s", 0.999)],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )
    plan = synthesize_reexecution(spec, arch)
    assert {task: plan.host_of(task) for task in spec.tasks} == {
        "t1": "A", "t2": "A", "t3": "A",
    }
    assert plan.total_executions() == 3
    assert check_validity(spec, arch, plan.implementation).valid


def test_the_winning_plan_is_timing_checked_once(monkeypatch):
    spec = three_tank_spec()
    arch = three_tank_architecture()
    checked = []
    original = mixed.check_schedulability

    def counting(spec, arch, implementation):
        checked.append(implementation)
        return original(spec, arch, implementation)

    for module in (mixed, replication):
        monkeypatch.setattr(
            module, "check_schedulability", counting, raising=False
        )
    result = synthesize_replication(spec, arch)
    assert checked.count(result.implementation) == 1
    assert result.schedulability.schedulable
    checked.clear()
    plan = synthesize_mixed(spec, arch).plan
    assert checked.count(plan.implementation) == 1


def test_max_replicas_bounds_task_replicas_only():
    spec = three_tank_spec(lrc_s=0.99999)
    arch = three_tank_architecture()
    result = synthesize_replication(spec, arch, max_replicas=1)
    assert result.valid
    implementation = result.implementation
    assert all(
        len(implementation.hosts_of(task)) == 1 for task in spec.tasks
    )
    for name in spec.input_communicators():
        assert len(implementation.sensors_of(name)) == 2
    plan = synthesize_reexecution(spec, arch)
    for name in spec.input_communicators():
        assert len(plan.implementation.sensors_of(name)) == 2
    srgs = communicator_srgs(spec, plan.implementation, arch, plan.attempts)
    for name, comm in spec.communicators.items():
        assert srgs[name] >= comm.lrc - 1e-9
