"""Supervised shard execution: retries are invisible, failures bounded.

The tentpole claim: :class:`SupervisedShardedExecutor` can lose a
worker to a crash, a hang, or an injected error and still return a
result **bit-identical** to the serial execution,
because a shard's work is a pure function of its
``SeedSequence.spawn`` slice.  The differential suite drives that
over Hypothesis-generated systems with hash-scheduled faults; the
unit tests pin the retry policy arithmetic, hang detection, the
give-up path, and the telemetry surface.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeSimulationError
from repro.experiments import (
    bind_control_functions,
    three_tank_architecture,
    three_tank_spec,
)
from repro.experiments.three_tank_system import baseline_implementation
from repro.resilience import MonitorConfig
from repro.runtime import (
    BatchSimulator,
    BernoulliFaults,
    SerialExecutor,
)
from repro.service.supervision import (
    ChaosAction,
    RetryPolicy,
    ShardRetryEvent,
    SupervisedShardedExecutor,
    _unit_noise,
)

from strategies import systems

RELAXED = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FAST_POLICY = RetryPolicy(
    retries=2, base_delay_s=0.005, max_delay_s=0.02
)


def three_tank_simulator(seed=7, executor=None):
    spec = three_tank_spec(
        lrc_u=0.99, functions=bind_control_functions()
    )
    arch = three_tank_architecture()
    return BatchSimulator(
        spec, arch, baseline_implementation(),
        faults=BernoulliFaults(arch), seed=seed, executor=executor,
    )


def assert_identical(left, right):
    """Bitwise equality, ignoring the executor label."""
    assert left.runs == right.runs
    assert left.iterations == right.iterations
    assert left.samples_per_run == right.samples_per_run
    assert set(left.reliable_counts) == set(right.reliable_counts)
    for name in left.reliable_counts:
        assert np.array_equal(
            left.reliable_counts[name], right.reliable_counts[name]
        )
    assert left.monitor_events == right.monitor_events


class HashFaults:
    """Deterministic chaos plan: fault classes drawn per (shard,
    attempt) from a seed, never on the final allowed attempt."""

    def __init__(
        self, seed, retries=2, kinds=("kill", "hang", "error", None)
    ):
        self.seed = seed
        self.retries = retries
        self.kinds = kinds

    def action(self, shard, attempt):
        if attempt >= self.retries:
            return None
        draw = _unit_noise(self.seed * 1000 + shard, attempt)
        kind = self.kinds[int(draw * len(self.kinds))]
        if kind == "hang":
            # Keep process-path hangs short via the explicit delay.
            return ChaosAction("hang", delay_s=30.0)
        return None if kind is None else ChaosAction(kind)


# ----------------------------------------------------------------------
# The retry policy.
# ----------------------------------------------------------------------


def test_retry_policy_backoff_grows_and_caps():
    policy = RetryPolicy(
        retries=5, base_delay_s=0.1, max_delay_s=0.4, jitter=0.0
    )
    delays = [policy.delay(0, attempt) for attempt in range(1, 6)]
    assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]


def test_retry_policy_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(base_delay_s=0.1, jitter=0.5)
    first = policy.delay(3, 1)
    assert first == policy.delay(3, 1)
    assert 0.1 <= first <= 0.15
    assert policy.delay(3, 1) != policy.delay(4, 1)


def test_retry_policy_rejects_nonsense():
    with pytest.raises(RuntimeSimulationError):
        RetryPolicy(retries=-1)
    with pytest.raises(RuntimeSimulationError):
        RetryPolicy(base_delay_s=-0.1)
    with pytest.raises(RuntimeSimulationError):
        SupervisedShardedExecutor(0)
    with pytest.raises(RuntimeSimulationError):
        SupervisedShardedExecutor(2, deadline_s=0.0)


# ----------------------------------------------------------------------
# Differential: supervision under fire equals serial execution.
# ----------------------------------------------------------------------


@RELAXED
@given(
    systems(),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=2, max_value=4),
)
def test_supervised_processes_are_bit_identical_under_faults(
    system, seed, runs, jobs
):
    # Two or more runs and jobs, so every example forks its workers;
    # hangs are left to the three-tank test below, which waits out
    # their deadline.
    spec, arch, impl = system
    monitor = MonitorConfig(window=4)

    def run(executor):
        return BatchSimulator(
            spec, arch, impl,
            faults=BernoulliFaults(arch), seed=seed,
            executor=executor,
        ).run_batch(runs, 6, monitor=monitor)

    serial = run(SerialExecutor())
    supervised = run(
        SupervisedShardedExecutor(
            jobs, policy=FAST_POLICY,
            chaos=HashFaults(seed, kinds=("kill", "error", None)),
        )
    )
    assert_identical(serial, supervised)


@pytest.mark.parametrize("seed", [3, 11])
def test_supervised_processes_survive_kill_hang_error(seed):
    serial = three_tank_simulator(seed=seed).run_batch(
        10, 12, monitor=MonitorConfig(window=5)
    )
    executor = SupervisedShardedExecutor(
        3, policy=FAST_POLICY, deadline_s=1.0,
        chaos=HashFaults(seed),
    )
    supervised = three_tank_simulator(
        seed=seed, executor=executor
    ).run_batch(10, 12, monitor=MonitorConfig(window=5))
    assert_identical(serial, supervised)
    # The plan injects at least one fault for these seeds, so the
    # rescue must be visible on the retry stream.
    assert executor.retry_events
    reasons = {event.reason for event in executor.retry_events}
    assert reasons <= {"crash", "hang", "error"}


def test_supervised_matches_unsupervised_fault_free():
    plain = three_tank_simulator(
        executor=SerialExecutor()
    ).run_batch(8, 10)
    supervised = three_tank_simulator(
        executor=SupervisedShardedExecutor(2)
    ).run_batch(8, 10)
    assert_identical(plain, supervised)


# ----------------------------------------------------------------------
# Hang detection and the give-up path.
# ----------------------------------------------------------------------


class AlwaysFault:
    def __init__(self, kind):
        self.kind = kind

    def action(self, shard, attempt):
        return ChaosAction(self.kind)


def test_single_slice_chunk_runs_once_without_chaos():
    # One slice runs in this process: no supervision, so a chaos plan
    # that would fail every forked attempt is never consulted.
    executor = SupervisedShardedExecutor(
        1, policy=RetryPolicy(retries=0), chaos=AlwaysFault("error"),
    )
    serial = three_tank_simulator().run_batch(6, 8)
    assert_identical(
        serial, three_tank_simulator(executor=executor).run_batch(6, 8)
    )
    assert executor.retry_events == []


def test_hang_is_detected_and_retried_to_exhaustion():
    executor = SupervisedShardedExecutor(
        2,
        policy=RetryPolicy(retries=1, base_delay_s=0.005),
        deadline_s=0.3,
        chaos=AlwaysFault("hang"),
    )
    with pytest.raises(RuntimeSimulationError, match="failed after"):
        three_tank_simulator(executor=executor).run_batch(4, 6)
    hangs = [e for e in executor.retry_events if e.reason == "hang"]
    assert hangs and all(
        "deadline" in event.detail for event in hangs
    )


def test_crash_exhaustion_names_the_shard_and_runs():
    executor = SupervisedShardedExecutor(
        2,
        policy=RetryPolicy(retries=0),
        chaos=AlwaysFault("kill"),
    )
    with pytest.raises(
        RuntimeSimulationError, match=r"shard \d+ \(runs"
    ):
        three_tank_simulator(executor=executor).run_batch(4, 6)


# ----------------------------------------------------------------------
# The retry event surface.
# ----------------------------------------------------------------------


def test_retry_event_round_trips_to_dict():
    event = ShardRetryEvent(
        shard=1, attempt=0, reason="crash", detail="pipe EOF",
        delay_s=0.05, run_start=4, run_stop=8,
    )
    doc = event.to_dict()
    assert doc == {
        "kind": "shard-retry", "shard": 1, "attempt": 0,
        "reason": "crash", "detail": "pipe EOF", "delay_s": 0.05,
        "run_start": 4, "run_stop": 8,
    }
