"""The pluggable batch executors: sharded must equal serial, bitwise.

The tentpole claim of the executor refactor is that sharding (the
:class:`~repro.service.supervision.SupervisedShardedExecutor`) is
*unobservable*:
for every (seed, runs, jobs) the sharded batch result — counts,
per-run arrays, monitor events, ledger record — is bit-identical to
the serial one, because spawn keys partition deterministically and
every per-run derivation is independent along axis 0.  The
differential suite drives that over Hypothesis-generated systems;
the unit tests pin down the shard arithmetic, the merge edge cases,
and the spawn-key identity the service's delta simulation rests on.
"""

import pickle

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
    BatchExecutor,
    BatchSimulator,
    BernoulliFaults,
    SerialExecutor,
    merge_batch_results,
    shard_slices,
    slice_batch_result,
)
from repro.service.supervision import SupervisedShardedExecutor
from repro.telemetry import (
    NULL_PROFILER,
    StageProfiler,
    record_from_result,
)

from sharding import InProcessSharder
from strategies import systems

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def three_tank_simulator(seed=7, executor=None, profiler=None):
    spec = three_tank_spec(
        lrc_u=0.99, functions=bind_control_functions()
    )
    arch = three_tank_architecture()
    return spec, arch, BatchSimulator(
        spec, arch, baseline_implementation(),
        faults=BernoulliFaults(arch), seed=seed, executor=executor,
        profiler=profiler,
    )


def assert_identical(left, right):
    """Bitwise equality of two batch results."""
    assert left.runs == right.runs
    assert left.iterations == right.iterations
    assert left.executor == right.executor
    assert list(left.lrcs.items()) == list(right.lrcs.items())
    assert left.samples_per_run == right.samples_per_run
    assert set(left.reliable_counts) == set(right.reliable_counts)
    for name in left.reliable_counts:
        assert np.array_equal(
            left.reliable_counts[name], right.reliable_counts[name]
        )
    assert left.monitor_events == right.monitor_events


# ----------------------------------------------------------------------
# The shard partition.
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=64),
)
def test_shard_slices_partition_range(runs, jobs):
    slices = shard_slices(runs, jobs)
    # Contiguous, ordered, non-empty, covering exactly range(runs).
    assert len(slices) == min(jobs, runs)
    position = 0
    for start, stop in slices:
        assert start == position
        assert stop > start
        position = stop
    assert position == runs
    # Balanced: sizes differ by at most one, larger shards first.
    sizes = [stop - start for start, stop in slices]
    assert sizes == sorted(sizes, reverse=True)
    if sizes:
        assert max(sizes) - min(sizes) <= 1


def test_shard_slices_rejects_bad_inputs():
    with pytest.raises(RuntimeSimulationError):
        shard_slices(10, 0)
    with pytest.raises(RuntimeSimulationError):
        shard_slices(-1, 2)
    assert shard_slices(0, 4) == []


def test_executors_satisfy_protocol():
    assert isinstance(SerialExecutor(), BatchExecutor)
    assert isinstance(SupervisedShardedExecutor(2), BatchExecutor)
    with pytest.raises(RuntimeSimulationError):
        SupervisedShardedExecutor(0)


# ----------------------------------------------------------------------
# The spawn-key identity the shard (and service-delta) seeding uses.
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=40),
)
def test_spawn_children_equal_spawn_key_construction(seed, runs):
    spawned = np.random.SeedSequence(seed).spawn(runs)
    for k in (0, runs // 2, runs - 1):
        direct = np.random.SeedSequence(seed, spawn_key=(k,))
        assert (
            spawned[k].generate_state(4).tolist()
            == direct.generate_state(4).tolist()
        )


# ----------------------------------------------------------------------
# Sharded vs serial, differentially.
# ----------------------------------------------------------------------


@RELAXED
@given(
    systems(),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=13),
    st.integers(min_value=1, max_value=6),
)
def test_sharded_is_bit_identical_on_generated_systems(
    system, seed, runs, jobs
):
    spec, arch, impl = system
    monitor = MonitorConfig(window=4)

    def run(executor):
        return BatchSimulator(
            spec, arch, impl,
            faults=BernoulliFaults(arch), seed=seed,
            executor=executor,
        ).run_batch(runs, 6, monitor=monitor)

    serial = run(SerialExecutor())
    # In-process shards exercise the slice/merge arithmetic on every
    # example; the fork path is covered by the process tests below and
    # by the supervision suite.
    assert_identical(serial, run(InProcessSharder(jobs)))


@pytest.mark.parametrize("jobs", [2, 3, 5, 23, 64])
def test_sharded_processes_match_serial_three_tank(jobs):
    _, _, serial_sim = three_tank_simulator()
    serial = serial_sim.run_batch(
        23, 30, monitor=MonitorConfig(window=5)
    )
    _, _, sharded_sim = three_tank_simulator(
        executor=SupervisedShardedExecutor(jobs)
    )
    sharded = sharded_sim.run_batch(
        23, 30, monitor=MonitorConfig(window=5)
    )
    assert_identical(serial, sharded)


def test_sharded_ledger_record_matches_serial():
    _, _, serial_sim = three_tank_simulator()
    spec = serial_sim.spec
    serial = serial_sim.run_batch(12, 25)
    _, _, sharded_sim = three_tank_simulator(
        executor=SupervisedShardedExecutor(3)
    )
    sharded = sharded_sim.run_batch(12, 25)

    def record(result):
        return record_from_result(
            spec, three_tank_architecture(), baseline_implementation(),
            result, run_id="s7", command="batch", seed=7, runs=12,
            recorded_at=0.0,
        )

    assert record(serial) == record(sharded)


def test_batch_result_crosses_a_pipe_with_bound_task_functions():
    # The specification binds task lambdas; the batch carries only
    # its LRCs, so it pickles, and a forked worker can return it.
    _, _, simulator = three_tank_simulator()
    serial = simulator.run_batch(6, 10, monitor=MonitorConfig(window=4))
    assert_identical(serial, pickle.loads(pickle.dumps(serial)))
    _, _, sharded = three_tank_simulator(
        executor=SupervisedShardedExecutor(2)
    )
    assert_identical(
        serial,
        sharded.run_batch(6, 10, monitor=MonitorConfig(window=4)),
    )


def test_default_executor_is_serial():
    _, _, simulator = three_tank_simulator()
    assert isinstance(simulator.executor, SerialExecutor)


class _ExplodingFaults(BernoulliFaults):
    """Raises inside ``precompute`` — i.e. inside the shard worker."""

    def precompute(self, plan, runs, iterations, rngs):
        raise RuntimeSimulationError("boom in worker")


def test_worker_failure_propagates():
    spec = three_tank_spec(
        lrc_u=0.99, functions=bind_control_functions()
    )
    arch = three_tank_architecture()
    simulator = BatchSimulator(
        spec, arch, baseline_implementation(),
        faults=_ExplodingFaults(arch), seed=7,
        executor=SupervisedShardedExecutor(2),
    )
    with pytest.raises(
        RuntimeSimulationError, match="failed after 3 attempt.*boom"
    ):
        simulator.run_batch(4, 10)


# ----------------------------------------------------------------------
# merge_batch_results edge cases.
# ----------------------------------------------------------------------


def run_slices(simulator, runs, iterations, bounds, monitor=None):
    children = np.random.SeedSequence(simulator.seed).spawn(runs)
    return [
        simulator.run_slice(
            children[start:stop], iterations, monitor,
            run_offset=start,
        )
        for start, stop in bounds
    ]


def test_merge_rejects_empty_input():
    with pytest.raises(RuntimeSimulationError):
        merge_batch_results([])


def test_merge_with_empty_shard():
    _, _, simulator = three_tank_simulator()
    serial = simulator.run_batch(6, 10)
    shards = run_slices(
        simulator, 6, 10, [(0, 3), (3, 3), (3, 6)]
    )
    assert shards[1].runs == 0
    assert_identical(serial, merge_batch_results(shards))


def test_merge_all_empty_shards_gives_zero_run_result():
    _, _, simulator = three_tank_simulator()
    shards = run_slices(simulator, 6, 10, [(0, 0), (0, 0)])
    merged = merge_batch_results(shards)
    assert merged.runs == 0
    for counts in merged.reliable_counts.values():
        assert counts.shape == (0,)


def test_merge_single_run_shards():
    _, _, simulator = three_tank_simulator()
    serial = simulator.run_batch(5, 10, monitor=MonitorConfig(window=4))
    shards = run_slices(
        simulator, 5, 10, [(k, k + 1) for k in range(5)],
        monitor=MonitorConfig(window=4),
    )
    assert_identical(serial, merge_batch_results(shards))


def test_merge_indivisible_runs():
    # 7 runs over 3 shards: 3 + 2 + 2.
    _, _, simulator = three_tank_simulator()
    serial = simulator.run_batch(7, 10)
    shards = run_slices(simulator, 7, 10, shard_slices(7, 3))
    assert shard_slices(7, 3) == [(0, 3), (3, 5), (5, 7)]
    assert_identical(serial, merge_batch_results(shards))


def test_merge_event_run_indices_are_monotone():
    _, _, simulator = three_tank_simulator()
    shards = run_slices(
        simulator, 14, 30, shard_slices(14, 4),
        monitor=MonitorConfig(window=3),
    )
    merged = merge_batch_results(shards)
    runs = [event.run for event in merged.monitor_events]
    assert runs == sorted(runs)
    assert all(run is not None for run in runs)


def test_merge_rejects_mismatched_iterations():
    _, _, simulator = three_tank_simulator()
    a = run_slices(simulator, 4, 10, [(0, 2)])[0]
    b = run_slices(simulator, 4, 20, [(2, 4)])[0]
    with pytest.raises(RuntimeSimulationError):
        merge_batch_results([a, b])


# ----------------------------------------------------------------------
# slice_batch_result (the cache's runs-downgrade path).
# ----------------------------------------------------------------------


def test_slice_batch_result_is_prefix_identical():
    _, _, simulator = three_tank_simulator()
    large = simulator.run_batch(9, 15, monitor=MonitorConfig(window=4))
    _, _, fresh = three_tank_simulator()
    small = fresh.run_batch(4, 15, monitor=MonitorConfig(window=4))
    assert_identical(small, slice_batch_result(large, 4))
    assert slice_batch_result(large, 9) is large
    with pytest.raises(RuntimeSimulationError):
        slice_batch_result(large, 10)


# ----------------------------------------------------------------------
# Stage spans per shard.
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "jobs, expected",
    [
        (3, [(0, 4, 0), (4, 7, 1), (7, 10, 2)]),
        (1, [(0, 10, 0)]),  # one slice, run in this process
    ],
    ids=["forked", "single-slice"],
)
def test_sharded_executor_records_stage_spans_per_shard(jobs, expected):
    profiler = StageProfiler()
    _, _, simulator = three_tank_simulator(
        executor=SupervisedShardedExecutor(jobs),
        profiler=profiler,
    )
    simulator.run_batch(10, 30, monitor=MonitorConfig(window=3))
    shards = sorted(
        (span["run_start"], span["run_stop"], span["shard"])
        for span in profiler.spans if span["name"] == "shard"
    )
    assert shards == expected
    for shard in range(jobs):
        stages = [
            span["name"] for span in profiler.spans
            if span.get("shard") == shard and span["name"] != "shard"
        ]
        assert stages == [
            "fault-precompute", "status-collapse", "propagate",
            "reduce", "monitor",
        ]
    assert {span.get("attempt") for span in profiler.spans} == {None, 0}


def test_sharded_spans_never_accumulate_on_the_null_profiler():
    _, _, simulator = three_tank_simulator(
        executor=SupervisedShardedExecutor(2)
    )
    assert simulator.profiler is NULL_PROFILER
    simulator.run_batch(6, 20)
    assert NULL_PROFILER.spans == []
