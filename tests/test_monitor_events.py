"""Monitor events as columns: the table, its algebra, and where it goes.

The batch kernel emits the online monitor's alarms and clears as a
:class:`~repro.resilience.events.MonitorEvents` column table, and the
shard pipe, the merge, the prefix slice and the result cache move that
table without building an event object.  These tests hold the table
to the object streams it replaces — pickling, merging any shard split,
prefix slicing, per-run lookup and spilling all give the same events —
and guard the whole sharded, cached, ledgered path against building a
single :class:`~repro.resilience.events.LrcAlarm` or
:class:`~repro.resilience.events.LrcClear`.
"""

import multiprocessing
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeSimulationError
from repro.experiments import (
    baseline_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.resilience import MonitorConfig
from repro.resilience.events import LrcAlarm, LrcClear, MonitorEvents
from repro.runtime import (
    BatchSimulator,
    BernoulliFaults,
    merge_batch_results,
    slice_batch_result,
)
from repro.service.cache import McKey, ResultCache, _freeze, _thaw
from repro.service.supervision import SupervisedShardedExecutor
from repro.telemetry import RunLedger, record_from_result

RUNS = 24
ITERATIONS = 60
MONITOR = MonitorConfig(window=10)


def simulator(executor=None):
    arch = three_tank_architecture()
    return BatchSimulator(
        three_tank_spec(), arch, baseline_implementation(),
        faults=BernoulliFaults(arch), seed=3, executor=executor,
    )


@pytest.fixture(scope="module")
def batch():
    result = simulator().run_batch(RUNS, ITERATIONS, monitor=MONITOR)
    assert isinstance(result.monitor_events, MonitorEvents)
    # Several runs alarm, and some runs alarm more than once.
    runs = result.monitor_events.run
    assert len(np.unique(runs)) > 3 and len(runs) > len(np.unique(runs))
    return result


def test_table_builds_the_events_it_holds(batch):
    events = batch.monitor_events
    objects = list(events)
    assert len(objects) == len(events)
    assert {type(event) for event in objects} == {LrcAlarm, LrcClear}
    assert [events[i] for i in range(len(events))] == objects
    assert events[-1] == objects[-1]
    for event in objects[:20]:
        doc = event.to_dict()
        assert type(doc["run"]) is int and type(doc["time"]) is int
        assert type(doc["rate"]) is float
        assert doc["window"] == MONITOR.window
    # Packing the objects back gives an equal table, which also equals
    # the objects themselves.
    names = tuple(three_tank_spec().communicators)
    assert MonitorEvents.from_events(objects, names) == events
    assert events == objects and events == tuple(objects)
    assert events != objects[:-1]
    assert MonitorEvents.empty() == []


def test_columns_are_read_only(batch):
    with pytest.raises(ValueError):
        batch.monitor_events.rate[0] = 0.0


def test_pickle_round_trip_keeps_the_columns(batch):
    events = batch.monitor_events
    blob = pickle.dumps(events)
    thawed = pickle.loads(blob)
    assert isinstance(thawed, MonitorEvents)
    assert thawed == events
    assert list(thawed) == list(events)
    # Arrays, not objects: a handful of bytes per event.
    assert len(blob) < 64 * len(events)


def test_dict_round_trip(batch):
    events = batch.monitor_events
    doc = events.to_dict()
    thawed = MonitorEvents.from_dict(doc)
    assert thawed == events
    assert np.array_equal(thawed.rate, events.rate)
    with pytest.raises(RuntimeSimulationError, match="out of range"):
        MonitorEvents.from_dict({**doc, "names": doc["names"][:1]})


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.integers(min_value=1, max_value=RUNS - 1),
        max_size=5, unique=True,
    ).map(sorted)
)
def test_merging_any_shard_split_equals_the_unsharded_batch(batch, cuts):
    sim = simulator()
    children = np.random.SeedSequence(3).spawn(RUNS)
    bounds = [0, *cuts, RUNS]
    shards = [
        sim.run_slice(
            children[start:stop], ITERATIONS, MONITOR, run_offset=start
        )
        for start, stop in zip(bounds, bounds[1:])
    ]
    merged = merge_batch_results(shards)
    assert merged.monitor_events == batch.monitor_events
    assert list(merged.monitor_events) == list(batch.monitor_events)


@pytest.mark.parametrize("runs", [0, 1, 7, RUNS - 1, RUNS])
def test_prefix_slice_equals_the_filtered_event_list(batch, runs):
    sliced = slice_batch_result(batch, runs)
    assert list(sliced.monitor_events) == [
        event for event in batch.monitor_events if event.run < runs
    ]


def test_events_for_run_match_the_linear_filter(batch):
    objects = list(batch.monitor_events)
    for run in range(-1, RUNS + 1):
        assert batch.monitor_events_for_run(run) == [
            event for event in objects if event.run == run
        ]


def test_concat_remaps_names_and_rejects_mixed_windows():
    a = MonitorEvents(("x", "y"), 5, [0], [10], [1], [False], [0.6], [0.9])
    b = MonitorEvents(("y",), 5, [1], [20], [0], [True], [1.0], [0.95])
    joined = MonitorEvents.concat([a, b], ("y", "x"))
    assert joined.names == ("y", "x")
    assert [event.communicator for event in joined] == ["y", "y"]
    assert MonitorEvents.concat([a, b]).names == ("x", "y")
    other = MonitorEvents(("y",), 7, [1], [20], [0], [True], [1.0], [0.9])
    with pytest.raises(RuntimeSimulationError, match="windows"):
        MonitorEvents.concat([a, other])
    # The empty table has no window to disagree with.
    assert MonitorEvents.concat([a, MonitorEvents.empty()]) == a
    assert MonitorEvents.concat([]) is MonitorEvents.empty()


def test_spill_freeze_thaw_round_trip(batch):
    doc = _freeze("mc", batch)
    assert "events" not in doc
    thawed = _thaw("mc", doc)
    assert thawed.monitor_events == batch.monitor_events
    assert list(thawed.lrcs.items()) == list(batch.lrcs.items())
    for name, counts in batch.reliable_counts.items():
        assert np.array_equal(thawed.reliable_counts[name], counts)


def test_cache_bytes_are_the_columns_bytes(batch):
    cache = ResultCache()
    key = McKey("s", "a", "i", 3, ITERATIONS, True, MONITOR.window)
    cache.store(key, batch)
    counts = sum(c.nbytes for c in batch.reliable_counts.values())
    assert cache.stats()["mc_bytes"] == (
        512 + counts + batch.monitor_events.nbytes
    )
    # run, time, rate, threshold: 8 B; communicator: 4 B; kind: 1 B.
    assert batch.monitor_events.nbytes == 37 * len(batch.monitor_events)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_sharded_cached_ledgered_batch_builds_no_event_object(
    monkeypatch, tmp_path
):
    """Kernel, shard pipe, merge, cache spill and ledger: zero objects.

    Building an event raises, in the parent and in the forked shard
    workers alike (a worker's error fails the job after its retries),
    so an object built anywhere on the path fails the test.
    """
    built = []

    def forbidden(self, *args, **kwargs):
        built.append(type(self).__name__)
        raise AssertionError(f"built a {type(self).__name__}")

    serial = simulator().run_batch(RUNS, ITERATIONS, monitor=MONITOR)
    monkeypatch.setattr(LrcAlarm, "__init__", forbidden)
    monkeypatch.setattr(LrcClear, "__init__", forbidden)
    sharded = simulator(SupervisedShardedExecutor(2))
    growth = sharded.grow(RUNS, ITERATIONS, monitor=MONITOR)
    result = growth.result
    cache = ResultCache(root=tmp_path / "cache")
    key = McKey("s", "a", "i", 3, ITERATIONS, True, MONITOR.window)
    cache.store(key, result)
    cache.stats()
    record = record_from_result(
        sharded.spec, sharded.arch, sharded.implementation, result,
        run_id="guard", command="batch", seed=3, runs=RUNS,
    )
    RunLedger(tmp_path / "ledger").append(record)
    # Thawing a spilled entry builds none either.
    thawed = ResultCache(root=tmp_path / "cache").plan(key, RUNS)[1]
    assert slice_batch_result(thawed, RUNS // 2).monitor_events.run.size
    assert built == []
    assert record.events == len(serial.monitor_events) > 0
    monkeypatch.undo()
    assert result.monitor_events == serial.monitor_events
    assert thawed.monitor_events == serial.monitor_events
