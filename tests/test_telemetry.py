"""Tests for the telemetry subsystem: tracing, metrics, profiling.

Covers the three pillars (tracer spans, metrics registry, stage
profiler), the instrumentation-sink protocol shared with the
resilience monitor, run-id stamping and JSONL round-trips of every
resilience event type, and the PR 2 seed-contract regression: all
telemetry is purely observational, so attaching it must not change a
single simulated value.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import ReproError, RuntimeSimulationError
from repro.experiments import (
    ACTUATORS,
    baseline_implementation,
    bind_control_functions,
    scenario2_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.experiments.three_tank_system import ThreeTankEnvironment
from repro.report import render_metrics_dashboard
from repro.resilience import (
    EVENT_KINDS,
    HostDead,
    HostRecovered,
    HostSuspected,
    LrcAlarm,
    LrcClear,
    LrcMonitor,
    MonitorConfig,
    RecoveryCommitted,
    RecoveryFailed,
    ResilientSimulator,
    WatchdogConfig,
    ReReplicatePolicy,
    event_from_dict,
    events_from_jsonl,
    events_to_jsonl,
    resilient_batch,
)
from repro.runtime import (
    BatchSimulator,
    BernoulliFaults,
    ScriptedFaults,
    Simulator,
)
from repro.telemetry import (
    Histogram,
    InstrumentationSink,
    MetricsRegistry,
    MetricsSink,
    NULL_PROFILER,
    NullProfiler,
    NullSink,
    StageProfiler,
    TelemetryBus,
    TraceEvent,
    Tracer,
    derive_run_id,
    load_trace_file,
    record_batch_result,
    record_margins,
    render_summary,
    summarize_trace,
)


def sample_events():
    """One instance of every resilience event type."""
    return [
        LrcAlarm(
            time=400, communicator="u1", rate=0.7,
            threshold=0.99, window=50,
        ),
        LrcClear(
            time=900, communicator="u1", rate=1.0,
            threshold=0.99, window=50,
        ),
        HostSuspected(time=1000, host="h2", missed=2),
        HostDead(time=1500, host="h2", missed=3),
        HostRecovered(time=2500, host="h2"),
        RecoveryCommitted(
            time=1500,
            policy="re-replicate",
            dead_hosts=("h2",),
            assignment={"t1": ("h1",)},
            srgs={"u1": 0.99},
        ),
        RecoveryFailed(time=1500, dead_hosts=("h2",), reason="no hosts"),
    ]


def run_kwargs(seed=3):
    """Shared construction kwargs for a deterministic 3TS run."""
    return dict(
        environment=ThreeTankEnvironment(),
        faults=BernoulliFaults(three_tank_architecture()),
        actuator_communicators=ACTUATORS,
        seed=seed,
    )


def bound_spec():
    return three_tank_spec(
        lrc_u=0.99, functions=bind_control_functions()
    )


# ----------------------------------------------------------------------
# Event round-trips and stamping.
# ----------------------------------------------------------------------


def test_every_event_kind_round_trips_through_jsonl():
    events = sample_events()
    assert {e.kind for e in events} == set(EVENT_KINDS)
    parsed = events_from_jsonl(events_to_jsonl(events))
    assert [type(e) for e in parsed] == [type(e) for e in events]
    assert [e.to_dict() for e in parsed] == [
        e.to_dict() for e in events
    ]


def test_stamped_events_round_trip_with_run_id_and_seq():
    events = [
        dataclasses.replace(e, run_id="s42/1", seq=i)
        for i, e in enumerate(sample_events())
    ]
    parsed = events_from_jsonl(events_to_jsonl(events))
    assert [(e.run_id, e.seq) for e in parsed] == [
        ("s42/1", i) for i in range(len(events))
    ]
    assert [e.to_dict() for e in parsed] == [
        e.to_dict() for e in events
    ]


def test_unstamped_to_dict_omits_run_id_and_seq():
    doc = HostDead(time=1500, host="h2", missed=3).to_dict()
    assert "run_id" not in doc and "seq" not in doc
    assert doc == {
        "kind": "host-dead", "time": 1500, "run": None,
        "host": "h2", "missed": 3,
    }


def test_event_from_dict_rejects_garbage():
    with pytest.raises(RuntimeSimulationError, match="unknown"):
        event_from_dict({"kind": "nope", "time": 1})
    with pytest.raises(RuntimeSimulationError, match="malformed"):
        event_from_dict({"kind": "host-dead", "bogus": 1})
    with pytest.raises(ReproError):
        events_from_jsonl("not json\n")
    with pytest.raises(ReproError):
        events_from_jsonl("[1, 2]\n")


def test_resilient_run_stamps_run_id_and_monotonic_seq():
    spec = bound_spec()
    sim = ResilientSimulator(
        spec,
        three_tank_architecture(),
        baseline_implementation(),
        monitor=MonitorConfig(window=50, communicators=("u1", "u2")),
        watchdog=WatchdogConfig(),
        policies=(ReReplicatePolicy(),),
        environment=ThreeTankEnvironment(),
        faults=ScriptedFaults(host_outages={"h2": [(5000, None)]}),
        actuator_communicators=ACTUATORS,
        seed=7,
    )
    result = sim.run(30)
    assert result.events, "scenario must produce events"
    assert all(e.run_id == "s7" for e in result.events)
    assert [e.seq for e in result.events] == list(
        range(len(result.events))
    )
    # Round-trip keeps the stamps.
    parsed = events_from_jsonl(events_to_jsonl(result.events))
    assert [e.to_dict() for e in parsed] == [
        e.to_dict() for e in result.events
    ]


# ----------------------------------------------------------------------
# Run-id derivation.
# ----------------------------------------------------------------------


def test_derive_run_id_from_int_none_and_seedsequence():
    assert derive_run_id(None) == "s-"
    assert derive_run_id(42) == "s42"
    assert derive_run_id(np.random.SeedSequence(42)) == "s42"
    child = np.random.SeedSequence(42).spawn(3)[2]
    assert derive_run_id(child) == "s42/2"
    # Generators unwrap to their seed sequence.
    assert derive_run_id(np.random.default_rng(child)) == "s42/2"
    assert derive_run_id(np.random.default_rng(7)) == "s7"


def test_batch_and_direct_construction_agree_on_run_id():
    children = np.random.SeedSequence(5).spawn(4)
    for k, child in enumerate(children):
        assert derive_run_id(np.random.default_rng(child)) == f"s5/{k}"


# ----------------------------------------------------------------------
# Tracer: span structure and exporters.
# ----------------------------------------------------------------------


def fixed_clock(step=0.001):
    state = {"t": 0.0}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


def test_trace_event_dict_shapes():
    span = TraceEvent(name="a", cat="c", ph="X", ts=1.0, dur=2.0)
    doc = span.to_dict()
    assert doc["dur"] == 2.0 and "s" not in doc
    instant = TraceEvent(name="b", cat="c", ph="i", ts=1.0)
    doc = instant.to_dict()
    assert doc["s"] == "t" and "dur" not in doc
    meta = TraceEvent(name="m", cat="_", ph="M", ts=0.0)
    doc = meta.to_dict()
    assert "dur" not in doc and "s" not in doc


def test_tracer_builds_balanced_spans_from_engine_hooks():
    iterations = 5
    tracer = Tracer(run_id="s3", clock=fixed_clock())
    Simulator(
        bound_spec(),
        three_tank_architecture(),
        baseline_implementation(),
        sinks=(tracer,),
        **run_kwargs(),
    ).run(iterations)
    doc = tracer.to_chrome()
    assert tracer._stack == []  # every span closed
    events = doc["traceEvents"]
    assert doc["otherData"]["run_id"] == "s3"
    spans = [e for e in events if e["ph"] == "X"]
    run_spans = [e for e in spans if e["cat"] == "run"]
    assert len(run_spans) == 1
    iteration_spans = [e for e in spans if e["cat"] == "iteration"]
    assert len(iteration_spans) == iterations
    assert [s["args"]["iteration"] for s in iteration_spans] == list(
        range(iterations)
    )
    release_spans = [e for e in spans if e["cat"] == "task"]
    assert len(release_spans) == iterations * len(
        bound_spec().tasks
    )
    for event in events:
        assert {"name", "cat", "ph", "ts", "pid", "tid"} <= set(event)
        if event["ph"] == "X":
            assert event["dur"] >= 0.0
    # Instants carry logical time.
    votes = [
        e for e in events if e["ph"] == "i" and e["cat"] == "vote"
    ]
    assert votes and all("instant" in v["args"] for v in votes)


def test_tracer_jsonl_parses_line_by_line():
    tracer = Tracer(clock=fixed_clock())
    with tracer.span("work", cat="test", n=1):
        tracer.instant("tick", cat="test")
    lines = tracer.to_jsonl().splitlines()
    docs = [json.loads(line) for line in lines]
    assert [d["ph"] for d in docs] == ["M", "i", "X"]


def test_tracer_records_resilience_events_as_instants():
    tracer = Tracer(clock=fixed_clock())
    for event in sample_events():
        tracer.on_event(event)
    instants = [e for e in tracer.events if e.ph == "i"]
    assert [e.name for e in instants] == [
        e.kind for e in sample_events()
    ]
    assert all(e.cat == "resilience" for e in instants)


# ----------------------------------------------------------------------
# Seed contract: telemetry on == telemetry off, bit for bit.
# ----------------------------------------------------------------------


def test_scalar_results_identical_with_and_without_telemetry():
    def run(sinks):
        return Simulator(
            bound_spec(),
            three_tank_architecture(),
            baseline_implementation(),
            sinks=sinks,
            **run_kwargs(seed=11),
        ).run(10)

    plain = run(())
    traced = run((Tracer(), MetricsSink(), NullSink()))
    assert plain.values == traced.values
    assert plain.replica_attempts == traced.replica_attempts
    assert plain.replica_failures == traced.replica_failures


def test_batch_results_identical_with_and_without_profiler():
    spec = three_tank_spec(lrc_u=0.99)
    arch = three_tank_architecture()
    impl = baseline_implementation()

    def run(profiler):
        batch = BatchSimulator(
            spec, arch, impl, faults=BernoulliFaults(arch), seed=9,
            profiler=profiler,
        )
        return batch.run_batch(6, 15)

    plain = run(None)
    profiler = StageProfiler()
    profiled = run(profiler)
    for name in plain.reliable_counts:
        assert np.array_equal(
            plain.reliable_counts[name], profiled.reliable_counts[name]
        )
    stages = {span["name"] for span in profiler.spans}
    assert {"plan-compile", "fault-precompute", "propagate"} <= stages


def test_resilient_results_identical_with_and_without_telemetry():
    def run(telemetry):
        return ResilientSimulator(
            bound_spec(),
            three_tank_architecture(),
            baseline_implementation(),
            monitor=MonitorConfig(
                window=50, communicators=("u1", "u2")
            ),
            watchdog=WatchdogConfig(),
            policies=(ReReplicatePolicy(),),
            environment=ThreeTankEnvironment(),
            faults=ScriptedFaults(host_outages={"h2": [(5000, None)]}),
            actuator_communicators=ACTUATORS,
            seed=7,
            telemetry=telemetry,
        ).run(30)

    bus = TelemetryBus(run_id="s7", sinks=(Tracer(), MetricsSink()))
    plain = run(None)
    observed = run(bus)
    assert plain.values == observed.values
    assert [e.to_dict() for e in plain.events] == [
        e.to_dict() for e in observed.events
    ]
    # The bus saw the same correlated stream.
    assert [e.to_dict() for e in bus] == [
        e.to_dict() for e in plain.events
    ]


def test_resilient_batch_unchanged_by_stamping_contract():
    spec = bound_spec()
    arch = three_tank_architecture()
    batch = resilient_batch(
        spec, arch, baseline_implementation(), 2, 20, seed=42,
        environment_factory=ThreeTankEnvironment,
        faults=ScriptedFaults(host_outages={"h2": [(5000, None)]}),
        actuator_communicators=ACTUATORS,
        monitor=MonitorConfig(window=50, communicators=("u1", "u2")),
        watchdog=WatchdogConfig(),
        policies=(ReReplicatePolicy(),),
    )
    for k in range(2):
        for event in batch.monitor_events_for_run(k):
            assert event.run_id == f"s42/{k}"
    # Merged stream sorts deterministically by (run_id, seq).
    ordered = sorted(
        batch.monitor_events, key=lambda e: (e.run_id, e.seq)
    )
    assert [e.to_dict() for e in ordered] == [
        e.to_dict()
        for k in range(2)
        for e in batch.monitor_events_for_run(k)
    ]


# ----------------------------------------------------------------------
# The sink protocol.
# ----------------------------------------------------------------------


class RecordingSink(InstrumentationSink):
    def __init__(self):
        self.calls = []

    def on_run_start(self, start_time, iterations, period):
        self.calls.append(("run_start", start_time, iterations))

    def on_iteration_start(self, iteration, time):
        self.calls.append(("iteration", iteration))

    def on_run_end(self, time):
        self.calls.append(("run_end", time))


def test_sinks_receive_run_framing():
    sink = RecordingSink()
    Simulator(
        bound_spec(),
        three_tank_architecture(),
        baseline_implementation(),
        sinks=(sink,),
        **run_kwargs(),
    ).run(3)
    assert sink.calls[0] == ("run_start", 0, 3)
    assert [c for c in sink.calls if c[0] == "iteration"] == [
        ("iteration", i) for i in range(3)
    ]
    assert sink.calls[-1][0] == "run_end"


def test_monitor_is_a_sink_and_on_access_delegates():
    spec = three_tank_spec(lrc_u=0.99)
    config = MonitorConfig(window=5, alarm_below={"u1": 0.9})
    via_observe = LrcMonitor(spec, config)
    via_hook = LrcMonitor(spec, config)
    assert isinstance(via_hook, InstrumentationSink)
    for i in range(5):
        via_observe.observe("u1", i, False)
        via_hook.on_access("u1", i, False)
    assert [e.to_dict() for e in via_hook.events] == [
        e.to_dict() for e in via_observe.events
    ]
    assert via_hook.events  # the all-failures window alarms


def test_hook_sinks_filter_to_overriding_subscribers():
    from repro.telemetry import HOOK_NAMES, HookSinks, sinks_for_hook

    recording = RecordingSink()
    null = NullSink()
    tracer = Tracer()
    hooks = HookSinks((recording, null, tracer))
    # NullSink overrides nothing: it appears in no dispatch table.
    for name in HOOK_NAMES:
        assert null not in getattr(hooks, name)
    assert sinks_for_hook((recording, tracer), "on_access") == (tracer,)
    assert hooks.on_run_start == (recording, tracer)
    assert hooks.on_sensor_update == (tracer,)
    empty = HookSinks()
    assert all(getattr(empty, name) == () for name in HOOK_NAMES)


def test_null_sink_accepts_every_hook():
    sink = NullSink()
    sink.on_run_start(0, 1, 100)
    sink.on_iteration_start(0, 0)
    sink.on_sensor_update("s1", 0, True)
    sink.on_access("u1", 0, True)
    sink.on_release_start("t1", 0, 0)
    sink.on_replica("t1", "h1", 0, 0, True)
    sink.on_release_end("t1", 0, 0)
    sink.on_commit("t1", "u1", 0, 100, 2, True)
    sink.on_event(sample_events()[0])
    sink.on_run_end(100)


# ----------------------------------------------------------------------
# Metrics registry and exposition.
# ----------------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    counter = registry.counter("c_total", help="c")
    counter.inc()
    counter.inc(2.0)
    assert counter.value == 3.0
    with pytest.raises(ValueError, match="increase"):
        counter.inc(-1)
    registry.gauge("g", {"x": "1"}).set(0.5)
    hist = registry.histogram("h", buckets=(1.0, 10.0))
    hist.observe(0.5)
    hist.observe(5.0)
    hist.observe(50.0)
    assert hist.count == 3 and hist.sum == 55.5
    assert hist.counts == [1, 1, 1]
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("c_total")


def test_snapshot_is_stable_and_json_safe():
    registry = MetricsRegistry()
    registry.counter("b_total", {"z": "2"}).inc()
    registry.counter("b_total", {"a": "1"}).inc()
    registry.counter("a_total").inc()
    snap = registry.snapshot()
    assert list(snap) == ["a_total", "b_total"]
    assert json.loads(json.dumps(snap)) == snap
    labels = [s["labels"] for s in snap["b_total"]["series"]]
    assert labels == [{"a": "1"}, {"z": "2"}]


def test_prometheus_exposition_format():
    registry = MetricsRegistry()
    registry.counter(
        "repro_accesses_total",
        {"communicator": 'u"1'},
        help="Accesses.",
    ).inc(3)
    registry.histogram("repro_latency", buckets=(1.0, 5.0)).observe(2.0)
    text = registry.to_prometheus()
    assert "# HELP repro_accesses_total Accesses." in text
    assert "# TYPE repro_accesses_total counter" in text
    assert 'communicator="u\\"1"' in text  # quote escaping
    assert 'repro_latency_bucket{le="1.0"} 0' in text
    assert 'repro_latency_bucket{le="5.0"} 1' in text
    assert 'repro_latency_bucket{le="+Inf"} 1' in text
    assert "repro_latency_sum 2.0" in text
    assert "repro_latency_count 1" in text


def test_metrics_sink_fills_catalog_from_a_run():
    sink = MetricsSink()
    Simulator(
        bound_spec(),
        three_tank_architecture(),
        baseline_implementation(),
        sinks=(sink,),
        **run_kwargs(),
    ).run(4)
    snap = sink.registry.snapshot()
    assert snap["repro_iterations_total"]["series"][0]["value"] == 4.0
    assert "repro_accesses_total" in snap
    assert "repro_sensor_updates_total" in snap
    assert "repro_votes_total" in snap
    assert "repro_replica_broadcasts_total" in snap
    rates = snap["repro_reliable_write_rate"]["series"]
    assert all(0.0 <= s["value"] <= 1.0 for s in rates)


def test_metrics_sink_classifies_resilience_events():
    sink = MetricsSink()
    sink.on_run_start(0, 10, 100)
    for event in sample_events():
        sink.on_event(event)
    snap = sink.registry.snapshot()
    kinds = {
        s["labels"]["kind"]: s["value"]
        for s in snap["repro_resilience_events_total"]["series"]
    }
    assert kinds == {kind: 1.0 for kind in EVENT_KINDS}
    assert snap["repro_hosts_suspected_total"]["series"][0]["value"] == 1.0
    assert snap["repro_hosts_dead_total"]["series"][0]["value"] == 1.0
    outcomes = {
        s["labels"]["outcome"]: s["value"]
        for s in snap["repro_recoveries_total"]["series"]
    }
    assert outcomes == {"committed": 1.0, "failed": 1.0}
    latency = snap["repro_detection_latency"]["series"][0]["value"]
    assert latency["count"] == 1 and latency["sum"] == 400.0


def test_record_batch_result_and_margins():
    spec = three_tank_spec(lrc_u=0.99)
    arch = three_tank_architecture()
    batch = BatchSimulator(
        spec, arch, baseline_implementation(),
        faults=BernoulliFaults(arch), seed=1,
    ).run_batch(3, 10)
    registry = MetricsRegistry()
    record_batch_result(registry, batch, elapsed_seconds=0.5)
    snap = registry.snapshot()
    assert snap["repro_batch_runs"]["series"][0]["value"] == 3.0
    assert snap["repro_batch_throughput"]["series"][0]["value"] == 6.0
    record_margins(registry, {"u1": (0.997, 0.99)})
    snap = registry.snapshot()
    assert snap["repro_srg_lrc_margin"]["series"][0][
        "value"
    ] == pytest.approx(0.007)


def test_metrics_dashboard_renders():
    registry = MetricsRegistry()
    assert "empty" in render_metrics_dashboard(registry.snapshot())
    registry.counter("repro_iterations_total").inc(5)
    registry.gauge(
        "repro_reliable_write_rate", {"communicator": "u1"},
        unit="ratio",
    ).set(0.75)
    registry.histogram("repro_latency").observe(3.0)
    text = render_metrics_dashboard(registry.snapshot())
    assert "repro_iterations_total" in text
    assert "communicator=u1" in text
    assert "#" in text  # the gauge bar
    assert "n=1" in text


# ----------------------------------------------------------------------
# Stage profiler.
# ----------------------------------------------------------------------


def test_profiler_accumulates_stages():
    profiler = StageProfiler(clock=fixed_clock(step=1.0))
    assert "no stages" in profiler.render()
    with profiler.stage("a"):
        pass
    with profiler.stage("a", shard=1):
        pass
    with profiler.stage("b"):
        pass
    assert profiler.spans == [
        {"name": "a", "started_at": 1.0, "duration_s": 1.0},
        {"name": "a", "started_at": 3.0, "duration_s": 1.0, "shard": 1},
        {"name": "b", "started_at": 5.0, "duration_s": 1.0},
    ]
    # A worker's spans fold in; its shard envelope stays off the table.
    profiler.extend(
        [
            {"name": "b", "started_at": 7.0, "duration_s": 2.0},
            {"name": "shard", "started_at": 7.0, "duration_s": 3.0},
        ]
    )
    lines = profiler.render().splitlines()
    assert lines[0] == "stage profile (wall seconds)"
    assert lines[1].split() == ["a", "2.000000s", "x2", "40.0%"]
    assert lines[2].split() == ["b", "3.000000s", "x2", "60.0%"]
    assert lines[3].split() == ["total", "5.000000s"]
    assert len(lines) == 4


def test_null_profiler_is_inert_and_shared():
    assert NULL_PROFILER.enabled is False
    assert isinstance(NULL_PROFILER, NullProfiler)
    timer_a = NULL_PROFILER.stage("x")
    timer_b = NULL_PROFILER.stage("y")
    assert timer_a is timer_b  # shared no-op timer, no allocation
    with timer_a:
        pass
    NULL_PROFILER.record("x", 0.0, 1.0)
    NULL_PROFILER.extend([{"name": "y", "started_at": 0.0,
                           "duration_s": 1.0}])
    assert NULL_PROFILER.spans == []


# ----------------------------------------------------------------------
# Telemetry bus.
# ----------------------------------------------------------------------


def test_bus_fans_events_to_sinks():
    received = []

    class Probe(InstrumentationSink):
        def on_event(self, event):
            received.append(event.kind)

    bus = TelemetryBus(run_id="s1", sinks=(Probe(),))
    events = sample_events()
    bus.append(events[0])
    bus.extend(events[1:3])
    bus.extend(events[3:])
    assert len(bus) == len(events)
    assert [e.kind for e in bus] == [e.kind for e in events]
    assert received == [e.kind for e in events]
    assert len(bus.sinks) == 1


# ----------------------------------------------------------------------
# Trace files and the summarizer.
# ----------------------------------------------------------------------


def traced_run(tmp_path, fmt="chrome"):
    tracer = Tracer(run_id="s3", clock=fixed_clock())
    Simulator(
        bound_spec(),
        three_tank_architecture(),
        baseline_implementation(),
        sinks=(tracer,),
        **run_kwargs(),
    ).run(4)
    path = tmp_path / ("t.jsonl" if fmt == "jsonl" else "t.json")
    with open(path, "w") as handle:
        if fmt == "jsonl":
            tracer.write_jsonl(handle)
        else:
            tracer.write_chrome(handle)
    return path


@pytest.mark.parametrize("fmt", ["chrome", "jsonl"])
def test_load_trace_file_both_formats(tmp_path, fmt):
    events = load_trace_file(traced_run(tmp_path, fmt))
    summary = summarize_trace(events)
    assert summary.run_id == "s3"
    assert summary.spans and summary.instants
    assert summary.critical_iteration is not None
    text = render_summary(summary, top=3)
    assert "trace summary" in text
    assert "run id            s3" in text


def test_load_trace_file_error_cases(tmp_path):
    with pytest.raises(ReproError, match="cannot read"):
        load_trace_file(tmp_path / "missing.json")
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(ReproError, match="empty"):
        load_trace_file(empty)
    malformed = tmp_path / "bad.jsonl"
    malformed.write_text('{"ph": "i"}\nnot json\n')
    with pytest.raises(ReproError, match="line 2"):
        load_trace_file(malformed)
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"notTraceEvents": []}')
    with pytest.raises(ReproError, match="traceEvents"):
        load_trace_file(wrong)
    scalar_doc = tmp_path / "scalar.json"
    scalar_doc.write_text("42")
    with pytest.raises(ReproError, match="not a trace-event"):
        load_trace_file(scalar_doc)
    non_object = tmp_path / "items.json"
    non_object.write_text("[1, 2]")
    with pytest.raises(ReproError, match="non-object"):
        load_trace_file(non_object)


def test_summarize_trace_ranks_unreliable_writes():
    events = [
        {"ph": "X", "cat": "iteration", "name": "iteration 0",
         "ts": 0.0, "dur": 5.0, "args": {"iteration": 0}},
        {"ph": "X", "cat": "iteration", "name": "iteration 1",
         "ts": 5.0, "dur": 9.0, "args": {"iteration": 1}},
        {"ph": "i", "cat": "access", "ts": 1.0,
         "args": {"communicator": "u1", "reliable": False}},
        {"ph": "i", "cat": "access", "ts": 2.0,
         "args": {"communicator": "u1", "reliable": False}},
        {"ph": "i", "cat": "vote", "ts": 3.0,
         "args": {"communicator": "r2", "reliable": False}},
        {"ph": "i", "cat": "access", "ts": 4.0,
         "args": {"communicator": "l1", "reliable": True}},
        {"ph": "i", "cat": "resilience", "name": "lrc-alarm",
         "ts": 5.0, "args": {"kind": "lrc-alarm"}},
    ]
    summary = summarize_trace(events)
    assert summary.critical_iteration == (1, 9.0)
    assert summary.unreliable_writes == [("u1", 2), ("r2", 1)]
    assert summary.resilience_kinds == {"lrc-alarm": 1}
    text = render_summary(summary)
    assert "unreliable writes" in text
    assert "lrc-alarm" in text


# ----------------------------------------------------------------------
# Histogram percentiles and the dashboard (ISSUE 5 satellites).
# ----------------------------------------------------------------------


def test_empty_histogram_percentiles_are_zero():
    hist = Histogram(buckets=(1.0, 10.0))
    assert hist.percentile(0.5) == 0.0
    assert hist.percentiles() == {"p50": 0.0, "p90": 0.0, "p99": 0.0}


def test_single_bucket_percentiles_interpolate():
    hist = Histogram(buckets=(10.0,))
    for _ in range(5):
        hist.observe(4.0)
    # All mass in [0, 10): ranks interpolate linearly inside it.
    assert hist.percentile(0.5) == pytest.approx(5.0)
    assert hist.percentile(1.0) == pytest.approx(10.0)
    assert hist.percentiles()["p99"] == pytest.approx(9.9)


def test_overflow_percentiles_report_last_finite_bound():
    hist = Histogram(buckets=(1.0, 10.0))
    hist.observe(0.5)
    for _ in range(9):
        hist.observe(500.0)  # overflow bucket
    # The histogram cannot resolve beyond its largest bound.
    assert hist.percentile(0.99) == 10.0
    with pytest.raises(ValueError, match="quantile"):
        hist.percentile(1.5)


def test_snapshot_and_dashboard_show_percentiles():
    registry = MetricsRegistry()
    hist = registry.histogram("repro_latency", buckets=(1.0, 10.0))
    for value in (0.5, 2.0, 4.0, 8.0):
        hist.observe(value)
    snap = registry.snapshot()
    series = snap["repro_latency"]["series"][0]["value"]
    expected = hist.percentiles()
    assert series["percentiles"] == expected
    text = render_metrics_dashboard(snap)
    assert f"p50={expected['p50']:.3f}" in text
    assert f"p90={expected['p90']:.3f}" in text
    assert f"p99={expected['p99']:.3f}" in text


# ----------------------------------------------------------------------
# Prometheus label-value escaping (ISSUE 5 satellite).
# ----------------------------------------------------------------------


def _parse_prometheus_label(text, metric, label):
    """Minimal spec-compliant parse of one label value."""
    import re

    for line in text.splitlines():
        if not line.startswith(metric + "{"):
            continue
        match = re.search(label + r'="((?:[^"\\]|\\.)*)"', line)
        assert match, line
        return re.sub(
            r"\\(.)",
            lambda m: {"n": "\n"}.get(m.group(1), m.group(1)),
            match.group(1),
        )
    raise AssertionError(f"no sample of {metric} in:\n{text}")


@pytest.mark.parametrize(
    "value",
    [
        'plain"quote',
        "back\\slash",
        "multi\nline",
        'all\\three\n"together"\\n',
    ],
)
def test_prometheus_label_values_round_trip(value):
    registry = MetricsRegistry()
    registry.counter("repro_x_total", {"communicator": value}).inc()
    text = registry.to_prometheus()
    # Escaped samples stay one-per-line (newlines never leak through).
    sample_lines = [
        line
        for line in text.splitlines()
        if line.startswith("repro_x_total{")
    ]
    assert len(sample_lines) == 1
    parsed = _parse_prometheus_label(
        text, "repro_x_total", "communicator"
    )
    assert parsed == value


# ----------------------------------------------------------------------
# The per-sensor outcome hook (ISSUE 5 tentpole wiring).
# ----------------------------------------------------------------------


class _SensorProbe(InstrumentationSink):
    def __init__(self):
        self.stream = []

    def on_sensor_outcome(self, communicator, time, sensor, ok):
        self.stream.append(("outcome", communicator, time, sensor, ok))

    def on_sensor_update(self, communicator, time, delivered):
        self.stream.append(("update", communicator, time, delivered))


def test_sensor_outcomes_precede_each_aggregate_update():
    probe = _SensorProbe()
    Simulator(
        bound_spec(),
        three_tank_architecture(),
        scenario2_implementation(),  # two sensors per communicator
        sinks=(probe,),
        environment=ThreeTankEnvironment(),
        faults=ScriptedFaults(sensor_outages={"sen1": [(0, None)]}),
        actuator_communicators=ACTUATORS,
        seed=3,
    ).run(4)
    updates = [e for e in probe.stream if e[0] == "update"]
    assert updates
    index = 0
    for kind, comm, time, delivered in updates:
        outcomes = []
        while probe.stream[index][0] == "outcome":
            outcomes.append(probe.stream[index])
            index += 1
        assert probe.stream[index] == (kind, comm, time, delivered)
        index += 1
        # Per-sensor outcomes for the same instant, in sorted order.
        assert [o[1:3] for o in outcomes] == [(comm, time)] * len(outcomes)
        sensors = [o[3] for o in outcomes]
        assert sensors == sorted(sensors) and len(sensors) == 2
        # The aggregate is the OR of the per-sensor deliveries.
        assert delivered == any(o[4] for o in outcomes)
        if comm == "s1":
            oks = dict((o[3], o[4]) for o in outcomes)
            assert oks["sen1"] is False  # scripted outage
    assert index == len(probe.stream)


def test_null_sink_accepts_sensor_outcome():
    from repro.telemetry import HOOK_NAMES

    assert "on_sensor_outcome" in HOOK_NAMES
    NullSink().on_sensor_outcome("s1", 0, "sen1", True)  # no-op


# ----------------------------------------------------------------------
# Merged event streams on the bus (ISSUE 5 satellite).
# ----------------------------------------------------------------------


def resilient_unplug_run(telemetry=None, seed=7, iterations=30):
    return ResilientSimulator(
        bound_spec(),
        three_tank_architecture(),
        baseline_implementation(),
        monitor=MonitorConfig(window=20, communicators=("u1", "u2")),
        watchdog=WatchdogConfig(),
        environment=ThreeTankEnvironment(),
        faults=ScriptedFaults(host_outages={"h2": [(5000, None)]}),
        actuator_communicators=ACTUATORS,
        seed=seed,
        telemetry=telemetry,
    ).run(iterations)


def test_bus_merges_streams_with_monotonic_seq():
    tracer = Tracer(run_id="s7", clock=fixed_clock())
    bus = TelemetryBus(run_id="s7", sinks=(tracer, MetricsSink()))
    resilient_unplug_run(telemetry=bus)
    events = list(bus)
    assert events
    # Monitor and watchdog streams merged: more than one kind.
    assert len({e.kind for e in events}) > 1
    # One run: a single correlation key, strictly monotonic seq.
    assert {e.run_id for e in events} == {derive_run_id(7)}
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
    # The tracer saw the same merged stream as correlated instants.
    instants = [
        e for e in tracer.to_chrome()["traceEvents"]
        if e.get("cat") == "resilience"
    ]
    assert [i["args"]["seq"] for i in instants] == seqs


def test_merged_stream_ordering_survives_jsonl_round_trip():
    bus = TelemetryBus(run_id="s7", sinks=())
    resilient_unplug_run(telemetry=bus)
    events = list(bus)
    parsed = events_from_jsonl(events_to_jsonl(events))
    assert parsed == events
    # Emission order IS (run_id, seq) order: a stable re-sort of the
    # serialised stream reproduces the original ordering exactly.
    resorted = sorted(parsed, key=lambda e: (e.run_id, e.seq))
    assert resorted == events


def test_batch_streams_keep_per_run_seq_monotonic():
    batch = resilient_batch(
        bound_spec(),
        three_tank_architecture(),
        baseline_implementation(),
        3,
        20,
        seed=42,
        environment_factory=ThreeTankEnvironment,
        faults=ScriptedFaults(host_outages={"h2": [(5000, None)]}),
        actuator_communicators=ACTUATORS,
        monitor=MonitorConfig(window=20, communicators=("u1", "u2")),
        watchdog=WatchdogConfig(),
    )
    events = list(batch.monitor_events)
    assert events
    by_run = {}
    for event in events:
        by_run.setdefault(event.run, []).append(event)
    assert len(by_run) == 3  # every run alarms after the unplug
    for stream in by_run.values():
        seqs = [e.seq for e in stream]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        assert len({e.run_id for e in stream}) == 1
    # Stable ordering across the JSONL round-trip, per run and merged.
    parsed = events_from_jsonl(events_to_jsonl(events))
    assert parsed == events
