"""Tests for the resilience layer: monitor, watchdog, recovery."""

import json

import numpy as np
import pytest

from repro.errors import RuntimeSimulationError
from repro.experiments import (
    ACTUATORS,
    baseline_implementation,
    bind_control_functions,
    detect_and_recover,
    scenario1_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.experiments.three_tank_system import (
    CONTROL_PERIOD_MS,
    ThreeTankEnvironment,
)
from repro.mapping import Implementation
from repro.resilience import (
    DegradePolicy,
    HostDead,
    HostFailureDetector,
    HostRecovered,
    HostStatus,
    HostSuspected,
    LrcAlarm,
    LrcClear,
    LrcMonitor,
    MonitorConfig,
    RecoveryCommitted,
    RecoveryContext,
    RecoveryFailed,
    ReReplicatePolicy,
    ResilientSimulator,
    WatchdogConfig,
    batch_monitor_events,
    events_to_jsonl,
    first_applicable,
    resilient_batch,
)
from repro.resilience.monitor import monitor_events_from_failures
from repro.runtime import (
    BatchSimulator,
    BernoulliFaults,
    ScriptedFaults,
    Simulator,
)


# ----------------------------------------------------------------------
# Monitor configuration.
# ----------------------------------------------------------------------


def simple_spec():
    return three_tank_spec()


def test_monitor_config_validation():
    with pytest.raises(RuntimeSimulationError, match="window"):
        MonitorConfig(window=0)
    with pytest.raises(RuntimeSimulationError, match="hysteresis"):
        MonitorConfig(hysteresis=-0.1)


def test_monitor_thresholds_default_to_lrc():
    spec = simple_spec()
    thresholds = MonitorConfig(window=10).thresholds(spec)
    for name, (alarm, clear) in thresholds.items():
        assert alarm == spec.communicators[name].lrc
        assert clear == alarm  # zero hysteresis


def test_monitor_thresholds_hysteresis_and_overrides():
    spec = simple_spec()
    config = MonitorConfig(
        window=10, hysteresis=0.05, alarm_below={"u1": 0.8}
    )
    alarm, clear = config.thresholds(spec)["u1"]
    assert alarm == 0.8
    assert clear == pytest.approx(0.85)


def test_monitor_rejects_clear_below_alarm():
    config = MonitorConfig(
        alarm_below={"u1": 0.9}, clear_above={"u1": 0.8}
    )
    with pytest.raises(RuntimeSimulationError, match="clear threshold"):
        config.thresholds(simple_spec())


def test_monitor_rejects_unknown_communicator():
    config = MonitorConfig(communicators=("nope",))
    with pytest.raises(RuntimeSimulationError, match="unknown"):
        config.thresholds(simple_spec())


# ----------------------------------------------------------------------
# Scalar monitor semantics.
# ----------------------------------------------------------------------


def feed(monitor, name, bits, start=0):
    for i, bit in enumerate(bits):
        monitor.observe(name, start + i, bool(bit))


def test_monitor_silent_until_full_window():
    monitor = LrcMonitor(
        simple_spec(),
        MonitorConfig(window=5, alarm_below={"u1": 0.9}),
    )
    feed(monitor, "u1", [0, 0, 0, 0])  # four failures, window 5
    assert monitor.events == []
    assert monitor.rate("u1") is None
    monitor.observe("u1", 4, False)
    assert [type(e) for e in monitor.events] == [LrcAlarm]
    assert monitor.rate("u1") == 0.0


def test_monitor_alarm_latches_and_clears_with_hysteresis():
    monitor = LrcMonitor(
        simple_spec(),
        MonitorConfig(
            window=4,
            alarm_below={"u1": 0.75},
            clear_above={"u1": 1.0},
        ),
    )
    # Window fills reliable, then one failure drops the rate to 0.75:
    # not < 0.75, no alarm.  A second failure (0.5) alarms; the alarm
    # stays latched while the rate is 0.75 and clears only at 1.0.
    feed(monitor, "u1", [1, 1, 1, 1, 0])
    assert monitor.events == []
    monitor.observe("u1", 5, False)
    assert monitor.alarmed("u1")
    assert monitor.active_alarms() == ["u1"]
    feed(monitor, "u1", [1, 1, 1], start=6)  # rates 0.5, 0.75, 0.75
    assert monitor.alarmed("u1")
    monitor.observe("u1", 9, True)  # rate 1.0 -> clear
    assert not monitor.alarmed("u1")
    kinds = [e.kind for e in monitor.events]
    assert kinds == ["lrc-alarm", "lrc-clear"]
    clear = monitor.events[-1]
    assert clear.time == 9
    assert clear.rate == 1.0


def test_monitor_ignores_unwatched_communicators():
    monitor = LrcMonitor(
        simple_spec(),
        MonitorConfig(window=2, communicators=("u1",)),
    )
    assert monitor.watches("u1")
    assert not monitor.watches("l1")
    feed(monitor, "l1", [0, 0, 0, 0])
    assert monitor.events == []


def test_events_serialise_to_jsonl():
    event = LrcAlarm(
        time=1200, communicator="u1", rate=0.9, threshold=0.99, window=50
    )
    lines = events_to_jsonl([event, HostDead(time=1500, host="h2", missed=3)])
    docs = [json.loads(line) for line in lines.splitlines()]
    assert docs[0]["kind"] == "lrc-alarm"
    assert docs[0]["communicator"] == "u1"
    assert docs[0]["run"] is None
    assert docs[1] == {
        "kind": "host-dead", "time": 1500, "run": None,
        "host": "h2", "missed": 3,
    }


# ----------------------------------------------------------------------
# Sparse batch monitor == dense batch monitor == scalar monitor.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "alarm,clear",
    [(0.7, 0.9), (0.9, 0.9), (0.999, 1.0), (0.5, 1.5)],
    ids=["margin", "no-hyst", "hair-trigger", "unclearable"],
)
def test_sparse_monitor_matches_dense_and_scalar(seed, alarm, clear):
    rng = np.random.default_rng(seed)
    runs, samples, window = 5, 120, 9
    status = rng.random((runs, samples)) > 0.15
    times = np.arange(samples, dtype=np.int64) * 10

    dense = batch_monitor_events(
        "c", status, times, alarm, clear, window
    )
    fail_runs, fail_steps = np.nonzero(~status)
    sparse = monitor_events_from_failures(
        "c", fail_runs, fail_steps, runs, samples, times,
        alarm, clear, window,
    )
    assert [e.to_dict() for e in sparse] == sorted(
        (e.to_dict() for e in dense),
        key=lambda d: (d["run"], d["time"], d["kind"] == "lrc-clear"),
    )

    # And both match the stateful scalar monitor, run by run.
    spec = three_tank_spec()
    for run in range(runs):
        scalar = LrcMonitor(
            spec,
            MonitorConfig(
                window=window,
                alarm_below={"u1": alarm},
                clear_above={"u1": min(clear, 1.0)}
                if clear <= 1.0
                else {"u1": clear},
                communicators=("u1",),
            ),
        )
        for step in range(samples):
            scalar.observe("u1", int(times[step]), bool(status[run, step]))
        expected = [
            {**e.to_dict(), "communicator": "c", "run": run}
            for e in scalar.events
        ]
        got = [e.to_dict() for e in sparse if e.run == run]
        assert got == expected


def test_sparse_monitor_rejects_trivial_alarm():
    with pytest.raises(RuntimeSimulationError, match="alarm"):
        monitor_events_from_failures(
            "c",
            np.array([0]), np.array([0]),
            1, 10, np.arange(10), 1.5, 2.0, 4,
        )


def test_sparse_monitor_no_failures_no_events():
    events = monitor_events_from_failures(
        "c",
        np.array([], dtype=np.int64), np.array([], dtype=np.int64),
        3, 50, np.arange(50), 0.9, 0.95, 10,
    )
    assert events == []


# ----------------------------------------------------------------------
# The host-failure watchdog.
# ----------------------------------------------------------------------


def test_watchdog_config_validation():
    with pytest.raises(RuntimeSimulationError, match="suspect_after"):
        WatchdogConfig(suspect_after=0)
    assert WatchdogConfig().detection_periods == 3


def test_detector_state_machine():
    detector = HostFailureDetector(
        ["h1", "h2"], WatchdogConfig(suspect_after=2, confirm_after=1)
    )
    detector.observe("h1", 500, heard=True)
    detector.observe("h1", 1000, heard=False)
    assert detector.status("h1") is HostStatus.ALIVE
    detector.observe("h1", 1500, heard=False)
    assert detector.status("h1") is HostStatus.SUSPECTED
    assert detector.suspected_hosts() == {"h1"}
    detector.observe("h1", 2000, heard=False)
    assert detector.status("h1") is HostStatus.DEAD
    assert detector.dead_hosts() == {"h1"}
    kinds = [e.kind for e in detector.events]
    assert kinds == ["host-suspected", "host-dead"]
    assert detector.events[-1].missed == 3
    assert detector.events[-1].time == 2000
    # h2 never observed: still alive.
    assert detector.status("h2") is HostStatus.ALIVE


def test_detector_readmission_hysteresis():
    detector = HostFailureDetector(
        ["h1"],
        WatchdogConfig(suspect_after=1, confirm_after=1, readmit_after=2),
    )
    detector.observe("h1", 1, heard=False)
    detector.observe("h1", 2, heard=False)
    assert detector.status("h1") is HostStatus.DEAD
    detector.observe("h1", 3, heard=True)
    assert detector.status("h1") is HostStatus.DEAD  # one heard < 2
    detector.observe("h1", 4, heard=True)
    assert detector.status("h1") is HostStatus.ALIVE
    recovered = [e for e in detector.events if isinstance(e, HostRecovered)]
    assert len(recovered) == 1 and recovered[0].heard == 2


def test_detector_single_miss_does_not_suspect():
    detector = HostFailureDetector(["h1"], WatchdogConfig())
    for time, heard in enumerate([False, True, False, True], start=1):
        detector.observe("h1", time, heard)
    assert detector.events == []
    assert detector.status("h1") is HostStatus.ALIVE


def test_detector_unknown_host_rejected():
    detector = HostFailureDetector(["h1"])
    with pytest.raises(RuntimeSimulationError, match="does not watch"):
        detector.observe("nope", 0, True)
    with pytest.raises(RuntimeSimulationError, match="does not watch"):
        detector.status("nope")
    with pytest.raises(RuntimeSimulationError, match="at least one"):
        HostFailureDetector([])


# ----------------------------------------------------------------------
# Recovery policies.
# ----------------------------------------------------------------------


def make_context(dead, implementation=None, lrc_u=0.99):
    spec = three_tank_spec(lrc_u=lrc_u)
    return RecoveryContext(
        spec=spec,
        arch=three_tank_architecture(),
        implementation=implementation or scenario1_implementation(),
        dead_hosts=frozenset(dead),
        time=5000,
    )


def test_context_pruned_implementation():
    context = make_context({"h2"})
    pruned = context.pruned_implementation()
    assert pruned is not None
    for hosts in pruned.assignment.values():
        assert "h2" not in hosts
    # Killing every host of a task makes pruning impossible.
    every = make_context({"h1", "h2", "h3"})
    assert every.pruned_implementation() is None
    assert every.surviving_architecture() is None


def test_re_replicate_prunes_when_still_reliable():
    # scenario1 replicates t1 on {h1, h2}; with h2 dead the pruned
    # mapping keeps t1 on h1 alone — for the default LRCs that is
    # still reliable, so the minimal repair wins.
    context = make_context({"h2"})
    outcome = ReReplicatePolicy().recover(context)
    assert outcome is not None
    assert outcome.policy == "re-replicate"
    assert not outcome.degraded
    assert outcome.report.reliable
    srgs = outcome.report.srgs()
    for name, comm in context.spec.communicators.items():
        assert srgs[name] >= comm.lrc
    for hosts in outcome.implementation.assignment.values():
        assert "h2" not in hosts


def test_re_replicate_synthesises_when_pruning_impossible():
    # The baseline maps t2 exclusively onto h2, so with h2 dead the
    # minimal repair (pruning) is impossible and the policy must fall
    # back to a full synthesis over the survivors.
    context = make_context(
        {"h2"},
        implementation=baseline_implementation(),
        lrc_u=0.9975,
    )
    assert context.pruned_implementation() is None
    outcome = ReReplicatePolicy().recover(context)
    assert outcome is not None
    assert outcome.report.reliable
    srgs = outcome.report.srgs()
    for name, comm in context.spec.communicators.items():
        assert srgs[name] >= comm.lrc
    for hosts in outcome.implementation.assignment.values():
        assert "h2" not in hosts


def test_re_replicate_gives_up_without_survivors():
    assert ReReplicatePolicy().recover(
        make_context({"h1", "h2", "h3"})
    ) is None


def safe_mode_implementation():
    """A declared safe configuration avoiding h2 entirely."""
    baseline = baseline_implementation()
    return Implementation(
        {task: frozenset({"h3"}) for task in baseline.assignment},
        baseline.sensor_binding,
    )


def test_degrade_policy_verifies_reduced_lrcs():
    policy = DegradePolicy(
        implementation=safe_mode_implementation(),
        lrcs={"u1": 0.9, "u2": 0.9},
    )
    outcome = policy.recover(make_context({"h2"}, lrc_u=0.9975))
    assert outcome is not None
    assert outcome.degraded
    srgs = outcome.report.srgs()
    assert srgs["u1"] >= 0.9 and srgs["u2"] >= 0.9
    # An impossible promise is refused.
    refused = DegradePolicy(
        implementation=safe_mode_implementation(),
        lrcs={"u1": 0.999999999},
    )
    assert refused.recover(make_context({"h2"}, lrc_u=0.9975)) is None


def test_degrade_policy_needs_a_surviving_safe_mapping():
    # The declared safe mapping itself relies on the dead host: no
    # degrade is possible.
    policy = DegradePolicy(
        implementation=baseline_implementation(), lrcs={"u1": 0.9}
    )
    assert policy.recover(make_context({"h2"}, lrc_u=0.9975)) is None


def test_first_applicable_respects_order():
    context = make_context({"h2"}, lrc_u=0.9975)
    degrade = DegradePolicy(
        implementation=safe_mode_implementation(), lrcs={"u1": 0.9}
    )
    outcome = first_applicable([degrade, ReReplicatePolicy()], context)
    assert outcome is not None and outcome.policy == "degrade"
    outcome = first_applicable([ReReplicatePolicy(), degrade], context)
    assert outcome is not None and outcome.policy == "re-replicate"
    assert first_applicable([], context) is None


# ----------------------------------------------------------------------
# The resilient executive.
# ----------------------------------------------------------------------


def resilient_3ts(seed=7, policies=(), iterations=30, **kwargs):
    spec = three_tank_spec(
        lrc_u=0.99, functions=bind_control_functions()
    )
    defaults = dict(
        environment=ThreeTankEnvironment(),
        faults=ScriptedFaults(host_outages={"h2": [(5000, None)]}),
        actuator_communicators=ACTUATORS,
        seed=seed,
        monitor=MonitorConfig(window=50, communicators=("u1", "u2")),
        watchdog=WatchdogConfig(),
        policies=policies,
    )
    defaults.update(kwargs)
    return ResilientSimulator(
        spec,
        three_tank_architecture(),
        baseline_implementation(),
        **defaults,
    )


def test_executive_is_deterministic():
    results = [
        resilient_3ts(
            seed=13,
            policies=(ReReplicatePolicy(),),
            faults=BernoulliFaults(three_tank_architecture()),
        ).run(20)
        for _ in range(2)
    ]
    a, b = results
    assert [e.to_dict() for e in a.events] == [
        e.to_dict() for e in b.events
    ]
    assert a.values == b.values
    assert a.limit_averages() == b.limit_averages()


def test_executive_requires_static_implementation():
    from repro.mapping import TimeDependentImplementation

    timedep = TimeDependentImplementation([baseline_implementation()])
    with pytest.raises(RuntimeSimulationError, match="static"):
        ResilientSimulator(
            three_tank_spec(functions=bind_control_functions()),
            three_tank_architecture(),
            timedep,
        )


def test_executive_rejects_non_positive_iterations():
    with pytest.raises(RuntimeSimulationError, match="positive"):
        resilient_3ts().run(0)


def test_recovery_failed_event_when_no_policy_helps():
    # A degrade promising more than any surviving mapping can deliver
    # leaves the executive without options: RecoveryFailed is logged
    # and the mapping stays put.
    impossible = DegradePolicy(
        implementation=baseline_implementation(),
        lrcs={"u2": 0.999999999},
    )
    result = resilient_3ts(policies=(impossible,)).run(30)
    assert result.recoveries == ()
    failed = result.events_of(RecoveryFailed)
    assert failed and failed[0].dead_hosts == ("h2",)
    assert len(result.implementation_log) == 1


# ----------------------------------------------------------------------
# The detect-and-recover acceptance experiment (3TS, unplug h2).
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def outcome():
    return detect_and_recover(iterations=40, unplug_at=5000, seed=99)


def test_detection_within_three_control_periods(outcome):
    assert outcome.detection_time is not None
    assert outcome.detection_latency_periods is not None
    assert outcome.detection_latency_periods <= 3


def test_recovery_commits_only_with_verified_srgs(outcome):
    commits = outcome.recovered.events_of(RecoveryCommitted)
    assert len(commits) == 1
    commit = commits[0]
    assert commit.policy == "re-replicate"
    assert commit.dead_hosts == ("h2",)
    spec = outcome.recovered.spec
    for name, comm in spec.communicators.items():
        assert commit.srgs[name] >= comm.lrc
    for hosts in commit.assignment.values():
        assert "h2" not in hosts
    # The commit happens at the first iteration boundary after the
    # HostDead verdict, never before it.
    dead = outcome.recovered.events_of(HostDead)[0]
    assert commit.time >= dead.time


def test_post_recovery_windowed_rates_recover(outcome):
    for name in ("u1", "u2"):
        mu = outcome.recovered.spec.communicators[name].lrc
        rate = outcome.recovered.windowed_rate(name)
        assert rate is not None and rate >= mu
    # Every violation window of the recovered arm closed, and the
    # violation has finite length.
    for name, windows in outcome.violation_windows.items():
        for start, end in windows:
            assert end is not None
        assert outcome.violation_length(name) is not None


def test_baseline_without_recovery_stays_in_violation(outcome):
    # Same seed, same faults, no policies: u2 alarms and never clears.
    windows = outcome.baseline_windows["u2"]
    assert windows
    assert windows[-1][1] is None
    assert outcome.baseline.recoveries == ()
    assert not outcome.baseline.satisfies_lrcs()
    # The recovered arm does better than the baseline on u2.
    baseline_avg = outcome.baseline.limit_averages()["u2"]
    recovered_avg = outcome.recovered.limit_averages()["u2"]
    assert recovered_avg > baseline_avg


def test_outcome_summary_renders(outcome):
    text = outcome.summary()
    assert "detect-and-recover" in text
    assert "h2" in text
    assert "recovery" in outcome.recovered.summary()


# ----------------------------------------------------------------------
# resilient_batch: the seed contract under recovery.
# ----------------------------------------------------------------------


def test_resilient_batch_matches_child_seeded_runs():
    spec = three_tank_spec(
        lrc_u=0.99, functions=bind_control_functions()
    )
    arch = three_tank_architecture()
    impl = baseline_implementation()
    runs, iterations, seed = 3, 25, 42
    kwargs = dict(
        faults=ScriptedFaults(host_outages={"h2": [(5000, None)]}),
        actuator_communicators=ACTUATORS,
        monitor=MonitorConfig(window=50, communicators=("u1", "u2")),
        watchdog=WatchdogConfig(),
        policies=(ReReplicatePolicy(),),
    )
    batch = resilient_batch(
        spec, arch, impl, runs, iterations, seed,
        environment_factory=ThreeTankEnvironment,
        **kwargs,
    )
    assert batch.executor == "scalar-resilient"
    children = np.random.SeedSequence(seed).spawn(runs)
    for k, child in enumerate(children):
        direct = ResilientSimulator(
            spec, arch, impl,
            environment=ThreeTankEnvironment(),
            seed=np.random.default_rng(child),
            **kwargs,
        ).run(iterations)
        got = batch.monitor_events_for_run(k)
        assert len(direct.recoveries) == sum(
            isinstance(e, RecoveryCommitted) for e in got
        )
        expected = [
            {**e.to_dict(), "run": k} for e in direct.events
        ]
        assert [e.to_dict() for e in got] == expected
        for name, trace in direct.abstract().items():
            assert batch.reliable_counts[name][k] == (
                trace.reliable_count()
            )
    averages = batch.limit_averages()
    assert all(np.all(avg <= 1.0) for avg in averages.values())


# ----------------------------------------------------------------------
# Batch monitoring: vectorized events == scalar events.
# ----------------------------------------------------------------------


def test_batch_monitor_events_match_scalar_monitor():
    spec = three_tank_spec(lrc_u=0.99)
    arch = three_tank_architecture()
    impl = scenario1_implementation()
    runs, iterations, seed = 4, 40, 5
    config = MonitorConfig(
        window=25,
        alarm_below={n: 0.85 for n in spec.communicators},
        clear_above={n: 0.95 for n in spec.communicators},
    )
    batch = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch), seed=seed
    )
    result = batch.run_batch(runs, iterations, monitor=config)
    assert result.executor == "vectorized"

    bound = three_tank_spec(
        lrc_u=0.99, functions=bind_control_functions()
    )
    children = np.random.SeedSequence(seed).spawn(runs)
    for k, child in enumerate(children):
        monitor = LrcMonitor(bound, config)
        Simulator(
            bound, arch, impl,
            environment=ThreeTankEnvironment(),
            faults=BernoulliFaults(arch),
            actuator_communicators=ACTUATORS,
            seed=np.random.default_rng(child),
            monitor=monitor,
        ).run(iterations)
        expected = [
            {**e.to_dict(), "run": k} for e in monitor.events
        ]
        got = [e.to_dict() for e in result.monitor_events_for_run(k)]
        assert got == expected
