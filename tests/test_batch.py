"""The batched Monte-Carlo executor vs the scalar reference.

The batch executor's whole claim is *bit-identical counts, orders of
magnitude faster*: run ``k`` of ``run_batch(n, iterations, seed=s)``
must produce exactly the per-communicator reliable-access counts of
the scalar :class:`~repro.runtime.engine.Simulator` seeded with
``SeedSequence(s).spawn(n)[k]``.  The differential property tests
drive that over Hypothesis-generated systems, acyclic and with
communicator cycles with memory; the convergence tests check the
estimates against the analytic SRGs of Proposition 1 and the Markov
analysis of self-cycles; the fallback test pins down when the
vectorized path must decline.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.arch import Architecture, ExecutionMetrics, Host, Sensor
from repro.errors import RuntimeSimulationError
from repro.experiments import (
    bind_control_functions,
    cyclic_specification,
    cyclic_specification_with_input,
    scenario1_implementation,
    three_tank_architecture,
    three_tank_spec,
    unplug_monte_carlo,
)
from repro.io import specification_from_dict, specification_to_dict
from repro.mapping import Implementation
from repro.reliability import (
    analyze_memory_cycles,
    binomial_confidence_interval,
    communicator_srgs,
)
from repro.resilience import LrcMonitor, MonitorConfig
from repro.runtime import (
    BatchSimulator,
    BernoulliFaults,
    CompositeFaults,
    CrashRepairFaults,
    FaultInjector,
    GilbertElliottChannel,
    GilbertElliottFaults,
    ScriptedFaults,
    Simulator,
)

from strategies import cyclic_systems, systems

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def scalar_counts(spec, arch, impl, faults, child, iterations):
    """Reliable-access counts of one scalar run seeded with *child*."""
    simulator = Simulator(
        spec, arch, impl,
        faults=faults,
        seed=np.random.default_rng(child),
    )
    result = simulator.run(iterations)
    return {
        name: trace.reliable_count()
        for name, trace in result.abstract().items()
    }


# ----------------------------------------------------------------------
# The seed contract, differentially.
# ----------------------------------------------------------------------


@RELAXED
@given(systems(), st.integers(min_value=0, max_value=2**32 - 1))
def test_batch_matches_scalar_on_generated_systems(system, seed):
    spec, arch, impl = system
    batch = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch), seed=seed
    )
    runs, iterations = 3, 7
    result = batch.run_batch(runs, iterations)
    assert result.executor == "vectorized"

    children = np.random.SeedSequence(seed).spawn(runs)
    for k, child in enumerate(children):
        expected = scalar_counts(
            spec, arch, impl, BernoulliFaults(arch), child, iterations
        )
        for name, count in expected.items():
            assert result.reliable_counts[name][k] == count


@RELAXED
@given(systems())
def test_batch_is_deterministic_in_the_seed(system):
    spec, arch, impl = system
    batch = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch)
    )
    first = batch.run_batch(2, 5, seed=123)
    second = batch.run_batch(2, 5, seed=123)
    for name in spec.communicators:
        assert np.array_equal(
            first.reliable_counts[name], second.reliable_counts[name]
        )


# ----------------------------------------------------------------------
# Convergence to the analytic SRGs (Proposition 1).
# ----------------------------------------------------------------------


def test_batch_estimates_converge_to_analytic_srgs():
    """Pooled batch estimates honour the SRGs of Proposition 1.

    The SRG is a *guarantee*: the analytic product assumes input
    reliabilities independent, and shared upstream ancestry (both 3TS
    estimates fuse the same level readings) only pushes the true
    reliability up.  So every communicator's SRG must lie at or below
    the Clopper–Pearson interval of the pooled estimate — and for
    input communicators, whose reliability is exactly the sensor
    ``srel``, the interval must straddle the SRG itself.
    """
    spec = three_tank_spec()
    arch = three_tank_architecture()
    impl = scenario1_implementation()
    srgs = communicator_srgs(spec, impl, arch)

    batch = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch), seed=7
    )
    result = batch.run_batch(64, 500)  # 32000 hyperperiods
    assert result.executor == "vectorized"

    inputs = spec.input_communicators()
    for name in spec.communicators:
        successes, samples = result.pooled_counts()[name]
        lower, upper = binomial_confidence_interval(
            successes, samples, confidence=0.999
        )
        assert srgs[name] <= upper, (
            f"{name}: observed significantly below the SRG "
            f"{srgs[name]} (CP interval [{lower}, {upper}])"
        )
        if name in inputs:
            assert lower <= srgs[name], (
                f"{name}: exact input SRG {srgs[name]} outside CP "
                f"interval [{lower}, {upper}]"
            )


def test_batch_scripted_unplug_matches_scalar_and_degrades():
    """Pull-the-plug composite (scripted + Bernoulli) on the batch path."""
    result = unplug_monte_carlo(
        scenario1_implementation(), "h2", 30_000, runs=4, iterations=120
    )
    assert result.executor == "vectorized"
    # Replication keeps every LRC despite losing h2 for half the run.
    assert result.satisfies_lrcs(slack=0.01)

    spec = three_tank_spec(functions=bind_control_functions())
    arch = three_tank_architecture()
    impl = scenario1_implementation()
    faults = CompositeFaults(
        [
            ScriptedFaults(host_outages={"h2": [(30_000, None)]}),
            BernoulliFaults(arch),
        ]
    )
    children = np.random.SeedSequence(99).spawn(4)
    for k, child in enumerate(children):
        expected = scalar_counts(spec, arch, impl, faults, child, 120)
        for name, count in expected.items():
            assert result.reliable_counts[name][k] == count


# ----------------------------------------------------------------------
# The seed contract under the correlated injectors.
# ----------------------------------------------------------------------


channels = st.builds(
    GilbertElliottChannel,
    st.floats(min_value=0.01, max_value=0.9),   # good_to_bad
    st.floats(min_value=0.05, max_value=0.95),  # bad_to_good
    st.floats(min_value=0.0, max_value=0.2),    # fail_good
    st.floats(min_value=0.5, max_value=1.0),    # fail_bad
    st.booleans(),                              # start_bad
)


@RELAXED
@given(
    systems(),
    channels,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
def test_batch_matches_scalar_with_gilbert_elliott(
    system, channel, seed, with_network
):
    spec, arch, impl = system

    def faults():
        return GilbertElliottFaults(
            hosts={h: channel for h in arch.host_names()},
            sensors={s: channel for s in arch.sensor_names()},
            network=channel if with_network else None,
        )

    batch = BatchSimulator(spec, arch, impl, faults=faults(), seed=seed)
    runs, iterations = 2, 6
    result = batch.run_batch(runs, iterations)
    assert result.executor == "vectorized"

    children = np.random.SeedSequence(seed).spawn(runs)
    for k, child in enumerate(children):
        expected = scalar_counts(
            spec, arch, impl, faults(), child, iterations
        )
        for name, count in expected.items():
            assert result.reliable_counts[name][k] == count


@RELAXED
@given(
    systems(),
    st.floats(min_value=10.0, max_value=5000.0),
    st.floats(min_value=5.0, max_value=500.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_matches_scalar_with_crash_repair(system, mttf, mttr, seed):
    spec, arch, impl = system

    def faults():
        return CrashRepairFaults(
            hosts={h: (mttf, mttr) for h in arch.host_names()},
            sensors={s: (mttf, mttr) for s in arch.sensor_names()},
        )

    batch = BatchSimulator(spec, arch, impl, faults=faults(), seed=seed)
    runs, iterations = 2, 6
    result = batch.run_batch(runs, iterations)
    assert result.executor == "vectorized"

    children = np.random.SeedSequence(seed).spawn(runs)
    for k, child in enumerate(children):
        expected = scalar_counts(
            spec, arch, impl, faults(), child, iterations
        )
        for name, count in expected.items():
            assert result.reliable_counts[name][k] == count


# ----------------------------------------------------------------------
# Cycles with memory: cyclic components step over iterations in the
# vectorized kernel and stay bit-identical to the scalar reference.
# ----------------------------------------------------------------------

CYCLE_RUNS = 3
CYCLE_ITERATIONS = 9


def assert_cyclic_batch_matches_scalar(system, faults, seed, monitor=None):
    """Run ``k`` of the batch equals the scalar run on spawn child ``k``.

    Counts per communicator and, with a *monitor* config, the online
    monitor's events; *faults* builds a fresh injector per executor.
    """
    spec, arch, impl = system
    batch = BatchSimulator(spec, arch, impl, faults=faults(), seed=seed)
    result = batch.run_batch(CYCLE_RUNS, CYCLE_ITERATIONS, monitor=monitor)
    assert result.executor == "vectorized"

    children = np.random.SeedSequence(seed).spawn(CYCLE_RUNS)
    for k, child in enumerate(children):
        run_monitor = None if monitor is None else LrcMonitor(spec, monitor)
        scalar = Simulator(
            spec, arch, impl,
            faults=faults(),
            seed=np.random.default_rng(child),
            monitor=run_monitor,
        ).run(CYCLE_ITERATIONS)
        for name, trace in scalar.abstract().items():
            assert result.reliable_counts[name][k] == trace.reliable_count()
        if run_monitor is not None:
            assert result.monitor_events_for_run(k) == [
                dataclasses.replace(event, run=k)
                for event in run_monitor.events
            ]


@RELAXED
@given(cyclic_systems(), st.integers(min_value=0, max_value=2**32 - 1))
def test_cyclic_batch_matches_scalar_with_bernoulli(system, seed):
    _, arch, _ = system
    assert_cyclic_batch_matches_scalar(
        system, lambda: BernoulliFaults(arch), seed
    )


@RELAXED
@given(
    cyclic_systems(),
    channels,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
def test_cyclic_batch_matches_scalar_with_gilbert_elliott(
    system, channel, seed, with_network
):
    _, arch, _ = system
    assert_cyclic_batch_matches_scalar(
        system,
        lambda: GilbertElliottFaults(
            hosts={h: channel for h in arch.host_names()},
            sensors={s: channel for s in arch.sensor_names()},
            network=channel if with_network else None,
        ),
        seed,
    )


@RELAXED
@given(
    cyclic_systems(),
    st.floats(min_value=10.0, max_value=5000.0),
    st.floats(min_value=5.0, max_value=500.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_cyclic_batch_matches_scalar_with_crash_repair(
    system, mttf, mttr, seed
):
    _, arch, _ = system
    assert_cyclic_batch_matches_scalar(
        system,
        lambda: CrashRepairFaults(
            hosts={h: (mttf, mttr) for h in arch.host_names()},
            sensors={s: (mttf, mttr) for s in arch.sensor_names()},
        ),
        seed,
    )


@RELAXED
@given(
    cyclic_systems(),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=8),
)
def test_cyclic_batch_monitor_events_match_scalar(system, seed, window):
    _, arch, _ = system
    assert_cyclic_batch_matches_scalar(
        system, lambda: BernoulliFaults(arch), seed,
        monitor=MonitorConfig(window=window),
    )


def cycle_architecture():
    """One host (lambda_t = 0.995) and one sensor (0.8): the cycle design."""
    return Architecture(
        hosts=[Host("h1", 0.995)],
        sensors=[Sensor("s1", 0.8)],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )


def test_unbound_cyclic_design_simulates():
    """A cycle loaded without task functions needs none to simulate."""
    document = specification_to_dict(cyclic_specification_with_input())
    document["tasks"][0]["function"] = "integrate"
    spec = specification_from_dict(document)  # no bindings
    assert spec.tasks["integrate"].function is None
    arch = cycle_architecture()
    impl = Implementation({"integrate": {"h1"}}, {"ext": {"s1"}})
    result = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch), seed=2
    ).run_batch(6, 300)
    assert result.executor == "vectorized"
    assert 0.9 < result.srg_estimates()["acc"] < 1.0


def run_mean_interval(averages, confidence=0.999):
    """Student-t interval for the mean of independent per-run averages.

    Accesses within one run follow a Markov chain, so they are not
    independent samples; the runs are, which makes the run the unit.
    """
    n = len(averages)
    mean = float(np.mean(averages))
    half = scipy_stats.t.ppf(0.5 + confidence / 2, n - 1) * float(
        np.std(averages, ddof=1)
    ) / np.sqrt(n)
    return mean - half, mean + half


def test_parallel_cycle_rate_matches_markov_analysis():
    """The vectorized recurrence converges to the exact Markov rate."""
    spec = cyclic_specification_with_input("parallel")
    arch = cycle_architecture()
    impl = Implementation({"integrate": {"h1"}}, {"ext": {"s1"}})
    predicted = analyze_memory_cycles(spec, impl, arch)["acc"]
    result = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch), seed=19
    ).run_batch(64, 2000)
    assert result.executor == "vectorized"
    lower, upper = run_mean_interval(result.limit_averages()["acc"])
    assert lower <= predicted.limit_average <= upper, (
        f"Markov rate {predicted.limit_average} outside the per-run "
        f"interval [{lower}, {upper}]"
    )


def test_series_self_loop_collapses_as_predicted():
    """The series self-loop dies at its first failure (Section 3).

    Access ``i`` of ``acc`` is reliable iff the ``i`` task invocations
    before it all succeeded, so a run of ``T`` iterations has expected
    limit average ``(1 - lambda^T) / (T (1 - lambda))`` — far below
    ``lambda`` and falling to 0 as ``T`` grows.
    """
    spec = cyclic_specification("series")
    arch = cycle_architecture()
    impl = Implementation({"integrate": {"h1"}}, {})
    iterations, lam = 2000, 0.995
    expected = (1 - lam**iterations) / (iterations * (1 - lam))
    result = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch), seed=23
    ).run_batch(64, iterations)
    assert result.executor == "vectorized"
    lower, upper = run_mean_interval(result.limit_averages()["acc"])
    assert lower <= expected <= upper, (
        f"expected collapse rate {expected} outside the per-run "
        f"interval [{lower}, {upper}]"
    )
    assert upper < 0.25


# ----------------------------------------------------------------------
# Scripted-outage interval boundaries, differentially.
#
# In the 3TS plan the interesting instants of iteration 3 are: release
# of t1/t2 at 1700, their deadline (write time) at 1900, and the phase
# boundaries at 1500/2000.  Outage edges landing exactly on those
# instants exercise the half-open interval convention of
# repro.runtime.faults._down_during — a precompute that is off by one at any
# edge diverges from the scalar reference here.
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "intervals",
    [
        [(1000, 1700)],   # ends exactly on a release -> spares it
        [(1700, 1701)],   # starts exactly on a release -> kills it
        [(1900, 1950)],   # starts exactly on a deadline -> still kills
        [(1300, 1900)],   # ends exactly on a deadline
        [(1500, 2000)],   # aligned on phase boundaries
        [(0, 200)],       # from t=0 to the first write time
        [(2000, None)],   # open-ended from a phase boundary
        [(1700, 1900)],   # exactly one invocation window
    ],
    ids=[
        "end-on-release",
        "start-on-release",
        "start-on-deadline",
        "end-on-deadline",
        "phase-aligned",
        "from-zero",
        "open-ended",
        "exact-window",
    ],
)
def test_scripted_precompute_interval_boundaries(intervals):
    spec = three_tank_spec(functions=bind_control_functions())
    arch = three_tank_architecture()
    impl = scenario1_implementation()

    def faults():
        return ScriptedFaults(
            host_outages={"h1": intervals, "h2": intervals},
            sensor_outages={"sen1": intervals, "sen2b": intervals},
        )

    batch = BatchSimulator(spec, arch, impl, faults=faults(), seed=17)
    runs, iterations = 2, 12
    result = batch.run_batch(runs, iterations)
    assert result.executor == "vectorized"

    children = np.random.SeedSequence(17).spawn(runs)
    for k, child in enumerate(children):
        expected = scalar_counts(
            spec, arch, impl, faults(), child, iterations
        )
        for name, count in expected.items():
            assert result.reliable_counts[name][k] == count, (
                f"{name}: batch diverges from scalar on {intervals}"
            )


# ----------------------------------------------------------------------
# Fallback rules.
# ----------------------------------------------------------------------


class _FlakySensor(FaultInjector):
    """A custom injector with no ``precompute`` implementation."""

    def sensor_fails(self, sensor, time, rng):
        return rng.random() >= 0.5


def test_custom_injector_without_precompute_falls_back():
    spec = three_tank_spec(functions=bind_control_functions())
    arch = three_tank_architecture()
    impl = scenario1_implementation()
    batch = BatchSimulator(
        spec, arch, impl, faults=_FlakySensor(), seed=5
    )
    result = batch.run_batch(2, 30)
    assert result.executor == "scalar-fallback"

    children = np.random.SeedSequence(5).spawn(2)
    for k, child in enumerate(children):
        expected = scalar_counts(
            spec, arch, impl, _FlakySensor(), child, 30
        )
        for name, count in expected.items():
            assert result.reliable_counts[name][k] == count


def test_cyclic_specification_is_vectorized():
    """A self-loop steps over iterations in the vectorized kernel."""
    spec = cyclic_specification("series", period=10)
    arch = Architecture(
        hosts=[Host("h0", 0.9)],
        sensors=[Sensor("s0", 0.9)],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )
    impl = Implementation({"integrate": {"h0"}}, {})
    batch = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch), seed=3
    )
    result = batch.run_batch(3, 40)
    assert result.executor == "vectorized"

    children = np.random.SeedSequence(3).spawn(3)
    for k, child in enumerate(children):
        expected = scalar_counts(
            spec, arch, impl, BernoulliFaults(arch), child, 40
        )
        for name, count in expected.items():
            assert result.reliable_counts[name][k] == count


def test_run_batch_validates_arguments():
    spec = three_tank_spec()
    arch = three_tank_architecture()
    batch = BatchSimulator(spec, arch, scenario1_implementation())
    with pytest.raises(RuntimeSimulationError):
        batch.run_batch(0, 10)
    with pytest.raises(RuntimeSimulationError):
        batch.run_batch(4, 0)


# ----------------------------------------------------------------------
# BatchResult surface.
# ----------------------------------------------------------------------


def test_batch_result_statistics_surface():
    spec = three_tank_spec()
    arch = three_tank_architecture()
    batch = BatchSimulator(
        spec, arch, scenario1_implementation(),
        faults=BernoulliFaults(arch), seed=11,
    )
    result = batch.run_batch(8, 100)

    averages = result.limit_averages()
    estimates = result.srg_estimates()
    pooled = result.pooled_counts()
    for name in spec.communicators:
        samples = result.samples_per_run[name]
        successes, total = pooled[name]
        assert len(result.reliable_counts[name]) == 8
        assert successes == int(result.reliable_counts[name].sum())
        assert total == 8 * samples
        assert averages[name] == pytest.approx(
            result.reliable_counts[name] / samples
        )
        assert estimates[name] == pytest.approx(successes / total)
        assert 0.0 <= estimates[name] <= 1.0

    tests = result.lrc_tests()
    assert set(tests) == set(spec.communicators)
    assert result.satisfies_lrcs(slack=0.02)
    assert "8 runs x 100 iterations" in result.summary()
