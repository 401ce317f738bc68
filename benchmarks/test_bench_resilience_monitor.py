"""Overhead of the online LRC monitor on the batch Monte-Carlo path.

The monitor's batch integration is failure-driven: the executor hands
it sparse access-failure positions and all windowed-latch work happens
in the window neighbourhoods of those failures
(:func:`repro.resilience.monitor.monitor_events_from_failures`), so on
a healthy system the pass reduces to finding the failures plus a
per-block qualification check.  The acceptance ceiling is 1.3x the
unmonitored batch runtime.

The workload is the steady-state case the ceiling is about: the
replicated (LRC-compliant) 3TS implementation watched with an alarm
margin below the declared LRCs — the operating configuration in which
a monitor runs for days without firing.  Alarm-storm behaviour (alarm
threshold exactly at ``mu_c`` on an implementation that hovers there,
thousands of events per shard) has its own guard,
``benchmarks/test_bench_monitor_storm.py``: the kernel emits events as
columns, so a storm's cost is the window arithmetic over the failure
neighbourhoods, and no event object is built on the batch path.

Both timings run the identical workload (same seed, same fault
tensors) so the ratio isolates the monitor pass itself, and the
monitored result's counts are asserted equal to the unmonitored
ones — monitoring observes, it never perturbs.
"""

import time

from repro.experiments import (
    scenario2_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.resilience import MonitorConfig
from repro.runtime import BatchSimulator, BernoulliFaults

RUNS = 256
ITERATIONS = 1250  # x RUNS = 320000 simulated hyperperiods
OVERHEAD_CEILING = 1.3


def test_bench_resilience_monitor(benchmark, report, bench_scale):
    iterations = bench_scale(ITERATIONS)
    spec = three_tank_spec(lrc_u=0.9975)
    arch = three_tank_architecture()
    impl = scenario2_implementation()
    # Alarm well below the declared LRCs: a single task failure dips a
    # five-access communicator's windowed rate to 0.9, so the margin
    # must sit below that for the monitor to be quiet on a compliant
    # system.
    names = sorted(spec.communicators)
    monitor = MonitorConfig(
        window=50,
        alarm_below={name: 0.8 for name in names},
        clear_above={name: 0.9 for name in names},
    )

    simulator = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch), seed=99,
    )

    monitored = benchmark.pedantic(
        lambda: simulator.run_batch(RUNS, iterations, monitor=monitor),
        rounds=1, iterations=1,
    )
    assert monitored.executor == "vectorized"

    # Warm timings, best of three each, after the benchmark call has
    # paid the interpreter/numpy warm-up.
    def best_of(fn, rounds=3):
        elapsed = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            elapsed.append(time.perf_counter() - start)
        return min(elapsed)

    plain_elapsed = best_of(
        lambda: simulator.run_batch(RUNS, iterations)
    )
    monitored_elapsed = best_of(
        lambda: simulator.run_batch(RUNS, iterations, monitor=monitor)
    )
    overhead = monitored_elapsed / plain_elapsed

    # Monitoring observes; it must not perturb the counts.
    plain = simulator.run_batch(RUNS, iterations)
    for name, counts in plain.reliable_counts.items():
        assert (monitored.reliable_counts[name] == counts).all()

    if bench_scale.full:
        assert overhead <= OVERHEAD_CEILING

    report(
        "resilience — online LRC monitor overhead on the batch path",
        [
            ("batch runtime (s)", "(baseline)",
             f"{plain_elapsed:.3f}"),
            ("monitored runtime (s)", f"<= {OVERHEAD_CEILING:.1f}x",
             f"{monitored_elapsed:.3f}"),
            ("overhead", f"<= {OVERHEAD_CEILING:.1f}x",
             f"{overhead:.2f}x"),
            ("monitor events", "(quiet steady state)",
             f"{len(monitored.monitor_events)}"),
        ],
    )
