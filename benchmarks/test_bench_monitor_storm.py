"""Alarm-storm guard: the online monitor on one cold-sharded shard.

The service benchmark's cold-sharded workload runs the online LRC
monitor on half of its jobs, with the default thresholds (alarm below
the declared LRC ``mu_c``, no hysteresis) on the 3TS baseline, whose
reliable-write rates sit close to their LRCs: a 50-access window
crosses ``mu_c`` thousands of times per shard.  Each crossing is one
alarm or clear event, so this is where the monitor's cost is the cost
of its events.

The batch kernel emits those events as a
:class:`~repro.resilience.events.MonitorEvents` column table, and a
shard ships the table home through the pipe as arrays.  This bench
runs one shard's slice — 48 runs x 4000 iterations, window 50 — and
guards two ratios, each the best of several alternating timings:

* the monitored slice takes at most 2.5x the unmonitored one (about
  2x with columns; about 4.8x when every event was built as an
  object);
* a pickle round trip of the monitored result, what the shard pipe
  costs, takes at most 10% of the monitored slice (about 1% with
  columns; about a third with objects).

The sizes are those of a real shard, so the bench ignores
``REPRO_BENCH_SCALE``.
"""

import pickle
import time

import numpy as np

from repro.experiments import (
    baseline_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.resilience import MonitorConfig
from repro.runtime import BatchSimulator, BernoulliFaults

RUNS = 48
ITERATIONS = 4000
WINDOW = 50
ROUNDS = 5
MONITOR_CEILING = 2.5
PICKLE_CEILING = 0.10


def test_bench_monitor_storm(benchmark, report):
    arch = three_tank_architecture()
    simulator = BatchSimulator(
        three_tank_spec(), arch, baseline_implementation(),
        faults=BernoulliFaults(arch), seed=1,
    )
    children = np.random.SeedSequence(1).spawn(RUNS)
    monitor = MonitorConfig(window=WINDOW)
    # Warm the kernel's code paths (and the plan) outside the timings.
    simulator.run_slice(children[:2], 10, monitor)

    monitored = benchmark.pedantic(
        lambda: simulator.run_slice(children, ITERATIONS, monitor),
        rounds=1, iterations=1,
    )
    assert monitored.executor == "vectorized"
    events = len(monitored.monitor_events)
    assert events > 1000  # a storm, not a quiet steady state

    def timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    plain_s, monitored_s, pickle_s = [], [], []
    for _ in range(ROUNDS):
        plain_s.append(
            timed(lambda: simulator.run_slice(children, ITERATIONS))
        )
        monitored_s.append(
            timed(
                lambda: simulator.run_slice(children, ITERATIONS, monitor)
            )
        )
        pickle_s.append(
            timed(lambda: pickle.loads(pickle.dumps(monitored)))
        )
    plain, slice_s, round_trip = min(plain_s), min(monitored_s), min(
        pickle_s
    )
    overhead = slice_s / plain
    pickle_share = round_trip / slice_s

    # Monitoring observes; it must not perturb the counts.
    unmonitored = simulator.run_slice(children, ITERATIONS)
    for name, counts in unmonitored.reliable_counts.items():
        assert np.array_equal(monitored.reliable_counts[name], counts)

    assert overhead <= MONITOR_CEILING
    assert pickle_share <= PICKLE_CEILING

    report(
        "resilience — online LRC monitor in an alarm storm (one shard)",
        [
            ("monitor events", "(storm)", f"{events}"),
            ("unmonitored slice (s)", "(baseline)", f"{plain:.4f}"),
            ("monitored slice (s)", f"<= {MONITOR_CEILING:.1f}x",
             f"{slice_s:.4f}"),
            ("monitor overhead", f"<= {MONITOR_CEILING:.1f}x",
             f"{overhead:.2f}x"),
            ("pickle round trip (s)", "(shard pipe)",
             f"{round_trip:.5f}"),
            ("pickle share of slice", f"<= {PICKLE_CEILING:.2f}",
             f"{pickle_share:.4f}"),
            ("pickled result (kB)", "(columns)",
             f"{len(pickle.dumps(monitored)) / 1e3:.0f}"),
        ],
    )
