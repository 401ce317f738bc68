"""Iteration-scan guard: no recurrence steps iterations in Python.

Two recurrences run through every iteration of a run: a communicator
cycle with memory (a cyclic component of the release graph) and a
Gilbert–Elliott chain.  The batch kernel solves both with one Boolean
prefix scan (:mod:`repro.runtime.scan`) in about ``log2(iterations)``
vectorised steps per run block, so their slices are run-blocked like
every other.  Stepping either recurrence in Python costs a few ufunc
calls per iteration and per block instead.  This bench guards two
ratios, each the best of several alternating timings, which hold
across hosts:

* a 3TS baseline batch of 192 runs x 4000 iterations with every host
  and sensor on a Gilbert–Elliott channel takes at most 6.5x the same
  batch under Bernoulli faults (about 4x with the scan; about 9x when
  the chains were stepped over the whole slice at once);
* on the cycle design (a parallel self-loop with a sensor input) at
  64 x 4000, the ``propagate`` stage takes at most 45x the
  ``status-collapse`` stage (about 28-30x with the scan; stepping the
  cycle over iterations in each run block reads about 130x).

The sizes are those of real batches, so the bench ignores
``REPRO_BENCH_SCALE``.
"""

import time

from repro.arch import Architecture, ExecutionMetrics, Host, Sensor
from repro.experiments import (
    baseline_implementation,
    cyclic_specification_with_input,
    three_tank_architecture,
    three_tank_spec,
)
from repro.mapping import Implementation
from repro.runtime import (
    BatchSimulator,
    BernoulliFaults,
    GilbertElliottChannel,
    GilbertElliottFaults,
)
from repro.telemetry import StageProfiler

ITERATIONS = 4000
GE_RUNS = 192
CYCLE_RUNS = 64
ROUNDS = 5
GE_CEILING = 6.5
PROPAGATE_CEILING = 45.0


def _timed(simulator, runs):
    start = time.perf_counter()
    simulator.run_batch(runs, ITERATIONS)
    return time.perf_counter() - start


def _ge_ratio():
    spec, arch = three_tank_spec(), three_tank_architecture()
    channel = GilbertElliottChannel(good_to_bad=0.05, bad_to_good=0.3)
    bursty = BatchSimulator(
        spec, arch, baseline_implementation(),
        faults=GilbertElliottFaults(
            hosts={host: channel for host in arch.host_names()},
            sensors={sensor: channel for sensor in arch.sensor_names()},
        ),
        seed=1,
    )
    bernoulli = BatchSimulator(
        spec, arch, baseline_implementation(),
        faults=BernoulliFaults(arch), seed=1,
    )
    for simulator in (bursty, bernoulli):
        simulator.run_batch(2, 10)  # compile and warm outside the timings
    ge_s, bernoulli_s = [], []
    for _ in range(ROUNDS):
        ge_s.append(_timed(bursty, GE_RUNS))
        bernoulli_s.append(_timed(bernoulli, GE_RUNS))
    return min(ge_s), min(bernoulli_s)


def _stage_totals(profiler):
    totals: dict[str, float] = {}
    for span in profiler.spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + span[
            "duration_s"
        ]
    return totals


def _cycle_stages():
    arch = Architecture(
        hosts=[Host("h1", 0.995)],
        sensors=[Sensor("s1", 0.8)],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )
    impl = Implementation({"integrate": {"h1"}}, {"ext": {"s1"}})
    propagate, collapse = [], []
    for seed in range(ROUNDS):
        profiler = StageProfiler()
        simulator = BatchSimulator(
            cyclic_specification_with_input(), arch, impl,
            faults=BernoulliFaults(arch), seed=seed, profiler=profiler,
        )
        simulator.run_batch(2, 10)
        profiler.spans.clear()
        result = simulator.run_batch(CYCLE_RUNS, ITERATIONS)
        assert result.executor == "vectorized"
        totals = _stage_totals(profiler)
        propagate.append(totals["propagate"])
        collapse.append(totals["status-collapse"])
    return min(propagate), min(collapse)


def test_bench_iteration_scan(benchmark, report):
    ge_s, bernoulli_s = benchmark.pedantic(_ge_ratio, rounds=1, iterations=1)
    propagate_s, collapse_s = _cycle_stages()
    ge_ratio = ge_s / bernoulli_s
    stage_ratio = propagate_s / collapse_s
    report(
        "runtime — recurrences as prefix scans (no per-iteration loop)",
        [
            ("3TS all-GE batch (s)", f"{GE_RUNS} x {ITERATIONS}",
             f"{ge_s:.4f}"),
            ("3TS Bernoulli batch (s)", "(baseline)", f"{bernoulli_s:.4f}"),
            ("GE / Bernoulli", f"<= {GE_CEILING:.1f}x", f"{ge_ratio:.2f}x"),
            ("cycle propagate (s)", f"{CYCLE_RUNS} x {ITERATIONS}",
             f"{propagate_s:.5f}"),
            ("cycle status-collapse (s)", "(baseline)",
             f"{collapse_s:.5f}"),
            ("propagate / status-collapse",
             f"<= {PROPAGATE_CEILING:.0f}x", f"{stage_ratio:.1f}x"),
        ],
    )
    assert ge_ratio <= GE_CEILING, (
        f"an all-GE batch took {ge_ratio:.2f}x the Bernoulli batch "
        f"(ceiling {GE_CEILING}x)"
    )
    assert stage_ratio <= PROPAGATE_CEILING, (
        f"the cycle's propagate stage took {stage_ratio:.1f}x its "
        f"status collapse (ceiling {PROPAGATE_CEILING:.0f}x)"
    )
