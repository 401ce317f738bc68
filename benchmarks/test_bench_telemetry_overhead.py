"""Overhead guard for the telemetry instrumentation hooks.

The executors pay for telemetry only when sinks are attached: hook
loops are guarded by a truthiness check on the sink tuple, and the
batch executor's stage timers default to the shared
:data:`~repro.telemetry.profiler.NULL_PROFILER` whose ``stage`` call
is a single attribute lookup returning a no-op context manager.  Two
ceilings keep that promise honest:

* **scalar**: running the reference :class:`Simulator` with a
  :class:`NullSink` attached (hooks fire, recorder does nothing) must
  stay within 1.05x of the un-instrumented run;
* **batch**: running the vectorized executor with a live
  :class:`StageProfiler` must stay within 1.3x of the default
  null-profiler run — the profiler wraps whole stages, never inner
  loops, so its cost is a handful of ``perf_counter`` calls;
* **forensics**: running the scalar engine with a live
  :class:`ProvenanceRecorder` under fault injection must stay within
  1.3x of the bare run — the recorder skips the hottest hook
  (``on_access``) and does bounded per-iteration bookkeeping, so its
  cost tracks the monitor/profiler class of observers, not the
  engine's inner loops.

Both assertions always run; under the CI smoke scale
(``REPRO_BENCH_SCALE`` < 1) the ceilings are relaxed because
microsecond-scale runs are timer-noise dominated, but a gross
regression (hook work on the disabled path) still fails the job.
"""

import time

from repro.experiments import (
    ACTUATORS,
    baseline_implementation,
    bind_control_functions,
    three_tank_architecture,
    three_tank_spec,
)
from repro.experiments.three_tank_system import ThreeTankEnvironment
from repro.runtime import BatchSimulator, BernoulliFaults, Simulator
from repro.telemetry import NullSink, ProvenanceRecorder, StageProfiler

SCALAR_ITERATIONS = 2000
SCALAR_CEILING = 1.05
BATCH_RUNS = 256
BATCH_ITERATIONS = 1250
BATCH_CEILING = 1.3
FORENSICS_ITERATIONS = 2000
FORENSICS_CEILING = 1.3
#: Noise allowance when the smoke scale shrinks runs to milliseconds.
SMOKE_SLACK = 2.5


def _best_of(fn, rounds=3):
    elapsed = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        elapsed.append(time.perf_counter() - start)
    return min(elapsed)


def test_bench_scalar_null_sink_overhead(benchmark, report, bench_scale):
    iterations = bench_scale(SCALAR_ITERATIONS)
    arch = three_tank_architecture()
    impl = baseline_implementation()

    def run(sinks):
        # Fresh spec per run: the bound 3TS control functions carry
        # state, so reuse would break run-to-run determinism.
        spec = three_tank_spec(
            lrc_u=0.99, functions=bind_control_functions()
        )
        return Simulator(
            spec, arch, impl,
            environment=ThreeTankEnvironment(),
            faults=BernoulliFaults(arch),
            actuator_communicators=ACTUATORS,
            seed=17,
            sinks=sinks,
        ).run(iterations)

    instrumented = benchmark.pedantic(
        lambda: run((NullSink(),)), rounds=1, iterations=1
    )

    plain_elapsed = _best_of(lambda: run(()))
    sunk_elapsed = _best_of(lambda: run((NullSink(),)))
    overhead = sunk_elapsed / plain_elapsed

    # Telemetry observes; it must not perturb the simulation.
    assert run(()).values == instrumented.values

    ceiling = (
        SCALAR_CEILING if bench_scale.full
        else SCALAR_CEILING * SMOKE_SLACK
    )
    assert overhead <= ceiling

    report(
        "telemetry — null-sink overhead on the scalar engine",
        [
            ("scalar runtime (s)", "(baseline)",
             f"{plain_elapsed:.3f}"),
            ("null-sink runtime (s)", f"<= {SCALAR_CEILING:.2f}x",
             f"{sunk_elapsed:.3f}"),
            ("overhead", f"<= {SCALAR_CEILING:.2f}x",
             f"{overhead:.2f}x"),
        ],
    )


def test_bench_batch_profiler_overhead(benchmark, report, bench_scale):
    iterations = bench_scale(BATCH_ITERATIONS)
    spec = three_tank_spec(lrc_u=0.99)
    arch = three_tank_architecture()
    impl = baseline_implementation()

    def run(profiler=None):
        return BatchSimulator(
            spec, arch, impl, faults=BernoulliFaults(arch), seed=99,
            profiler=profiler,
        ).run_batch(BATCH_RUNS, iterations)

    profiler = StageProfiler()
    profiled = benchmark.pedantic(
        lambda: run(profiler), rounds=1, iterations=1
    )
    assert profiled.executor == "vectorized"
    stages = {span["name"] for span in profiler.spans}
    assert {"plan-compile", "fault-precompute", "reduce"} <= stages

    plain_elapsed = _best_of(lambda: run())
    profiled_elapsed = _best_of(lambda: run(StageProfiler()))
    overhead = profiled_elapsed / plain_elapsed

    plain = run()
    for name, counts in plain.reliable_counts.items():
        assert (profiled.reliable_counts[name] == counts).all()

    ceiling = (
        BATCH_CEILING if bench_scale.full
        else BATCH_CEILING * SMOKE_SLACK
    )
    assert overhead <= ceiling

    report(
        "telemetry — stage-profiler overhead on the batch executor",
        [
            ("batch runtime (s)", "(baseline)",
             f"{plain_elapsed:.3f}"),
            ("profiled runtime (s)", f"<= {BATCH_CEILING:.1f}x",
             f"{profiled_elapsed:.3f}"),
            ("overhead", f"<= {BATCH_CEILING:.1f}x",
             f"{overhead:.2f}x"),
        ],
    )


def test_bench_forensics_recorder_overhead(
    benchmark, report, bench_scale
):
    iterations = bench_scale(FORENSICS_ITERATIONS)
    arch = three_tank_architecture()
    impl = baseline_implementation()

    def run(recorder=None):
        # Fresh spec per run: the bound 3TS control functions carry
        # state, so reuse would break run-to-run determinism.
        spec = three_tank_spec(
            lrc_u=0.99, functions=bind_control_functions()
        )
        sinks = () if recorder is None else (recorder,)
        return Simulator(
            spec, arch, impl,
            environment=ThreeTankEnvironment(),
            faults=BernoulliFaults(arch),
            actuator_communicators=ACTUATORS,
            seed=17,
            sinks=sinks,
        ).run(iterations)

    def recorder():
        return ProvenanceRecorder(
            three_tank_spec(
                lrc_u=0.99, functions=bind_control_functions()
            )
        )

    recorded = benchmark.pedantic(
        lambda: run(recorder()), rounds=1, iterations=1
    )

    plain_elapsed = _best_of(lambda: run())
    recorded_elapsed = _best_of(lambda: run(recorder()))
    overhead = recorded_elapsed / plain_elapsed

    # The recorder observes; it must not perturb the simulation
    # (the PR 2 seed contract, bit-for-bit).
    assert run().values == recorded.values

    ceiling = (
        FORENSICS_CEILING if bench_scale.full
        else FORENSICS_CEILING * SMOKE_SLACK
    )
    assert overhead <= ceiling

    report(
        "forensics — provenance-recorder overhead on the scalar engine",
        [
            ("scalar runtime (s)", "(baseline)",
             f"{plain_elapsed:.3f}"),
            ("recorded runtime (s)", f"<= {FORENSICS_CEILING:.1f}x",
             f"{recorded_elapsed:.3f}"),
            ("overhead", f"<= {FORENSICS_CEILING:.1f}x",
             f"{overhead:.2f}x"),
        ],
    )
