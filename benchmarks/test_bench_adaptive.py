"""Adaptive-stopping benchmark: convergence speedup, chunked growth.

The acceptance criteria of the convergence-observability layer:

* **savings**: on a converged 3TS workload, adaptive stopping reaches
  the same per-communicator LRC verdicts as the full fixed-run batch
  while simulating at least :data:`SAVINGS_FLOOR` times fewer runs;
* **overhead**: growing a batch chunk by chunk along a checkpoint
  schedule (with a snapshot at every boundary) costs at most
  :data:`OVERHEAD_CEILING` of growing it in one chunk — a chunk
  boundary adds a merge and a snapshot, never inner-loop work;
* **determinism**: the stop point is bit-identical serial vs sharded,
  because stop decisions are functions of pooled counts at global
  checkpoint boundaries only.

Statistical assertions (savings, verdict agreement) are gated on
``bench_scale.full``: the smoke scale shrinks iteration counts, which
changes per-run sample sizes and therefore where the sequential test
decides.  The overhead and determinism assertions always run.
"""

import time

from repro.experiments import (
    baseline_implementation,
    bind_control_functions,
    three_tank_architecture,
    three_tank_spec,
)
from repro.runtime import BatchSimulator, BernoulliFaults
from repro.service.supervision import SupervisedShardedExecutor
from repro.telemetry.convergence import (
    StoppingRule,
    checkpoint_schedule,
)

MAX_RUNS = 640
ITERATIONS = 40
MIN_RUNS = 8
SEED = 7
SAVINGS_FLOOR = 5.0
OVERHEAD_RUNS = 256
OVERHEAD_ITERATIONS = 2500
OVERHEAD_CEILING = 1.1
#: Noise allowance when the smoke scale shrinks runs to milliseconds.
SMOKE_SLACK = 2.5


def _three_tank_batch(seed=SEED, executor=None):
    # lrc_s relaxed to 0.99: the default 0.999 sits exactly at the
    # sensor reliability, so the sequential test can never separate
    # the rate from its own LRC and the workload would not converge.
    spec = three_tank_spec(
        lrc_u=0.99, lrc_s=0.99, functions=bind_control_functions()
    )
    arch = three_tank_architecture()
    return spec, BatchSimulator(
        spec, arch, baseline_implementation(),
        faults=BernoulliFaults(arch), seed=seed, executor=executor,
    )


def test_bench_adaptive_savings(benchmark, report, bench_scale):
    iterations = bench_scale(ITERATIONS)
    rule = StoppingRule(min_runs=MIN_RUNS)
    spec, batch = _three_tank_batch()

    adaptive = benchmark.pedantic(
        lambda: batch.grow(MAX_RUNS, iterations, rule=rule).adaptive,
        rounds=1, iterations=1,
    )
    _, fixed_batch = _three_tank_batch()
    fixed = fixed_batch.run_batch(MAX_RUNS, iterations)

    averages = fixed.limit_averages()
    fixed_verdicts = {
        name: "meets"
        if float(averages[name].mean()) >= spec.communicators[name].lrc
        else "violates"
        for name in spec.communicators
    }
    final = adaptive.snapshots[-1]
    adaptive_verdicts = {
        diag.communicator: diag.verdict.value
        for diag in final.diagnostics
    }

    if bench_scale.full:
        assert adaptive.decision.reason == "converged"
        assert adaptive.savings_factor >= SAVINGS_FLOOR
        assert adaptive_verdicts == fixed_verdicts

    report(
        "adaptive stopping — runs saved on a converged 3TS workload",
        [
            ("budget (runs)", f"{MAX_RUNS}", f"{MAX_RUNS}"),
            ("stopped at", "(adaptive)", f"{adaptive.stopped_at}"),
            ("savings", f">= {SAVINGS_FLOOR:.0f}x",
             f"{adaptive.savings_factor:.1f}x"),
            ("verdicts agree", "yes",
             "yes" if adaptive_verdicts == fixed_verdicts else "NO"),
        ],
    )


def test_bench_chunked_growth_overhead(benchmark, report, bench_scale):
    iterations = bench_scale(OVERHEAD_ITERATIONS)
    schedule = checkpoint_schedule(OVERHEAD_RUNS, first=32)
    # An unreachable width target: the rule never stops early, so the
    # batch grows through every boundary of the schedule.
    rule = StoppingRule(
        sequential=False, target_rel_half_width=1e-12, min_runs=32
    )
    assert rule.schedule(OVERHEAD_RUNS) == schedule

    def run(chunked):
        _, batch = _three_tank_batch(seed=99)
        return batch.grow(
            OVERHEAD_RUNS, iterations, rule=rule if chunked else None
        )

    def best_of(fn, rounds=3):
        elapsed = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            elapsed.append(time.perf_counter() - start)
        return min(elapsed)

    chunked = benchmark.pedantic(
        lambda: run(True), rounds=1, iterations=1
    )
    assert [s.run for s in chunked.adaptive.snapshots] == list(schedule)

    plain_elapsed = best_of(lambda: run(False))
    chunked_elapsed = best_of(lambda: run(True))
    overhead = chunked_elapsed / plain_elapsed

    # Chunking only changes where the batch is cut; not one count.
    plain = run(False).result
    for name, counts in plain.reliable_counts.items():
        assert (chunked.result.reliable_counts[name] == counts).all()

    ceiling = (
        OVERHEAD_CEILING if bench_scale.full
        else OVERHEAD_CEILING * SMOKE_SLACK
    )
    assert overhead <= ceiling

    report(
        "adaptive stopping — chunked growth overhead",
        [
            ("one chunk (s)", "(baseline)", f"{plain_elapsed:.3f}"),
            (f"{len(schedule)} chunks (s)", f"<= {OVERHEAD_CEILING:.1f}x",
             f"{chunked_elapsed:.3f}"),
            ("overhead", f"<= {OVERHEAD_CEILING:.1f}x",
             f"{overhead:.2f}x"),
        ],
    )


def test_bench_adaptive_stop_parity_sharded(report, bench_scale):
    iterations = bench_scale(ITERATIONS)
    rule = StoppingRule(min_runs=MIN_RUNS)

    _, serial_batch = _three_tank_batch()
    serial = serial_batch.grow(MAX_RUNS, iterations, rule=rule).adaptive
    _, sharded_batch = _three_tank_batch(
        executor=SupervisedShardedExecutor(2)
    )
    sharded = sharded_batch.grow(
        MAX_RUNS, iterations, rule=rule
    ).adaptive

    assert sharded.stopped_at == serial.stopped_at
    assert sharded.decision.reason == serial.decision.reason
    for name, counts in serial.result.reliable_counts.items():
        assert (sharded.result.reliable_counts[name] == counts).all()

    report(
        "adaptive stopping — serial vs sharded stop parity",
        [
            ("serial stop", "(reference)", f"{serial.stopped_at}"),
            ("sharded stop", "= serial", f"{sharded.stopped_at}"),
            ("counts", "bit-identical", "bit-identical"),
        ],
    )
