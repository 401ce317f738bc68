"""Shard-scaling of the multi-process batch executor (PR 7).

The :class:`~repro.service.supervision.SupervisedShardedExecutor`
exists to push
Monte-Carlo verification past one core: paper-realistic LRC levels
(0.999+) need 10^6+ runs, so the batch path must scale with worker
processes.  This bench runs the large 3TS batch serially and with 4
shard workers, asserts the outputs are bit-identical, and — on
machines that actually have >= 4 cores and at the full benchmark
budget — guards a >= 1.6x wall-clock speedup (4 forked workers pay
fork + pickle-return overhead; linear scaling is not expected on a
workload this branchy, but sub-1.6x would mean the sharding is
broken).

Single-core CI boxes still execute the bit-identity half; only the
timing assertion is gated on the hardware.
"""

import os
import time

import numpy as np
import pytest

from repro.experiments import (
    bind_control_functions,
    scenario1_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.runtime import BatchSimulator, BernoulliFaults, SerialExecutor
from repro.service.supervision import SupervisedShardedExecutor

RUNS = 64
ITERATIONS = 1250
WORKERS = 4
SPEEDUP_FLOOR = 1.6


def _simulator(executor):
    spec = three_tank_spec(
        lrc_u=0.9975, functions=bind_control_functions()
    )
    arch = three_tank_architecture()
    return BatchSimulator(
        spec, arch, scenario1_implementation(),
        faults=BernoulliFaults(arch), seed=99, executor=executor,
    )


def test_bench_sharded_scaling(benchmark, report, bench_scale):
    iterations = bench_scale(ITERATIONS)
    runs = max(WORKERS, bench_scale(RUNS))

    sharded_simulator = _simulator(SupervisedShardedExecutor(WORKERS))
    sharded = benchmark.pedantic(
        lambda: sharded_simulator.run_batch(runs, iterations),
        rounds=1, iterations=1,
    )

    # Warm re-runs (outside the fixture) for the speedup ratio, so
    # fork/numpy warm-up doesn't pollute either side.
    started = time.perf_counter()
    sharded_simulator.run_batch(runs, iterations)
    sharded_elapsed = time.perf_counter() - started

    serial_simulator = _simulator(SerialExecutor())
    started = time.perf_counter()
    serial = serial_simulator.run_batch(runs, iterations)
    serial_elapsed = time.perf_counter() - started

    # Bit-identity holds on any hardware, at any scale.
    for name in serial.reliable_counts:
        assert np.array_equal(
            serial.reliable_counts[name], sharded.reliable_counts[name]
        )
    assert serial.executor == sharded.executor

    speedup = serial_elapsed / max(sharded_elapsed, 1e-9)
    cores = os.cpu_count() or 1
    report(
        "PR 7 — shard scaling on the large 3TS batch",
        [
            ("runs x iterations",
             f"{RUNS} x {ITERATIONS}", f"{runs} x {iterations}"),
            ("serial wall-clock", "-", f"{serial_elapsed:.3f}s"),
            (f"sharded x{WORKERS} wall-clock", "-",
             f"{sharded_elapsed:.3f}s"),
            ("speedup", f">= {SPEEDUP_FLOOR}x (4+ cores)",
             f"{speedup:.2f}x on {cores} core(s)"),
            ("bit-identical", "yes", "yes"),
        ],
    )

    if not bench_scale.full:
        pytest.skip("speedup floor asserted only at full scale")
    if cores < WORKERS:
        pytest.skip(
            f"speedup floor needs >= {WORKERS} cores, have {cores}"
        )
    assert speedup >= SPEEDUP_FLOOR
