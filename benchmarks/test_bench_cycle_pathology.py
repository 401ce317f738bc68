"""E7 — specification with memory: the cycle pathology of Section 3.

Paper: "Consider a task t, with model 1, that reads and writes to a
communicator c.  Once bottom is written, the value of c is always
bottom from that instant on.  Hence if lambda_t < 1, then the long-run
average of the number of reliable values of c is 0 with probability 1.
The solution ... at least one task in the cycle with an independent
input failure model."

Every average here comes from the vectorized batch executor, which
steps a cyclic component over iterations; the bench also records its
speedup over the scalar loop on the parallel cycle and re-checks the
seed contract there (batch run 0 == scalar run on spawn child 0).
"""

import time

import numpy as np
import pytest

from repro.arch import Architecture, ExecutionMetrics, Host, Sensor
from repro.experiments import (
    cyclic_specification,
    cyclic_specification_with_input,
)
from repro.mapping import Implementation
from repro.model import unsafe_cycles
from repro.reliability import analyze_memory_cycles
from repro.runtime import BatchSimulator, BernoulliFaults, Simulator

RUNS = 16
ITERATIONS = 6000
HOST_RELIABILITY = 0.995
SPEEDUP_FLOOR = 10.0


def arch_one_host():
    return Architecture(
        hosts=[Host("h1", HOST_RELIABILITY)],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )


def run(model, seed=0):
    """Pooled limit average of ``acc`` over a batch of the self-loop."""
    spec = cyclic_specification(model)
    arch = arch_one_host()
    impl = Implementation({"integrate": {"h1"}})
    result = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch), seed=seed
    ).run_batch(RUNS, ITERATIONS)
    assert result.executor == "vectorized"
    return result.srg_estimates()["acc"]


def test_bench_cycle_pathology(benchmark, report, bench_scale):
    series_average = benchmark.pedantic(
        run, args=("series",), rounds=1, iterations=1
    )
    independent_average = run("independent")

    # The series cycle collapses towards 0 (it dies at the first
    # failure, expected within ~1/0.005 = 200 iterations of 6000).
    assert series_average < 0.15
    # The independent breaker restores limavg = lambda_t.
    assert independent_average == pytest.approx(
        HOST_RELIABILITY, abs=0.01
    )
    assert unsafe_cycles(cyclic_specification("series")) == [["acc"]]
    assert unsafe_cycles(cyclic_specification("independent")) == []

    # Extension: a PARALLEL breaker with a fresh input recovers to a
    # stationary average between 0 and lambda_t, predicted exactly by
    # the Markov analysis.
    spec = cyclic_specification_with_input("parallel")
    arch = Architecture(
        hosts=[Host("h1", HOST_RELIABILITY)],
        sensors=[Sensor("s1", 0.8)],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )
    impl = Implementation({"integrate": {"h1"}}, {"ext": {"s1"}})
    predicted = analyze_memory_cycles(spec, impl, arch)["acc"]
    batch = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch), seed=2
    )
    batch.run_batch(RUNS, ITERATIONS)  # warm-up
    start = time.perf_counter()
    result = batch.run_batch(RUNS, ITERATIONS)
    batch_rate = RUNS * ITERATIONS / (time.perf_counter() - start)
    simulated = result.srg_estimates()["acc"]
    assert simulated == pytest.approx(
        predicted.limit_average, abs=0.02
    )

    # Scalar reference on spawn child 0: the throughput basis and the
    # seed contract in one run.
    scalar_iterations = bench_scale(ITERATIONS)
    scalar = Simulator(
        spec, arch, impl,
        faults=BernoulliFaults(arch),
        seed=np.random.default_rng(np.random.SeedSequence(2).spawn(RUNS)[0]),
    )
    start = time.perf_counter()
    contract = scalar.run(scalar_iterations)
    scalar_rate = scalar_iterations / (time.perf_counter() - start)
    speedup = batch_rate / scalar_rate
    if scalar_iterations == ITERATIONS:
        for name, trace in contract.abstract().items():
            assert result.reliable_counts[name][0] == trace.reliable_count()
    if bench_scale.full:
        assert speedup >= SPEEDUP_FLOOR

    report(
        "E7 / Section 3 — communicator cycle pathology "
        f"(lambda_t = {HOST_RELIABILITY}, {RUNS} runs x {ITERATIONS})",
        [
            ("limavg, series cycle", "0 (a.s.)",
             f"{series_average:.4f}"),
            ("limavg, independent breaker", f"{HOST_RELIABILITY}",
             f"{independent_average:.4f}"),
            ("series cycle flagged unsafe", "yes", "yes"),
            ("independent cycle flagged safe", "yes", "yes"),
            ("limavg, parallel breaker + input (Markov)",
             "(beyond the paper)",
             f"{predicted.limit_average:.4f} predicted / "
             f"{simulated:.4f} simulated"),
            ("batch vs scalar speedup, parallel cycle",
             f">= {SPEEDUP_FLOOR:.0f}x", f"{speedup:.0f}x"),
        ],
    )
