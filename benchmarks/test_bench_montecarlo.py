"""E6 — Monte-Carlo validation of Proposition 1 (SLLN convergence).

Proposition 1 is proved with the strong law of large numbers: the
per-iteration reliability events are independent with probability
``lambda_c``, so the long-run fraction of reliable accesses converges
to the SRG with probability 1.  The bench simulates the 3TS under the
Bernoulli fault model and compares observed reliable-access fractions
with the analytic SRGs of Section 4.

The ``r1``/``r2`` rows show a known gap: ``estimate_i`` reads ``l_i``
and ``u_i = t_i(l_i)`` in series, so the SRG induction counts
``l_i``'s failure twice and its value sits below the observed rate
(ROADMAP item 3).  The Hoeffding bound below is loose enough to hold
anyway; no assertion singles them out.

Since the compile-then-execute split the sampling runs on the
vectorized batch executor (:mod:`repro.runtime.batch`): ``RUNS``
independent runs of ``ITERATIONS`` periods each, seeded through the
``SeedSequence.spawn`` contract, pooled for the SLLN comparison.  The
scalar-vs-batch equivalence itself is covered by
``test_bench_batch_montecarlo.py`` and the differential tests.
"""

import math

import pytest

from repro.experiments import (
    scenario1_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.reliability import communicator_srgs
from repro.runtime import BatchSimulator, BernoulliFaults

RUNS = 16
ITERATIONS = 1250  # x RUNS = 20000 simulated hyperperiods

#: Communicators whose SRG counts a shared upstream failure twice.
SHARED_UPSTREAM = {"r1": "l1", "r2": "l2"}


def test_bench_montecarlo(benchmark, report, bench_scale):
    iterations = bench_scale(ITERATIONS)
    spec = three_tank_spec(lrc_u=0.9975)
    arch = three_tank_architecture()
    impl = scenario1_implementation()
    srgs = communicator_srgs(spec, impl, arch)

    def simulate():
        simulator = BatchSimulator(
            spec, arch, impl, faults=BernoulliFaults(arch), seed=99,
        )
        return simulator.run_batch(RUNS, iterations)

    result = benchmark.pedantic(simulate, rounds=1, iterations=1)
    assert result.executor == "vectorized"
    estimates = result.srg_estimates()

    rows = []
    for name in sorted(spec.communicators):
        samples = RUNS * result.samples_per_run[name]
        bound = math.sqrt(math.log(2e6) / (2 * samples))
        if bench_scale.full:
            assert estimates[name] == pytest.approx(
                srgs[name], abs=bound
            )
        label = f"limavg({name})"
        if name in SHARED_UPSTREAM:
            label += f", {SHARED_UPSTREAM[name]} counted twice"
        rows.append(
            (label, f"SRG {srgs[name]:.6f}", f"{estimates[name]:.6f}")
        )
    rows.append(
        ("LRC 0.9975 met at runtime", "yes (Prop. 1)",
         "yes" if estimates["u1"] >= 0.9975 - 0.001 else "no")
    )
    report("E6 / Proposition 1 — Monte-Carlo SLLN validation", rows)
