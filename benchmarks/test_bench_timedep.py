"""E8 — the "general implementation" time-dependent mapping example.

Paper (Section 3): tasks t1, t2 write c1, c2 with LRC 0.9; hosts h1,
h2 have reliabilities 0.95 and 0.85.  Every static one-task-per-host
mapping violates one LRC, but alternating the assignment achieves a
limit average of (0.95 + 0.85) / 2 = 0.9 on both.  The bench checks
the analytic verdicts and validates the alternating mapping's limit
average by simulation.
"""

import pytest

from repro.experiments import (
    alternating_implementation,
    general_example,
    static_implementations,
)
from repro.reliability import check_reliability
from repro.runtime import BernoulliFaults, Simulator

ITERATIONS = 40000


def test_bench_timedep(benchmark, report):
    spec, arch = general_example()
    first, second = static_implementations()
    alternating = alternating_implementation()

    verdict = benchmark(
        check_reliability, spec, arch, alternating
    )

    static_first = check_reliability(spec, arch, first)
    static_second = check_reliability(spec, arch, second)
    assert not static_first.reliable
    assert not static_second.reliable
    assert verdict.reliable
    assert verdict.srgs()["c1"] == pytest.approx(0.9)

    simulated = Simulator(
        spec, arch, alternating, faults=BernoulliFaults(arch), seed=17
    ).run(ITERATIONS)
    averages = simulated.limit_averages()
    assert averages["c1"] == pytest.approx(0.9, abs=0.01)
    assert averages["c2"] == pytest.approx(0.9, abs=0.01)

    # The synthesiser rediscovers the alternation on its own.
    from repro.synthesis import synthesize_timedep

    synthesised = synthesize_timedep(spec, arch)
    assert not synthesised.static_suffices
    assert synthesised.phase_count == 2

    report(
        "E8 / Section 3 — time-dependent implementation",
        [
            ("static t1@h1,t2@h2 reliable", "no",
             "yes" if static_first.reliable else "no"),
            ("static t1@h2,t2@h1 reliable", "no",
             "yes" if static_second.reliable else "no"),
            ("alternating limavg (analytic)", "0.9",
             f"{verdict.srgs()['c1']:.6f}"),
            ("alternating limavg c1 (simulated)", "0.9",
             f"{averages['c1']:.4f}"),
            ("alternating limavg c2 (simulated)", "0.9",
             f"{averages['c2']:.4f}"),
            ("alternating reliable", "yes",
             "yes" if verdict.reliable else "no"),
            ("synthesis rediscovers the alternation",
             "(manual in the paper)",
             f"yes, {synthesised.phase_count} phases"),
        ],
    )
