"""The "general implementation" of Section 3: time-dependent mappings.

Two tasks, two hosts (0.95 and 0.85), LRC 0.9 on both outputs.  No
static one-task-per-host mapping is reliable, yet *alternating* the
assignment every iteration is — the definition of reliability is a
limit average, and the average of 0.95 and 0.85 is exactly 0.9.

The script runs the analytic analysis and then validates the limit
average by simulating half a million iterations.

Run:  python examples/time_dependent_mapping.py
"""

from repro import check_reliability
from repro.experiments import (
    alternating_implementation,
    general_example,
    static_implementations,
)
from repro.runtime import BernoulliFaults, Simulator


def main() -> None:
    spec, arch = general_example()
    print("hosts: h1 = 0.95, h2 = 0.85; LRC(c1) = LRC(c2) = 0.9\n")

    for label, implementation in zip(
        ("t1@h1, t2@h2", "t1@h2, t2@h1"), static_implementations()
    ):
        report = check_reliability(spec, arch, implementation)
        print(f"static mapping {label}:")
        for verdict in sorted(report.verdicts,
                              key=lambda v: v.communicator):
            if verdict.communicator == "x":
                continue
            mark = "ok" if verdict.satisfied else "VIOLATED"
            print(f"  {verdict.communicator}: SRG {verdict.srg:.3f} "
                  f"vs LRC {verdict.lrc} -> {mark}")
        print(f"  reliable: {report.reliable}\n")
        assert not report.reliable

    alternating = alternating_implementation()
    report = check_reliability(spec, arch, alternating)
    print("alternating mapping (phase 0: t1@h1,t2@h2; "
          "phase 1: t1@h2,t2@h1):")
    print(f"  limavg(c1) = {report.srgs()['c1']:.6f}, "
          f"limavg(c2) = {report.srgs()['c2']:.6f}")
    print(f"  reliable: {report.reliable}\n")
    assert report.reliable

    iterations = 500_000
    result = Simulator(
        spec, arch, alternating, faults=BernoulliFaults(arch), seed=42
    ).run(iterations)
    averages = result.limit_averages()
    print(f"simulated {iterations} iterations:")
    print(f"  observed limavg(c1) = {averages['c1']:.4f}")
    print(f"  observed limavg(c2) = {averages['c2']:.4f}")
    assert abs(averages["c1"] - 0.9) < 0.005
    assert abs(averages["c2"] - 0.9) < 0.005

    # The paper constructs the alternation by hand; the synthesiser
    # finds it automatically from the LRCs and the candidate pool.
    from repro.synthesis import synthesize_timedep

    synthesised = synthesize_timedep(spec, arch)
    print(
        f"\nsynthesis: no static mapping works "
        f"(static_suffices={synthesised.static_suffices}); found a "
        f"{synthesised.phase_count}-phase periodic mapping:"
    )
    for index, phase in enumerate(synthesised.implementation.phases):
        placement = ", ".join(
            f"{task}@{sorted(phase.hosts_of(task))[0]}"
            for task in sorted(spec.tasks)
        )
        print(f"  phase {index}: {placement}")


if __name__ == "__main__":
    main()
