"""Ablation — checkpointing [10] vs full re-execution [9].

The refinement the related work makes to time redundancy: re-execute
only the faulted *segment*.  The bench reproduces the shape of [10]'s
result on the 3TS: for a growing transient-fault budget ``f``, the
checkpointed worst-case time grows roughly with ``sqrt(f)`` segments
of recovery while full re-execution grows linearly with ``f * C`` — so
checkpointing keeps fitting the LET windows long after full
re-execution has overflowed them.
"""

from repro.experiments import (
    baseline_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.mapping import Implementation
from repro.synthesis import ReexecutionPlan, check_schedulability_mixed
from repro.synthesis.checkpointing import (
    CheckpointScheme,
    check_schedulability_checkpointed,
    optimal_segments,
    synthesize_checkpointing,
    worst_case_time,
)

WCET = 20
OVERHEAD = 1


def test_bench_checkpointing(benchmark, report):
    spec = three_tank_spec()
    arch = three_tank_architecture()
    impl = baseline_implementation()

    rows = []
    crossover_seen = False
    for faults in (1, 2, 4, 8):
        full_time = worst_case_time(
            WCET,
            CheckpointScheme(
                segments=1,
                checkpoint_overhead=0,
                recovery_overhead=0,
                tolerated_faults=faults,
            ),
        )
        segments = optimal_segments(WCET, OVERHEAD, faults)
        partial_time = worst_case_time(
            WCET,
            CheckpointScheme(
                segments=segments,
                checkpoint_overhead=OVERHEAD,
                recovery_overhead=0,
                tolerated_faults=faults,
            ),
        )
        reexec = ReexecutionPlan(
            Implementation(dict(impl.assignment), impl.sensor_binding),
            {name: faults + 1 for name in spec.tasks},
        )
        full_fits = check_schedulability_mixed(
            spec, reexec, arch
        ).schedulable
        plan = synthesize_checkpointing(
            spec, arch, impl,
            tolerated_faults=faults, checkpoint_overhead=OVERHEAD,
        )
        partial_fits = check_schedulability_checkpointed(
            spec, plan, arch
        ).schedulable
        if partial_fits and not full_fits:
            crossover_seen = True
        rows.append(
            (
                f"f={faults}: WCET full / checkpointed",
                "linear vs ~sqrt growth",
                f"{full_time} / {partial_time}  "
                f"(fits: {'yes' if full_fits else 'NO'} / "
                f"{'yes' if partial_fits else 'NO'})",
            )
        )

    # The crossover of [10]: a fault budget exists where only the
    # checkpointed scheme still fits the LET windows.
    assert crossover_seen

    plan = benchmark(
        synthesize_checkpointing, spec, arch, impl, 2, OVERHEAD
    )
    assert check_schedulability_checkpointed(
        spec, plan, arch
    ).schedulable

    report(
        "Ablation — checkpointing [10] vs full re-execution [9] "
        f"(task WCET {WCET}, checkpoint overhead {OVERHEAD})",
        rows,
    )
