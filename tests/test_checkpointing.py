"""Tests for the checkpointing substrate (related work [10])."""

import math

import pytest

from repro.errors import SynthesisError
from repro.experiments import (
    baseline_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.synthesis.checkpointing import (
    CheckpointPlan,
    CheckpointScheme,
    check_schedulability_checkpointed,
    optimal_segments,
    synthesize_checkpointing,
    task_reliability_checkpointed,
    worst_case_time,
)


def scheme(n=4, o=2, r=1, f=2):
    return CheckpointScheme(
        segments=n,
        checkpoint_overhead=o,
        recovery_overhead=r,
        tolerated_faults=f,
    )


# -- scheme validation ----------------------------------------------------------


def test_scheme_validation():
    with pytest.raises(SynthesisError):
        scheme(n=0)
    with pytest.raises(SynthesisError):
        scheme(o=-1)
    with pytest.raises(SynthesisError):
        scheme(f=-1)


# -- worst-case time -------------------------------------------------------------


def test_worst_case_time_formula():
    # C=100, n=10, o=2, r=1, f=2: 100 + 20 + 2*(10 + 2 + 1) = 146.
    s = scheme(n=10, o=2, r=1, f=2)
    assert worst_case_time(100, s) == 146


def test_no_checkpoints_equals_full_reexecution():
    # n=1: every fault re-runs the whole task.
    s = scheme(n=1, o=0, r=0, f=2)
    assert worst_case_time(100, s) == 300


def test_zero_faults_only_pays_checkpoints():
    s = scheme(n=5, o=2, r=1, f=0)
    assert worst_case_time(100, s) == 110


# -- optimal segment count ----------------------------------------------------------


def test_optimal_segments_matches_closed_form():
    # n* = sqrt(f*C/o) = sqrt(2*100/2) = 10.
    assert optimal_segments(100, 2, 2, 1) == 10


def test_optimal_segments_is_argmin():
    wcet, o, r, f = 100, 3, 1, 3
    best = optimal_segments(wcet, o, f, r)
    best_time = worst_case_time(
        wcet, scheme(n=best, o=o, r=r, f=f)
    )
    for n in range(1, 60):
        assert best_time <= worst_case_time(
            wcet, scheme(n=n, o=o, r=r, f=f)
        )


def test_optimal_segments_degenerate_cases():
    assert optimal_segments(100, 2, 0) == 1  # no faults: no checkpoints
    assert optimal_segments(100, 0, 2) == 100  # free checkpoints


# -- reliability -----------------------------------------------------------------


def test_reliability_matches_reexecution_when_unsegmented():
    # n=1, f=k-1 attempts-equivalent.
    for hrel in (0.9, 0.99):
        for k in (1, 2, 3):
            s = scheme(n=1, o=0, r=0, f=k - 1)
            assert task_reliability_checkpointed(
                hrel, s
            ) == pytest.approx(1 - (1 - hrel) ** k)


def test_reliability_increases_with_fault_budget():
    previous = 0.0
    for f in range(4):
        value = task_reliability_checkpointed(
            0.95, scheme(n=5, f=f)
        )
        assert value > previous
        previous = value
    assert previous <= 1.0


def test_reliability_segmentation_helps_coverage():
    # With the same fault budget, finer segments survive more total
    # failure probability mass (each fault wastes a smaller unit).
    coarse = task_reliability_checkpointed(0.9, scheme(n=1, f=2, o=0))
    fine = task_reliability_checkpointed(0.9, scheme(n=10, f=2, o=0))
    assert 0 < coarse <= 1
    assert 0 < fine <= 1


def test_reliability_validation():
    with pytest.raises(SynthesisError):
        task_reliability_checkpointed(0.0, scheme())


def test_negative_binomial_sums_to_one_in_the_limit():
    # With an enormous fault budget the task always completes.
    s = scheme(n=4, f=500)
    assert task_reliability_checkpointed(0.5, s) == pytest.approx(1.0)


# -- plan synthesis and schedulability ----------------------------------------------


def test_synthesize_checkpointing_three_tank():
    spec = three_tank_spec()
    arch = three_tank_architecture()
    impl = baseline_implementation()
    plan = synthesize_checkpointing(
        spec, arch, impl, tolerated_faults=2, checkpoint_overhead=1,
    )
    assert set(plan.schemes) == set(spec.tasks)
    for task, s in plan.schemes.items():
        assert s.segments == optimal_segments(20, 1, 2, 0)
    report = check_schedulability_checkpointed(spec, plan, arch)
    assert report.schedulable


def test_checkpointing_fits_where_full_reexecution_does_not():
    """The headline claim of [10]: tolerating f faults by partial
    re-execution fits LET windows that full re-execution overflows.

    The binding constraint is h3's estimator pair: window [400, 490]
    (write 500 minus WCTT 10) shared by two tasks.  Tolerating f = 2
    faults by full re-execution costs 3 x 20 = 60 each (120 > 90,
    infeasible); the checkpointed scheme costs 36 each (72 <= 90).
    """
    from repro.mapping import Implementation
    from repro.synthesis import ReexecutionPlan, check_schedulability_mixed

    spec = three_tank_spec()
    arch = three_tank_architecture()
    impl = baseline_implementation()
    wcet, f, o = 20, 2, 1

    full = worst_case_time(wcet, scheme(n=1, o=0, r=0, f=f))
    assert full == wcet * (f + 1) == 60
    best_n = optimal_segments(wcet, o, f)
    partial = worst_case_time(wcet, scheme(n=best_n, o=o, r=0, f=f))
    assert partial < full

    # Full re-execution (f+1 attempts of everything): infeasible.
    reexec = ReexecutionPlan(
        Implementation(dict(impl.assignment), impl.sensor_binding),
        {name: f + 1 for name in spec.tasks},
    )
    assert not check_schedulability_mixed(spec, reexec, arch).schedulable

    # Checkpointed plan with the same fault budget: feasible.
    plan = synthesize_checkpointing(
        spec, arch, impl, tolerated_faults=f, checkpoint_overhead=o,
    )
    report = check_schedulability_checkpointed(spec, plan, arch)
    assert report.schedulable


def test_plan_scheme_lookup():
    plan = CheckpointPlan(
        implementation=baseline_implementation(),
        schemes={"t1": scheme()},
    )
    assert plan.scheme_of("t1").segments == 4
    with pytest.raises(SynthesisError, match="no checkpoint scheme"):
        plan.scheme_of("ghost")
