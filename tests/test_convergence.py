"""Convergence telemetry and deterministic adaptive stopping.

The tentpole contract, in three differential claims driven over
Hypothesis-generated systems:

* **truncation**: an adaptive batch stopped at ``n`` runs is
  bit-identical to a fixed-run batch of exactly ``n`` runs — the
  stopping rule only chooses *where* to cut the same deterministic
  run sequence, never *what* is simulated;
* **stop parity**: the stop point is a function of pooled counts at
  global checkpoint boundaries only, so serial, in-process-sharded, and
  supervised-with-injected-kill executions stop at the same run;
* **stream sanity**: the snapshot stream of a sharded growth is
  run-monotone with non-decreasing counts — one global convergence
  trajectory regardless of how the batch was sharded.

All three run through :meth:`~repro.runtime.batch.BatchSimulator.grow`.
The unit tests pin down the checkpoint schedule, the sequential
(SPRT) verdicts, and the stopping rule's decision table.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.experiments import (
    bind_control_functions,
    three_tank_architecture,
    three_tank_spec,
)
from repro.experiments.three_tank_system import baseline_implementation
from repro.reliability.stats import (
    ComplianceVerdict,
    interval_half_width,
    sprt_bounds,
    sprt_log_likelihood,
    sprt_verdict,
)
from repro.runtime import BatchSimulator, BernoulliFaults, SerialExecutor
from repro.service.supervision import ChaosAction, SupervisedShardedExecutor
from repro.telemetry.convergence import (
    StoppingRule,
    checkpoint_schedule,
    snapshot_from_counts,
)

from sharding import InProcessSharder
from strategies import systems

RELAXED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def three_tank_batch(seed=7, executor=None, lrc_s=0.99):
    # lrc_s relaxed below the sensor reliability so the sequential
    # test can actually separate the rate from the LRC.
    spec = three_tank_spec(
        lrc_u=0.99, lrc_s=lrc_s, functions=bind_control_functions()
    )
    arch = three_tank_architecture()
    return spec, BatchSimulator(
        spec, arch, baseline_implementation(),
        faults=BernoulliFaults(arch), seed=seed, executor=executor,
    )


def assert_identical(left, right):
    assert left.runs == right.runs
    assert left.iterations == right.iterations
    assert left.samples_per_run == right.samples_per_run
    assert set(left.reliable_counts) == set(right.reliable_counts)
    for name in left.reliable_counts:
        assert np.array_equal(
            left.reliable_counts[name], right.reliable_counts[name]
        )
    assert left.monitor_events == right.monitor_events


# ----------------------------------------------------------------------
# The checkpoint schedule.
# ----------------------------------------------------------------------


def test_checkpoint_schedule_is_geometric_and_ends_at_budget():
    assert checkpoint_schedule(320, first=8) == (
        8, 16, 32, 64, 128, 256, 320,
    )
    assert checkpoint_schedule(64, first=64) == (64,)
    assert checkpoint_schedule(5, first=64) == (5,)


@given(
    st.integers(min_value=1, max_value=10_000),
    st.integers(min_value=1, max_value=512),
)
def test_checkpoint_schedule_properties(max_runs, first):
    schedule = checkpoint_schedule(max_runs, first=first)
    assert schedule[-1] == max_runs
    assert list(schedule) == sorted(set(schedule))
    assert all(1 <= boundary <= max_runs for boundary in schedule)


def test_checkpoint_schedule_rejects_nonsense():
    with pytest.raises(AnalysisError):
        checkpoint_schedule(0)
    with pytest.raises(AnalysisError):
        checkpoint_schedule(10, first=0)
    with pytest.raises(AnalysisError):
        checkpoint_schedule(10, growth=1.0)


# ----------------------------------------------------------------------
# The sequential test (Wald SPRT) and interval statistics.
# ----------------------------------------------------------------------


def test_interval_half_width_matches_clopper_pearson():
    from repro.reliability.stats import binomial_confidence_interval

    lower, upper = binomial_confidence_interval(95, 100)
    assert interval_half_width(95, 100) == pytest.approx(
        (upper - lower) / 2
    )


def test_sprt_bounds_are_symmetric_and_ordered():
    accept, reject = sprt_bounds(0.99)
    assert accept > 0 > reject
    assert accept == pytest.approx(-reject)
    with pytest.raises(AnalysisError):
        sprt_bounds(1.0)


def test_sprt_llr_moves_with_the_evidence():
    # All successes push towards accept; all failures towards reject.
    up = sprt_log_likelihood(1000, 1000, 0.99)
    down = sprt_log_likelihood(900, 1000, 0.99)
    assert up > 0 > down


def test_sprt_verdict_decides_clear_cases():
    assert sprt_verdict(9990, 10_000, 0.99) is ComplianceVerdict.MEETS
    assert (
        sprt_verdict(9000, 10_000, 0.99)
        is ComplianceVerdict.VIOLATES
    )
    assert sprt_verdict(99, 100, 0.99) is ComplianceVerdict.UNDECIDED


def test_snapshot_clamps_degenerate_indifference_region():
    # An LRC of exactly 1.0 leaves no room for an indifference
    # region: the communicator stays undecided instead of raising.
    snapshot = snapshot_from_counts(
        10, {"c": (1000, 1000)}, {"c": 1.0}
    )
    diag = snapshot.diagnostics[0]
    assert diag.verdict is ComplianceVerdict.UNDECIDED
    assert diag.llr == 0.0
    assert not snapshot.decided()


def test_snapshot_handles_zero_samples():
    snapshot = snapshot_from_counts(0, {"c": (0, 0)}, {"c": 0.9})
    diag = snapshot.diagnostics[0]
    assert diag.half_width == 0.5
    assert math.isinf(diag.rel_half_width)
    assert diag.verdict is ComplianceVerdict.UNDECIDED


# ----------------------------------------------------------------------
# The stopping rule's decision table.
# ----------------------------------------------------------------------


def _decided_snapshot(run, samples=10_000):
    return snapshot_from_counts(
        run, {"c": (samples, samples)}, {"c": 0.9}
    )


def _undecided_snapshot(run):
    return snapshot_from_counts(run, {"c": (99, 100)}, {"c": 0.99})


def test_stopping_rule_stops_on_sequential_decision():
    rule = StoppingRule(min_runs=8)
    decision = rule.decide(_decided_snapshot(64), max_runs=320)
    assert decision.stop and decision.reason == "converged"
    assert "sequential" in decision.detail["satisfied"]


def test_stopping_rule_respects_min_runs():
    rule = StoppingRule(min_runs=128)
    assert not rule.decide(_decided_snapshot(64), max_runs=320).stop


def test_stopping_rule_exhausts_budget():
    rule = StoppingRule(min_runs=8)
    decision = rule.decide(_undecided_snapshot(320), max_runs=320)
    assert decision.stop and decision.reason == "budget"


def test_stopping_rule_target_width_criterion():
    rule = StoppingRule(
        target_rel_half_width=1e-6, sequential=False, min_runs=8
    )
    # Clearly decided but the interval is still wide: keep going.
    assert not rule.decide(_decided_snapshot(64, 100), max_runs=320).stop
    tight = _decided_snapshot(64, 10_000_000)
    assert rule.decide(tight, max_runs=320).stop


def test_stopping_rule_rejects_nonsense():
    with pytest.raises(AnalysisError):
        StoppingRule(target_rel_half_width=0.0)
    with pytest.raises(AnalysisError):
        StoppingRule(confidence=1.0)
    with pytest.raises(AnalysisError):
        StoppingRule(min_runs=0)
    with pytest.raises(AnalysisError):
        StoppingRule(sequential=False, target_rel_half_width=None)


# ----------------------------------------------------------------------
# Differential claim (a): adaptive == fixed-run truncation.
# ----------------------------------------------------------------------


@RELAXED
@given(
    systems(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_adaptive_equals_fixed_batch_truncated_at_stop(system, seed):
    spec, arch, impl = system
    rule = StoppingRule(min_runs=2)

    def batch():
        return BatchSimulator(
            spec, arch, impl,
            faults=BernoulliFaults(arch), seed=seed,
        )

    adaptive = batch().grow(12, 6, rule=rule).adaptive
    fixed = batch().run_batch(adaptive.stopped_at, 6)
    assert adaptive.result.runs == adaptive.stopped_at
    assert_identical(adaptive.result, fixed)


# ----------------------------------------------------------------------
# Differential claim (b): stop parity across executors.
# ----------------------------------------------------------------------


@RELAXED
@given(
    systems(),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=5),
)
def test_stop_point_identical_serial_vs_sharded(system, seed, jobs):
    spec, arch, impl = system
    rule = StoppingRule(min_runs=2)

    def run(executor):
        return BatchSimulator(
            spec, arch, impl,
            faults=BernoulliFaults(arch), seed=seed,
            executor=executor,
        ).grow(12, 6, rule=rule).adaptive

    serial = run(SerialExecutor())
    sharded = run(InProcessSharder(jobs))
    assert sharded.stopped_at == serial.stopped_at
    assert sharded.decision.to_dict() == serial.decision.to_dict()
    assert_identical(serial.result, sharded.result)
    assert [s.to_dict() for s in sharded.snapshots] == [
        s.to_dict() for s in serial.snapshots
    ]


class KillFirstAttempt:
    """Chaos plan: kill every shard's first attempt, then behave."""

    def action(self, shard, attempt):
        return ChaosAction("kill") if attempt == 0 else None


def test_stop_point_survives_supervised_worker_kills():
    rule = StoppingRule(min_runs=8)
    _, serial_batch = three_tank_batch()
    serial = serial_batch.grow(320, 20, rule=rule).adaptive
    executor = SupervisedShardedExecutor(2, chaos=KillFirstAttempt())
    _, supervised_batch = three_tank_batch(executor=executor)
    supervised = supervised_batch.grow(320, 20, rule=rule).adaptive

    assert executor.retry_events, "no kill was injected"
    assert supervised.stopped_at == serial.stopped_at
    assert supervised.decision.reason == serial.decision.reason
    assert_identical(serial.result, supervised.result)


# ----------------------------------------------------------------------
# Differential claim (c): sharded snapshot streams are monotone.
# ----------------------------------------------------------------------


@RELAXED
@given(
    systems(),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=5),
)
def test_merged_checkpoint_stream_is_monotone(system, seed, jobs):
    spec, arch, impl = system
    # Width target unreachable: never stops before the budget.
    rule = StoppingRule(
        sequential=False, target_rel_half_width=1e-12, min_runs=2
    )
    snapshots: list = []
    BatchSimulator(
        spec, arch, impl,
        faults=BernoulliFaults(arch), seed=seed,
        executor=InProcessSharder(jobs),
    ).grow(
        12, 6, rule=rule,
        on_snapshot=lambda snapshot, _: snapshots.append(snapshot),
    )
    runs = [snapshot.run for snapshot in snapshots]
    assert runs == list(checkpoint_schedule(12, first=2))
    for earlier, later in zip(snapshots, snapshots[1:]):
        previous = {
            diag.communicator: diag for diag in earlier.diagnostics
        }
        for diag in later.diagnostics:
            assert diag.successes >= previous[diag.communicator].successes
            assert diag.samples >= previous[diag.communicator].samples
            assert 0 <= diag.successes <= diag.samples
