"""Streaming convergence diagnostics for the Monte-Carlo estimator.

A fixed-run batch reports nothing until it finishes, even though at
paper-realistic reliabilities the LRC verdict ``lambda_c >= mu_c``
typically converges after a small fraction of the budget.  This
module makes the estimator observable while it runs — and lets it
stop itself — without touching the seed contract:

* **Checkpoint schedule** — :func:`checkpoint_schedule` fixes a
  deterministic set of global run-count boundaries (geometric by
  default).  Because the boundaries depend only on the budget, every
  statistic evaluated at them is a pure function of pooled counts;
  no clock, no RNG, no executor-dependent state.
* **Diagnostics** — :func:`snapshot_from_counts` evaluates, per
  communicator, the running reliable-write rate, Clopper–Pearson
  half-width, relative half-width, LRC margin, and a Wald SPRT
  accept/reject statistic (:mod:`repro.reliability.stats`).
* **Stopping** — :class:`StoppingRule` decides, at checkpoint
  boundaries only, whether the pooled evidence already settles every
  LRC (sequential test), has reached a target precision (relative
  half-width), or has exhausted the budget.  Decisions are
  deterministic functions of pooled counts, so the stop point is
  identical serial vs sharded, and the truncated result is
  bit-identical to a fixed-run batch of the same length.

:meth:`~repro.runtime.batch.BatchSimulator.grow` drives all of this:
it grows the batch chunk by chunk along the rule's schedule and takes
each snapshot from the merged batch's
:meth:`~repro.runtime.batch.BatchResult.prefix_pooled_counts`.

The pooled counts are counts of *reads*, which are correlated within
a run (see :meth:`~repro.runtime.batch.BatchResult.pooled_counts`), so
the binomial intervals and the SPRT computed here overstate the
evidence; moving them to run-level statistics is an open ROADMAP item.

The module is import-light: :mod:`scipy` is reached lazily through
:mod:`repro.reliability.stats` only when a snapshot is computed, so a
fixed-run batch, which takes no snapshots, never pays for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover
    from repro.reliability.stats import ComplianceVerdict
    from repro.runtime.batch import BatchResult


# ----------------------------------------------------------------------
# Checkpoint schedule


def checkpoint_schedule(
    max_runs: int, first: int = 64, growth: float = 2.0
) -> tuple[int, ...]:
    """Deterministic geometric run-count boundaries up to *max_runs*.

    ``first, ceil(first * growth), ...`` capped by — and always
    including — *max_runs*.  Purely arithmetic in its arguments, so
    every executor derives the identical schedule.
    """
    if max_runs < 1:
        raise AnalysisError(
            f"max_runs must be >= 1, got {max_runs}"
        )
    if first < 1:
        raise AnalysisError(f"first must be >= 1, got {first}")
    if growth <= 1.0:
        raise AnalysisError(
            f"growth must be > 1, got {growth}"
        )
    boundaries: list[int] = []
    boundary = first
    while boundary < max_runs:
        boundaries.append(boundary)
        boundary = max(boundary + 1, math.ceil(boundary * growth))
    boundaries.append(max_runs)
    return tuple(boundaries)


# ----------------------------------------------------------------------
# Diagnostics


@dataclass(frozen=True)
class CommunicatorDiagnostics:
    """Convergence state of one communicator's estimator."""

    communicator: str
    successes: int
    samples: int
    rate: float
    half_width: float
    rel_half_width: float
    lrc: float
    margin: float
    llr: float
    verdict: "ComplianceVerdict"

    def to_dict(self) -> dict:
        return {
            "communicator": self.communicator,
            "successes": self.successes,
            "samples": self.samples,
            "rate": self.rate,
            "half_width": self.half_width,
            "rel_half_width": self.rel_half_width,
            "lrc": self.lrc,
            "margin": self.margin,
            "llr": self.llr,
            "verdict": self.verdict.value,
        }


@dataclass(frozen=True)
class ConvergenceSnapshot:
    """All communicators' diagnostics at one checkpoint boundary."""

    run: int
    confidence: float
    indifference: float
    diagnostics: tuple[CommunicatorDiagnostics, ...]

    def decided(self) -> bool:
        """True when the sequential test settled every LRC."""
        from repro.reliability.stats import ComplianceVerdict

        return all(
            diag.verdict is not ComplianceVerdict.UNDECIDED
            for diag in self.diagnostics
        )

    def max_rel_half_width(self) -> float:
        """The widest relative interval across communicators."""
        return max(
            (diag.rel_half_width for diag in self.diagnostics),
            default=0.0,
        )

    def to_dict(self) -> dict:
        return {
            "run": self.run,
            "confidence": self.confidence,
            "indifference": self.indifference,
            "decided": self.decided(),
            "max_rel_half_width": self.max_rel_half_width(),
            "communicators": [
                diag.to_dict() for diag in self.diagnostics
            ],
        }

    def summary(self) -> str:
        """One human-readable line per communicator."""
        lines = [f"checkpoint @ {self.run} runs:"]
        for diag in self.diagnostics:
            lines.append(
                f"  {diag.communicator}: rate {diag.rate:.6f} "
                f"±{diag.half_width:.6f} (LRC {diag.lrc:.6f}, "
                f"margin {diag.margin:+.6f}, {diag.verdict.value})"
            )
        return "\n".join(lines)


def _sequential_verdict(
    successes: int,
    samples: int,
    lrc: float,
    confidence: float,
    indifference: float,
) -> tuple[float, "ComplianceVerdict"]:
    """SPRT statistic and verdict, degenerate LRCs staying undecided.

    The indifference half-width is clamped so the tested region
    ``(lrc - delta, lrc + delta)`` stays inside ``(0, 1)``; an LRC at
    0 or 1 admits no two-sided sequential test and reports
    ``UNDECIDED`` with a zero statistic.
    """
    from repro.reliability.stats import (
        ComplianceVerdict,
        sprt_log_likelihood,
        sprt_verdict,
    )

    delta = min(indifference, lrc / 2.0, (1.0 - lrc) / 2.0)
    if delta <= 0.0 or samples <= 0:
        return 0.0, ComplianceVerdict.UNDECIDED
    # An LRC within a few ulps of 0 or 1 can round the clamped
    # hypotheses onto the boundary; such a test is degenerate too.
    if not 0.0 < lrc - delta < lrc + delta < 1.0:
        return 0.0, ComplianceVerdict.UNDECIDED
    llr = sprt_log_likelihood(successes, samples, lrc, delta)
    verdict = sprt_verdict(
        successes, samples, lrc, confidence, delta
    )
    return llr, verdict


def snapshot_from_counts(
    run: int,
    pooled: Mapping[str, tuple[int, int]],
    lrcs: Mapping[str, float],
    confidence: float = 0.99,
    indifference: float = 0.002,
) -> ConvergenceSnapshot:
    """Evaluate every communicator's diagnostics from pooled counts.

    A pure function of its arguments — the property the whole layer
    rests on: any executor (serial, sharded, supervised, or a cache
    replay) that pools the same counts computes the identical
    snapshot, so stopping decisions taken on snapshots cannot depend
    on scheduling.
    """
    from repro.reliability.stats import binomial_confidence_interval

    diagnostics = []
    for name in sorted(pooled):
        successes, samples = pooled[name]
        lrc = float(lrcs.get(name, 0.0))
        if samples > 0:
            rate = successes / samples
            lower, upper = binomial_confidence_interval(
                successes, samples, confidence
            )
            half_width = (upper - lower) / 2.0
        else:
            rate = 0.0
            half_width = 0.5
        rel_half_width = (
            half_width / rate if rate > 0.0 else math.inf
        )
        llr, verdict = _sequential_verdict(
            successes, samples, lrc, confidence, indifference
        )
        diagnostics.append(
            CommunicatorDiagnostics(
                communicator=name,
                successes=successes,
                samples=samples,
                rate=rate,
                half_width=half_width,
                rel_half_width=rel_half_width,
                lrc=lrc,
                margin=rate - lrc,
                llr=llr,
                verdict=verdict,
            )
        )
    return ConvergenceSnapshot(
        run=run,
        confidence=confidence,
        indifference=indifference,
        diagnostics=tuple(diagnostics),
    )


# ----------------------------------------------------------------------
# Stopping


@dataclass(frozen=True)
class StopDecision:
    """Outcome of one stopping-rule evaluation at a checkpoint."""

    stop: bool
    run: int
    reason: "str | None" = None
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "stop": self.stop,
            "run": self.run,
            "reason": self.reason,
            "detail": dict(self.detail),
        }


@dataclass(frozen=True)
class StoppingRule:
    """Deterministic early-stopping policy over convergence snapshots.

    Criteria (all *enabled* criteria must hold to stop before the
    budget):

    * ``sequential`` — the Wald SPRT has settled every LRC
      (``meets`` or ``violates``; communicators whose true rate sits
      inside the indifference region never settle and run to the
      budget — that is the honest answer, not a defect);
    * ``target_rel_half_width`` — every communicator's Clopper–
      Pearson relative half-width is at or below the target.

    Decisions are taken only at schedule boundaries, never before
    ``min_runs``, and always at the ``max_runs`` budget.  Because
    :meth:`decide` sees only pooled counts, the stop point is a
    deterministic function of the batch seed and the rule — identical
    under every executor.
    """

    target_rel_half_width: "float | None" = None
    sequential: bool = True
    confidence: float = 0.99
    indifference: float = 0.002
    min_runs: int = 64
    growth: float = 2.0

    def __post_init__(self) -> None:
        if self.min_runs < 1:
            raise AnalysisError(
                f"min_runs must be >= 1, got {self.min_runs}"
            )
        if (
            self.target_rel_half_width is not None
            and self.target_rel_half_width <= 0.0
        ):
            raise AnalysisError(
                "target_rel_half_width must be positive, got "
                f"{self.target_rel_half_width}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise AnalysisError(
                f"confidence must lie in (0, 1), got {self.confidence}"
            )
        if self.indifference <= 0.0:
            raise AnalysisError(
                f"indifference must be positive, got {self.indifference}"
            )
        if not self.sequential and self.target_rel_half_width is None:
            raise AnalysisError(
                "stopping rule has no enabled criterion: enable the "
                "sequential test or set target_rel_half_width"
            )

    def schedule(self, max_runs: int) -> tuple[int, ...]:
        """The checkpoint boundaries this rule evaluates at."""
        return checkpoint_schedule(
            max_runs,
            first=min(self.min_runs, max_runs),
            growth=self.growth,
        )

    def decide(
        self, snapshot: ConvergenceSnapshot, max_runs: int
    ) -> StopDecision:
        """Evaluate the rule on one globally-pooled snapshot."""
        satisfied: list[str] = []
        pending: list[str] = []
        if self.sequential:
            (satisfied if snapshot.decided() else pending).append(
                "sequential"
            )
        if self.target_rel_half_width is not None:
            width_ok = (
                snapshot.max_rel_half_width()
                <= self.target_rel_half_width
            )
            (satisfied if width_ok else pending).append(
                "target-width"
            )
        detail = {
            "satisfied": satisfied,
            "pending": pending,
            "max_rel_half_width": snapshot.max_rel_half_width(),
        }
        converged = bool(satisfied) and not pending
        if snapshot.run >= max_runs:
            return StopDecision(
                stop=True,
                run=snapshot.run,
                reason="converged" if converged else "budget",
                detail=detail,
            )
        if snapshot.run < self.min_runs or not converged:
            return StopDecision(
                stop=False, run=snapshot.run, detail=detail
            )
        return StopDecision(
            stop=True,
            run=snapshot.run,
            reason="converged",
            detail=detail,
        )


@dataclass(frozen=True)
class AdaptiveResult:
    """A batch stopped early by a :class:`StoppingRule`.

    ``result`` is bit-identical to ``run_batch(stopped_at, ...)`` of
    the same seed — :meth:`~repro.runtime.batch.BatchSimulator.grow`
    only ever truncates the run sequence at a checkpoint boundary,
    never reorders or reseeds it.
    """

    result: "BatchResult"
    stopped_at: int
    max_runs: int
    schedule: tuple[int, ...]
    snapshots: tuple[ConvergenceSnapshot, ...]
    decision: StopDecision

    @property
    def runs_saved(self) -> int:
        return self.max_runs - self.stopped_at

    @property
    def savings_factor(self) -> float:
        return self.max_runs / self.stopped_at

    def to_dict(self) -> dict:
        """Stopping metadata (without the batch payload)."""
        final = (
            self.snapshots[-1].to_dict() if self.snapshots else None
        )
        return {
            "stopped_at": self.stopped_at,
            "max_runs": self.max_runs,
            "runs_saved": self.runs_saved,
            "savings_factor": self.savings_factor,
            "reason": self.decision.reason,
            "schedule": list(self.schedule),
            "checkpoints": len(self.snapshots),
            "final_snapshot": final,
        }
