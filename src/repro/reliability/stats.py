"""Statistical tests for LRC compliance of finite traces.

Proposition 1 speaks about limit averages — infinite traces.  A
simulation only ever yields a finite prefix, so deciding "does this
implementation meet its LRCs?" from observed data is a hypothesis
test, not a comparison.  This module provides the standard machinery:

* an exact one-sided binomial test of ``H0: p >= lrc`` against
  ``H1: p < lrc`` (rejecting H0 means the trace is evidence of an LRC
  violation);
* Clopper–Pearson confidence intervals for the per-access reliability;
* a three-way verdict (*meets* / *violates* / *undecided*) per
  communicator, used by the Monte-Carlo tooling when it reports
  runtime compliance.

These tests assume i.i.d. Bernoulli samples, and per-access
reliability events are *not* i.i.d., even under the Bernoulli fault
model: a communicator accessed several times per period observes the
same write several times, so the reads within one run are positively
correlated (the measured per-run design effect on the three-tank
baseline is about 4.9).  Fed pooled read counts, the intervals here
are too narrow and the verdicts overconfident.  Independent runs (or
writes) are the honest unit of evidence; moving the Monte-Carlo
tooling to run-level statistics is ROADMAP's first open item.

:mod:`scipy` is imported inside the two functions that evaluate a
distribution, so importing :mod:`repro` does not need it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.reliability.traces import AbstractTrace


class ComplianceVerdict(enum.Enum):
    """Outcome of a statistical LRC check on a finite trace."""

    MEETS = "meets"
    VIOLATES = "violates"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class LRCTest:
    """Result of testing one communicator's trace against its LRC."""

    communicator: str
    lrc: float
    samples: int
    successes: int
    p_value_violation: float  # P(X <= successes | p = lrc)
    p_value_compliance: float  # P(X >= successes | p = lrc)
    confidence_interval: tuple[float, float]
    verdict: ComplianceVerdict

    @property
    def observed(self) -> float:
        """The observed reliable fraction."""
        return self.successes / self.samples


def binomial_confidence_interval(
    successes: int, samples: int, confidence: float = 0.99
) -> tuple[float, float]:
    """Return the Clopper–Pearson interval for a binomial proportion."""
    if samples <= 0:
        raise AnalysisError("confidence interval needs samples > 0")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(
            f"confidence must lie in (0, 1), got {confidence}"
        )
    from scipy import stats as scipy_stats

    alpha = 1.0 - confidence
    if successes == 0:
        lower = 0.0
    else:
        lower = scipy_stats.beta.ppf(
            alpha / 2.0, successes, samples - successes + 1
        )
    if successes == samples:
        upper = 1.0
    else:
        upper = scipy_stats.beta.ppf(
            1.0 - alpha / 2.0, successes + 1, samples - successes
        )
    return float(lower), float(upper)


def lrc_test_from_counts(
    communicator: str,
    successes: int,
    samples: int,
    lrc: float,
    confidence: float = 0.99,
) -> LRCTest:
    """Test aggregated reliable-access counts against an LRC.

    The count-based entry point of the compliance test: feeds directly
    off :class:`~repro.runtime.batch.BatchResult` success counts (or
    any pooled binomial sample) without materializing a bit trace.
    Verdict semantics are those of :func:`lrc_test`.
    """
    if samples <= 0:
        raise AnalysisError("cannot test an empty sample")
    if not 0 <= successes <= samples:
        raise AnalysisError(
            f"successes must lie in [0, {samples}], got {successes}"
        )
    if not 0.0 < lrc <= 1.0:
        raise AnalysisError(f"LRC must lie in (0, 1], got {lrc}")
    from scipy import stats as scipy_stats

    alpha = 1.0 - confidence
    # P(X <= successes) under p = lrc: small means "too few successes
    # to be compatible with p >= lrc".
    p_violation = float(
        scipy_stats.binom.cdf(successes, samples, lrc)
    )
    # P(X >= successes) under p = lrc: small means "too many successes
    # to be compatible with p <= lrc".
    p_compliance = float(
        scipy_stats.binom.sf(successes - 1, samples, lrc)
    )
    if p_violation < alpha:
        verdict = ComplianceVerdict.VIOLATES
    elif p_compliance < alpha:
        verdict = ComplianceVerdict.MEETS
    else:
        verdict = ComplianceVerdict.UNDECIDED
    return LRCTest(
        communicator=communicator,
        lrc=lrc,
        samples=samples,
        successes=successes,
        p_value_violation=p_violation,
        p_value_compliance=p_compliance,
        confidence_interval=binomial_confidence_interval(
            successes, samples, confidence
        ),
        verdict=verdict,
    )


def lrc_test(
    trace: AbstractTrace,
    lrc: float,
    confidence: float = 0.99,
) -> LRCTest:
    """Test a finite abstract trace against an LRC.

    The verdict is *violates* when the one-sided binomial test rejects
    ``p >= lrc`` at the given confidence, *meets* when it rejects
    ``p <= lrc``, and *undecided* when the data cannot separate the
    two (e.g. the SRG sits exactly at the LRC, as in the paper's
    alternating-mapping example where the limit average equals 0.9
    exactly).
    """
    if len(trace) == 0:
        raise AnalysisError("cannot test an empty trace")
    return lrc_test_from_counts(
        trace.communicator,
        successes=trace.reliable_count(),
        samples=len(trace),
        lrc=lrc,
        confidence=confidence,
    )


def interval_half_width(
    successes: int, samples: int, confidence: float = 0.99
) -> float:
    """Half-width of the Clopper–Pearson interval for a proportion.

    The convergence diagnostic of the streaming estimator: the
    interval ``[lower, upper]`` shrinks as pooled samples accumulate,
    and ``(upper - lower) / 2`` is the precision the estimate has
    reached so far.
    """
    lower, upper = binomial_confidence_interval(
        successes, samples, confidence
    )
    return (upper - lower) / 2.0


def sprt_bounds(confidence: float = 0.99) -> tuple[float, float]:
    """Wald SPRT decision bounds ``(accept, reject)`` on the LLR.

    Symmetric error budget ``alpha = beta = 1 - confidence``: the test
    accepts ``H1: p >= lrc + delta`` once the log-likelihood ratio
    climbs past ``log((1 - beta) / alpha)`` and accepts
    ``H0: p <= lrc - delta`` once it falls below
    ``log(beta / (1 - alpha))``.
    """
    import math

    if not 0.0 < confidence < 1.0:
        raise AnalysisError(
            f"confidence must lie in (0, 1), got {confidence}"
        )
    alpha = 1.0 - confidence
    return (
        math.log((1.0 - alpha) / alpha),
        math.log(alpha / (1.0 - alpha)),
    )


def sprt_log_likelihood(
    successes: int,
    samples: int,
    lrc: float,
    indifference: float = 0.002,
) -> float:
    """Wald SPRT log-likelihood ratio for one LRC.

    Tests ``H1: p >= lrc + indifference`` against
    ``H0: p <= lrc - indifference`` on pooled binomial counts.  The
    statistic is a pure function of the counts, so it can be
    recomputed at any checkpoint boundary without per-sample state —
    which is what makes sequential stopping deterministic across
    executors.
    """
    import math

    if samples < 0 or not 0 <= successes <= samples:
        raise AnalysisError(
            f"successes must lie in [0, {samples}], got {successes}"
        )
    if indifference <= 0.0:
        raise AnalysisError(
            f"indifference must be positive, got {indifference}"
        )
    p0 = lrc - indifference
    p1 = lrc + indifference
    if not 0.0 < p0 < p1 < 1.0:
        raise AnalysisError(
            f"indifference region ({p0}, {p1}) must lie inside (0, 1); "
            f"shrink indifference for LRC {lrc}"
        )
    failures = samples - successes
    return successes * math.log(p1 / p0) + failures * math.log(
        (1.0 - p1) / (1.0 - p0)
    )


def sprt_verdict(
    successes: int,
    samples: int,
    lrc: float,
    confidence: float = 0.99,
    indifference: float = 0.002,
) -> ComplianceVerdict:
    """Sequential accept/reject verdict for one LRC.

    *Meets* when the SPRT accepts ``p >= lrc + indifference``,
    *violates* when it accepts ``p <= lrc - indifference``, and
    *undecided* while the log-likelihood ratio sits between the Wald
    bounds.  A true rate inside the indifference region may stay
    undecided forever — callers must pair this with a run budget.
    """
    accept, reject = sprt_bounds(confidence)
    llr = sprt_log_likelihood(successes, samples, lrc, indifference)
    if llr >= accept:
        return ComplianceVerdict.MEETS
    if llr <= reject:
        return ComplianceVerdict.VIOLATES
    return ComplianceVerdict.UNDECIDED


def required_samples(
    lrc: float, margin: float, confidence: float = 0.99
) -> int:
    """Estimate the trace length needed to resolve an SRG margin.

    Uses the Hoeffding bound: to distinguish ``p = lrc + margin`` (or
    ``lrc - margin``) from ``p = lrc`` with the given confidence, about
    ``ln(1/alpha) / (2 margin^2)`` samples suffice.  Useful to size
    Monte-Carlo runs before launching them.
    """
    import math

    if margin <= 0:
        raise AnalysisError(f"margin must be positive, got {margin}")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(
            f"confidence must lie in (0, 1), got {confidence}"
        )
    del lrc  # the bound is distribution-free in p
    alpha = 1.0 - confidence
    return math.ceil(math.log(1.0 / alpha) / (2.0 * margin * margin))
