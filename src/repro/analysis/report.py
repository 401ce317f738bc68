"""Verification reports: certified bounds, margins, verdicts.

A :class:`VerificationReport` is the output of one engine run over a
single flattened specification.  Per communicator it carries a
:class:`CommunicatorBound` — the certified interval, the LRC, the
margins against it, and the factor certificates — plus the global
widening/cycle events and cache telemetry.  The report converts itself
into lint :class:`~repro.lint.diagnostic.Diagnostic` objects (codes
LRT060–LRT062), so the lint passes, the ``repro verify`` CLI, and the
SARIF exporter all speak through the same pipeline.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Tuple

from repro.analysis.domain import Interval
from repro.analysis.witness import Factor, InfeasibilityWitness, minimal_witness
from repro.lint.diagnostic import Diagnostic
from repro.reliability.analysis import meets_lrc

#: Maps a communicator name to its (line, column) source span.
SpanLookup = Callable[[str], Tuple[int, int]]


def _no_span(name: str) -> Tuple[int, int]:
    return (0, 0)


class BoundVerdict(enum.Enum):
    """What the certified interval proves about one LRC."""

    #: Even the worst admissible choice meets the constraint.
    PROVED = "proved"
    #: Even the best admissible choice misses the constraint.
    INFEASIBLE = "infeasible"
    #: The LRC falls strictly inside the interval: implementation-
    #: dependent (or lost to widening).
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class WideningEvent:
    """Kleene iteration on one cyclic component hit the iteration cap."""

    members: Tuple[str, ...]
    iterations: int
    residual: float

    def describe(self) -> str:
        """Render the event for reports."""
        return (
            f"cycle {{{', '.join(self.members)}}}: upper-bound "
            f"iteration truncated after {self.iterations} steps "
            f"(residual {self.residual:.3e}); bounds were widened and "
            f"remain sound but lose precision"
        )


@dataclass(frozen=True)
class CommunicatorBound:
    """Certified reliability bounds of one communicator vs its LRC."""

    communicator: str
    lrc: float
    interval: Interval
    factors: Tuple[Factor, ...] = ()

    @property
    def verdict(self) -> BoundVerdict:
        """Classify the LRC against the certified interval."""
        if not meets_lrc(self.interval.hi, self.lrc):
            return BoundVerdict.INFEASIBLE
        if meets_lrc(self.interval.lo, self.lrc):
            return BoundVerdict.PROVED
        return BoundVerdict.UNKNOWN

    @property
    def lower_margin(self) -> float:
        """Certified worst-case slack: ``lo - lrc``."""
        return self.interval.lo - self.lrc

    @property
    def upper_margin(self) -> float:
        """Best-case slack: ``hi - lrc``."""
        return self.interval.hi - self.lrc

    @property
    def vacuous(self) -> bool:
        """``True`` when the LRC constrains nothing.

        A constraint is vacuous when every admissible implementation
        already satisfies it (``lo >= lrc`` with genuine freedom left
        in the interval) or when it demands nothing (``lrc <= 0``).
        Point intervals are exempt: there the implementation is fully
        pinned and "satisfied" is the expected, informative verdict.
        """
        if self.lrc <= 0.0:
            return True
        return not self.interval.is_point and meets_lrc(
            self.interval.lo, self.lrc
        )

    def witness(self) -> "InfeasibilityWitness | None":
        """Return the infeasibility witness, if the verdict warrants one."""
        if self.verdict is not BoundVerdict.INFEASIBLE:
            return None
        return minimal_witness(
            self.communicator, self.lrc, self.interval.hi, self.factors
        )

    def to_dict(self) -> "dict[str, object]":
        """JSON-friendly form."""
        data: "dict[str, object]" = {
            "communicator": self.communicator,
            "lrc": self.lrc,
            "lo": self.interval.lo,
            "hi": self.interval.hi,
            "verdict": self.verdict.value,
            "lower_margin": self.lower_margin,
            "upper_margin": self.upper_margin,
        }
        witness = self.witness()
        if witness is not None:
            data["witness"] = witness.to_dict()
        return data


@dataclass(frozen=True)
class VerificationReport:
    """Certified verification outcome of one specification analysis."""

    bounds: Mapping[str, CommunicatorBound]
    widenings: Tuple[WideningEvent, ...] = ()
    unsafe_cycles: Tuple[Tuple[str, ...], ...] = ()
    #: Communicators whose bounds were recomputed this run (cache misses).
    evaluated: Tuple[str, ...] = ()
    #: The whole design was served from the design-level cache.
    design_cache_hit: bool = False
    cache_stats: Mapping[str, int] = field(default_factory=dict)

    def __iter__(self) -> Iterator[CommunicatorBound]:
        for name in sorted(self.bounds):
            yield self.bounds[name]

    @property
    def concrete(self) -> bool:
        """``True`` when every bound is a point (implementation pinned)."""
        return all(b.interval.is_point for b in self.bounds.values())

    @property
    def feasible(self) -> bool:
        """``True`` when no LRC is certified unachievable."""
        return not self.infeasible()

    @property
    def proved(self) -> bool:
        """``True`` when every LRC is certified met by all choices."""
        return all(
            b.verdict is BoundVerdict.PROVED for b in self.bounds.values()
        )

    def infeasible(self) -> "list[CommunicatorBound]":
        """Return the bounds whose LRC is certified unachievable."""
        return [
            b for b in self if b.verdict is BoundVerdict.INFEASIBLE
        ]

    def unknown(self) -> "list[CommunicatorBound]":
        """Return the bounds whose verdict depends on the mapping."""
        return [b for b in self if b.verdict is BoundVerdict.UNKNOWN]

    def witnesses(self) -> "list[InfeasibilityWitness]":
        """Return one minimal witness per infeasible communicator."""
        found = []
        for bound in self.infeasible():
            witness = bound.witness()
            if witness is not None:
                found.append(witness)
        return found

    def min_lower_margin(self) -> "float | None":
        """Return the smallest certified margin across all LRCs."""
        if not self.bounds:
            return None
        return min(b.lower_margin for b in self.bounds.values())

    # -- renderers -----------------------------------------------------

    def summary(self) -> str:
        """Render a terminal table of bounds, margins, and verdicts."""
        lines = ["verification report"]
        width = max(
            [len("communicator")]
            + [len(name) for name in self.bounds]
        )
        header = (
            f"  {'communicator':<{width}}  {'bounds':<25}  "
            f"{'lrc':<12}  {'margin':>12}  verdict"
        )
        lines.append(header)
        for bound in self:
            lines.append(
                f"  {bound.communicator:<{width}}  "
                f"{bound.interval.describe():<25}  "
                f"{bound.lrc:<12g}  "
                f"{bound.lower_margin:>+12.3e}  "
                f"{bound.verdict.value}"
            )
        for event in self.widenings:
            lines.append(f"  note: {event.describe()}")
        for cycle in self.unsafe_cycles:
            lines.append(
                f"  note: unsafe cycle {{{', '.join(cycle)}}}: long-run "
                f"reliability collapses to 0 (lower bounds forced to 0)"
            )
        verdict = (
            "PROVED" if self.proved
            else ("INFEASIBLE" if not self.feasible else "UNKNOWN")
        )
        lines.append(
            f"  verdict: {verdict}  "
            f"({len(self.infeasible())} infeasible, "
            f"{len(self.unknown())} unknown, "
            f"{len(self.bounds) - len(self.infeasible()) - len(self.unknown())} "
            f"proved)"
        )
        return "\n".join(lines)

    def to_dict(self) -> "dict[str, object]":
        """JSON-friendly form of the whole report."""
        return {
            "bounds": [b.to_dict() for b in self],
            "feasible": self.feasible,
            "proved": self.proved,
            "concrete": self.concrete,
            "widenings": [
                {
                    "members": list(e.members),
                    "iterations": e.iterations,
                    "residual": e.residual,
                }
                for e in self.widenings
            ],
            "unsafe_cycles": [list(c) for c in self.unsafe_cycles],
            "evaluated": list(self.evaluated),
            "design_cache_hit": self.design_cache_hit,
            "cache": dict(self.cache_stats),
        }

    def to_json(self, indent: int = 2) -> str:
        """Render the report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def diagnostics(
        self, span: "SpanLookup | None" = None
    ) -> "list[Diagnostic]":
        """Convert the report into lint diagnostics (LRT060–LRT062).

        *span* maps communicator names to source positions; the lint
        passes supply :meth:`LintContext.communicator_span`, the CLI
        leaves positions at 0.
        """
        return [d for _, d in self.keyed_diagnostics(span)]

    def keyed_diagnostics(
        self, span: "SpanLookup | None" = None
    ) -> "list[tuple[tuple[str, str], Diagnostic]]":
        """Diagnostics with ``(code, anchor)`` keys for deduplication.

        Program-level verification runs one report per reachable mode
        selection; the keys let callers report each finding once per
        communicator (or cycle) instead of once per selection.  The
        registry is imported lazily — it is the one lint module whose
        import chain reaches back into shared lint state.
        """
        from repro.lint.registry import make

        lookup = span or _no_span
        diagnostics: "list[tuple[tuple[str, str], Diagnostic]]" = []
        for bound in self.infeasible():
            witness = bound.witness()
            culprits = ""
            if witness is not None and witness.culprits:
                culprits = (
                    "; capped by "
                    + ", ".join(f.describe() for f in witness.culprits)
                )
            line, column = lookup(bound.communicator)
            diagnostics.append(
                (
                    ("LRT060", bound.communicator),
                    make(
                        "LRT060",
                        f"communicator {bound.communicator!r} demands "
                        f"LRC {bound.lrc} but the certified upper bound "
                        f"on this architecture is "
                        f"{bound.interval.hi:.9f}{culprits}",
                        line=line,
                        column=column,
                        hint=(
                            "lower the lrc or add more reliable "
                            "hosts/sensors to the architecture"
                        ),
                    ),
                )
            )
        for bound in self:
            if not bound.vacuous or bound.verdict is BoundVerdict.INFEASIBLE:
                continue
            line, column = lookup(bound.communicator)
            reason = (
                "demands nothing (lrc <= 0)"
                if bound.lrc <= 0.0
                else (
                    f"is met even by the worst admissible mapping "
                    f"(certified lower bound {bound.interval.lo:.9f})"
                )
            )
            diagnostics.append(
                (
                    ("LRT061", bound.communicator),
                    make(
                        "LRT061",
                        f"LRC {bound.lrc} on communicator "
                        f"{bound.communicator!r} is vacuous: it {reason}",
                        line=line,
                        column=column,
                        hint=(
                            "tighten the lrc so it documents a real "
                            "requirement, or drop it"
                        ),
                    ),
                )
            )
        for event in self.widenings:
            line, column = lookup(event.members[0])
            diagnostics.append(
                (
                    ("LRT062", "/".join(event.members)),
                    make(
                        "LRT062",
                        f"fixpoint iteration over communicator cycle "
                        f"{{{', '.join(event.members)}}} was widened "
                        f"after {event.iterations} iterations (residual "
                        f"{event.residual:.3e}); bounds are sound but "
                        f"conservative",
                        line=line,
                        column=column,
                        hint="raise max_iterations for tighter bounds",
                    ),
                )
            )
        return diagnostics
