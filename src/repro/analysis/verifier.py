"""Session-level verification: report memoization and mode handling.

A :class:`Verifier` owns one :class:`~repro.analysis.cache.AnalysisCache`
and memoizes whole :class:`~repro.analysis.report.VerificationReport`
objects under the ledger's content hashes of the (spec, arch, impl)
triple — the same fingerprints :mod:`repro.telemetry.ledger` records
for simulation runs, so a design round-trips between the empirical and
the analytic pipeline under one identity.

Mode-switching programs are verified interprocedurally:
:meth:`Verifier.verify_context` runs one analysis per reachable mode
selection (sharing the communicator-level cache, so selections that
agree on a subgraph pay for it once) and joins the outcomes into a
:class:`ProgramVerification`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Tuple

from repro.analysis.cache import AnalysisCache
from repro.analysis.engine import (
    EPSILON,
    MAX_ITERATIONS,
    analyze_specification,
)
from repro.analysis.report import (
    SpanLookup,
    VerificationReport,
)
from repro.lint.diagnostic import Diagnostic
from repro.arch.architecture import Architecture
from repro.io import (
    architecture_to_dict,
    implementation_to_dict,
    specification_to_dict,
)
from repro.mapping.implementation import Implementation
from repro.model.specification import Specification
from repro.telemetry.ledger import content_hash


@dataclass(frozen=True)
class ProgramVerification:
    """Joined verification outcome over every reachable mode selection."""

    #: ``(selection, report)`` per analysed selection; the selection is
    #: ``None`` when a bare specification was verified.
    selections: Tuple[
        Tuple["Mapping[str, str] | None", VerificationReport], ...
    ]
    #: The reachable-selection enumeration was truncated.
    truncated: bool = False

    def __iter__(
        self,
    ) -> Iterator[
        Tuple["Mapping[str, str] | None", VerificationReport]
    ]:
        return iter(self.selections)

    @property
    def feasible(self) -> bool:
        """``True`` when no selection certifies an LRC unachievable."""
        return all(report.feasible for _, report in self.selections)

    @property
    def proved(self) -> bool:
        """``True`` when every selection proves every LRC."""
        return bool(self.selections) and all(
            report.proved for _, report in self.selections
        )

    def diagnostics(
        self, span: "SpanLookup | None" = None
    ) -> "list[Diagnostic]":
        """LRT060–LRT062 diagnostics, deduplicated across selections."""
        seen: "set[tuple[str, str]]" = set()
        diagnostics: "list[Diagnostic]" = []
        for _, report in self.selections:
            for key, diagnostic in report.keyed_diagnostics(span):
                if key in seen:
                    continue
                seen.add(key)
                diagnostics.append(diagnostic)
        return diagnostics

    def to_dict(self) -> "dict[str, object]":
        """JSON-friendly form of the joined verification."""
        return {
            "feasible": self.feasible,
            "proved": self.proved,
            "truncated": self.truncated,
            "selections": [
                {
                    "selection": dict(selection) if selection else None,
                    "report": report.to_dict(),
                }
                for selection, report in self.selections
            ],
        }


class Verifier:
    """Incremental whole-design verifier with two memo levels.

    Full reports are memoized under the content hashes of the exact
    (spec, arch, impl) triple — including LRCs, since the *verdicts*
    depend on them.  Below that, the shared
    :class:`~repro.analysis.cache.AnalysisCache` memoizes bounds under
    LRC-free cone keys, so even a report miss (e.g. after an LRC edit)
    reuses every unchanged communicator bound.
    """

    def __init__(self, cache: "AnalysisCache | None" = None) -> None:
        self.cache = cache if cache is not None else AnalysisCache()
        self._reports: "dict[object, VerificationReport]" = {}

    @staticmethod
    def design_fingerprint(
        spec: Specification,
        arch: Architecture,
        implementation: "Implementation | None" = None,
    ) -> "tuple[str, str, str | None]":
        """Ledger-style content hashes identifying the full triple."""
        return (
            content_hash(specification_to_dict(spec)),
            content_hash(architecture_to_dict(arch)),
            (
                content_hash(implementation_to_dict(implementation))
                if implementation is not None
                else None
            ),
        )

    def verify(
        self,
        spec: Specification,
        arch: Architecture,
        implementation: "Implementation | None" = None,
        *,
        max_iterations: int = MAX_ITERATIONS,
        epsilon: float = EPSILON,
    ) -> VerificationReport:
        """Verify one flattened specification, memoized by content."""
        key = (
            self.design_fingerprint(spec, arch, implementation),
            max_iterations,
            epsilon,
        )
        found = self._reports.get(key)
        if found is not None:
            return found
        report = analyze_specification(
            spec,
            arch,
            implementation,
            cache=self.cache,
            max_iterations=max_iterations,
            epsilon=epsilon,
        )
        self._reports[key] = report
        return report

    def verify_context(self, ctx: "object") -> ProgramVerification:
        """Verify every reachable selection of a lint context.

        *ctx* is a :class:`repro.lint.context.LintContext` (typed as
        ``object`` to keep this package importable without the lint
        package).  The context supplies the flattened specification
        per reachable mode selection and the optional architecture and
        implementation; the implementation may cover tasks of other
        selections — the engine treats it as partial per selection.
        """
        arch = ctx.architecture  # type: ignore[attr-defined]
        implementation = ctx.implementation  # type: ignore[attr-defined]
        selections: "list[tuple[Mapping[str, str] | None, VerificationReport]]" = []
        for selection, spec in ctx.selection_specs():  # type: ignore[attr-defined]
            report = self.verify(spec, arch, implementation)
            selections.append((selection, report))
        return ProgramVerification(
            selections=tuple(selections),
            truncated=bool(
                getattr(ctx, "selections_truncated", False)
            ),
        )
