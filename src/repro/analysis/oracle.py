"""The fast feasibility oracle for synthesis and lint.

:class:`FeasibilityOracle` answers two kinds of queries for one fixed
(specification, architecture) pair:

* :meth:`is_feasible` / :meth:`report` — certified interval analysis
  of a (possibly partial) implementation by a
  :class:`~repro.analysis.verifier.Verifier`, memoized through the
  shared content-hash cache; and
* :meth:`completion_feasible` — the completion case of the one SRG
  walk (:func:`repro.reliability.srg.evaluate`) for the *inner loop*
  of a search: the SRGs fixed by earlier decisions stay, every
  undecided task runs on every host at the attempt bound and every
  undecided input reads the whole sensor pool.  Every formula is
  monotone, so a ``False`` answer certifies that no completion meets
  every LRC and the whole subtree is dead.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.cache import AnalysisCache
from repro.analysis.report import VerificationReport
from repro.analysis.verifier import Verifier
from repro.analysis.witness import InfeasibilityWitness
from repro.arch.architecture import Architecture
from repro.errors import AnalysisError
from repro.mapping.implementation import Implementation
from repro.model.specification import Specification
from repro.reliability.analysis import meets_lrc
from repro.reliability.srg import (
    Step,
    evaluate,
    evaluation_order,
    hosts_reliability,
    or_reliability,
)


class FeasibilityOracle:
    """Feasibility queries over one (specification, architecture) pair."""

    def __init__(
        self,
        spec: Specification,
        arch: Architecture,
        cache: "AnalysisCache | None" = None,
        verifier: "Verifier | None" = None,
    ) -> None:
        self.spec = spec
        self.arch = arch
        self.verifier = (
            verifier if verifier is not None else Verifier(cache)
        )
        try:
            self._order: "tuple[Step, ...] | None" = evaluation_order(spec)
        except AnalysisError:
            # Unsafe cycles: the interval engine still certifies
            # bounds, but the float sweep has no evaluation order.
            self._order = None
        pool = or_reliability(arch.srel(s) for s in arch.sensor_names())
        self._free_inputs = dict.fromkeys(spec.input_communicators(), pool)
        self._lrcs = [(n, c.lrc) for n, c in spec.communicators.items()]
        # lambda_t of every task on every host, per attempt bound.
        self._free_lambdas: "dict[int, dict[str, float]]" = {}

    # -- certified queries ---------------------------------------------

    def report(
        self, partial: "Implementation | None" = None
    ) -> VerificationReport:
        """Certified bounds for a (possibly partial) implementation."""
        return self.verifier.verify(self.spec, self.arch, partial)

    def is_feasible(
        self, partial: "Implementation | None" = None
    ) -> bool:
        """Can some completion of *partial* satisfy every LRC?

        With ``partial=None`` this asks whether the architecture can
        support the specification at all — the question LRT030 poses.
        """
        return self.report(partial).feasible

    def explain(
        self,
        communicator: str,
        partial: "Implementation | None" = None,
    ) -> "InfeasibilityWitness | None":
        """Return the minimal infeasibility witness for one LRC."""
        bound = self.report(partial).bounds.get(communicator)
        if bound is None:
            return None
        return bound.witness()

    # -- search-loop pruning -------------------------------------------

    def completion_upper_bounds(
        self, fixed: Mapping[str, float], attempts: int = 1
    ) -> "dict[str, float] | None":
        """Best achievable SRG per communicator given *fixed* values.

        *fixed* maps already-decided communicators to their exact
        SRGs; every undecided task gets full replication with
        *attempts* attempts per replica and every undecided input the
        whole sensor pool.  Returns ``None`` when the specification
        has no SRG evaluation order (unsafe cycles) — callers must not
        prune in that case.
        """
        if self._order is None:
            return None
        lambdas = self._free_lambdas.get(attempts)
        if lambdas is None:
            hosts = self.arch.host_names()
            best = hosts_reliability(hosts, self.arch, attempts)
            lambdas = dict.fromkeys(self.spec.tasks, best)
            self._free_lambdas[attempts] = lambdas
        return evaluate(self._order, lambdas, self._free_inputs, fixed)

    def completion_feasible(
        self, fixed: Mapping[str, float], attempts: int = 1
    ) -> bool:
        """``False`` certifies that no completion meets every LRC.

        *attempts* is the search's bound on attempts per replica.  The
        sound default is ``True``: when the specification has unsafe
        cycles (no evaluation order) nothing is pruned.
        """
        bounds = self.completion_upper_bounds(fixed, attempts)
        if bounds is None:
            return True
        for name, lrc in self._lrcs:
            if not meets_lrc(bounds[name], lrc):
                return False
        return True


def is_feasible(
    spec: Specification,
    arch: Architecture,
    partial_impl: "Implementation | None" = None,
) -> bool:
    """One-shot module-level convenience wrapper (see the ISSUE API).

    Builds a throwaway :class:`FeasibilityOracle`; callers with a loop
    should hold an oracle (or a :class:`Verifier`) to benefit from the
    content-hash cache.
    """
    return FeasibilityOracle(spec, arch).is_feasible(partial_impl)
