"""The fast feasibility oracle for synthesis and lint.

ROADMAP item 4 asks for "a fast infeasibility oracle" the
replication-mapping optimizer can consult instead of recomputing SRGs
per communicator.  :class:`FeasibilityOracle` wraps a
:class:`~repro.analysis.verifier.Verifier` for one fixed
(specification, architecture) pair and answers two kinds of queries:

* :meth:`is_feasible` / :meth:`report` — certified interval analysis
  of a (possibly partial) implementation, memoized through the shared
  content-hash cache; and
* :meth:`completion_feasible` — a cache-free, allocation-free float
  sweep for the *inner loop* of a search: given the SRGs already fixed
  by earlier decisions, can **any** completion of the remaining
  choices still satisfy every LRC?  A ``False`` answer certifies the
  whole subtree dead (every formula is monotone, so replacing each
  undecided choice by its best case bounds all completions from
  above).
"""

from __future__ import annotations

from typing import Mapping

import networkx as nx

from repro.analysis.cache import AnalysisCache
from repro.analysis.domain import or_reliability
from repro.analysis.report import VerificationReport
from repro.analysis.verifier import Verifier
from repro.analysis.witness import InfeasibilityWitness
from repro.arch.architecture import Architecture
from repro.mapping.implementation import Implementation
from repro.model.graph import srg_evaluation_order
from repro.model.specification import Specification
from repro.model.task import Task
from repro.reliability.analysis import LRC_TOLERANCE
from repro.reliability.srg import input_gain


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
        brel = arch.network.reliability
        self._host_hi = [arch.hrel(h) * brel for h in arch.host_names()]
        self._free_input_hi = or_reliability(
            arch.srel(s) for s in arch.sensor_names()
        )
        self._inputs = spec.input_communicators()
        try:
            self._order: "list[str] | None" = srg_evaluation_order(spec)
        except nx.NetworkXUnfeasible:
            # Unsafe cycles: the interval engine still certifies
            # bounds, but the float sweep has no evaluation order.
            self._order = None
        self._writers: "dict[str, Task | None]" = {
            name: spec.writer_of(name) for name in spec.communicators
        }

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
        # 1 - prod_h (1 - hrel(h) * brel) ** attempts over all hosts.
        failure = 1.0
        for probability in self._host_hi:
            failure *= (1.0 - probability) ** attempts
        lambda_hi = 1.0 - failure
        bounds: "dict[str, float]" = {}
        for name in self._order:
            value = fixed.get(name)
            if value is not None:
                bounds[name] = value
                continue
            writer = self._writers[name]
            if writer is None:
                bounds[name] = (
                    self._free_input_hi if name in self._inputs else 1.0
                )
            else:
                bounds[name] = lambda_hi * input_gain(writer, bounds)
        return bounds

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
        for name, comm in self.spec.communicators.items():
            if bounds[name] < comm.lrc - LRC_TOLERANCE:
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
