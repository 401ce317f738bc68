"""Infeasibility witnesses: *why* an LRC cannot be met.

The engine records, for every communicator, the multiplicative
:class:`Factor` structure of its upper bound — task replication
factors, sensor-pool factors, and upstream-input factors.  When the
upper bound falls below the LRC even with every resource maxed out,
:func:`minimal_witness` extracts a small set of culprit factors whose
product already dooms the constraint: a cut of hosts/replicas (and
sensors) that makes the LRC unachievable no matter what the rest of
the design does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.reliability.analysis import meets_lrc

#: Bound on how many factors a witness search will flatten; guards
#: against pathological deep series chains.
MAX_WITNESS_FACTORS = 64


@dataclass(frozen=True)
class Factor:
    """One multiplicative contributor to a communicator's bound.

    ``kind`` is ``"replication"`` (a task's ``lambda_t``),
    ``"sensors"`` (an input communicator's sensor pool), or
    ``"inputs"`` (the combined input gain of a parallel/series
    junction).  ``resources`` names the hosts or sensors involved;
    ``free`` marks factors whose resources were unconstrained (the
    bound already assumes *every* available resource).  Nested
    ``parts`` carry the upstream structure for series junctions.
    """

    kind: str
    name: str
    lo: float
    hi: float
    resources: Tuple[str, ...] = ()
    free: bool = False
    parts: Tuple["Factor", ...] = ()

    def describe(self) -> str:
        """Render the factor for ``--explain`` output."""
        where = f" on {{{', '.join(self.resources)}}}" if self.resources else ""
        scope = " (all available)" if self.free else ""
        return (
            f"{self.kind} {self.name}{where}{scope}: "
            f"at best {self.hi:.9f}"
        )


@dataclass(frozen=True)
class InfeasibilityWitness:
    """A minimal cut of factors that caps a communicator under its LRC."""

    communicator: str
    lrc: float
    bound: float
    culprits: Tuple[Factor, ...]

    @property
    def product(self) -> float:
        """Upper bound implied by the culprit factors alone."""
        result = 1.0
        for factor in self.culprits:
            result *= factor.hi
        return result

    def describe(self) -> str:
        """Render the witness as an indented explanation."""
        lines = [
            f"communicator {self.communicator!r}: LRC {self.lrc} is "
            f"unachievable (best possible SRG {self.bound:.9f})",
            f"  {len(self.culprits)} factor(s) already cap it at "
            f"{self.product:.9f}:",
        ]
        for factor in self.culprits:
            lines.append(f"    - {factor.describe()}")
        return "\n".join(lines)

    def to_dict(self) -> "dict[str, object]":
        """JSON-friendly form for reports."""
        return {
            "communicator": self.communicator,
            "lrc": self.lrc,
            "bound": self.bound,
            "culprits": [
                {
                    "kind": f.kind,
                    "name": f.name,
                    "hi": f.hi,
                    "resources": list(f.resources),
                    "free": f.free,
                }
                for f in self.culprits
            ],
        }


def _flatten(factors: Iterable[Factor]) -> List[Factor]:
    """Expand series junctions into their leaf factors, bounded."""
    flat: List[Factor] = []
    stack = list(factors)
    while stack and len(flat) < MAX_WITNESS_FACTORS:
        factor = stack.pop(0)
        if factor.kind == "inputs" and factor.parts:
            stack = list(factor.parts) + stack
        else:
            flat.append(factor)
    return flat


def minimal_witness(
    communicator: str,
    lrc: float,
    bound: float,
    factors: Sequence[Factor],
) -> InfeasibilityWitness:
    """Return a small culprit set whose product stays under *lrc*.

    Factors are flattened across series junctions, sorted weakest
    first, and accumulated greedily until their product alone falls
    below the LRC.  Because every factor is ≤ 1, the returned prefix
    is a genuine certificate: no choice for the remaining factors can
    lift the product back over the constraint.  Greedy-by-weakest is
    minimal in the common single-dominant-factor case and near-minimal
    otherwise.
    """
    flat = sorted(_flatten(factors), key=lambda f: (f.hi, f.name))
    culprits: List[Factor] = []
    product = 1.0
    for factor in flat:
        culprits.append(factor)
        product *= factor.hi
        if not meets_lrc(product, lrc):
            break
    return InfeasibilityWitness(
        communicator=communicator,
        lrc=lrc,
        bound=bound,
        culprits=tuple(culprits),
    )
