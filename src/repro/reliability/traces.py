"""Reliability-based trace abstraction and limit averages.

An implementation trace is a sequence of communicator valuations, one
per time instant.  The abstraction ``rho`` maps it to a 0/1 trace per
communicator: ``Z_j(c) = 1`` iff the set of replica values of ``c`` at
its ``j``-th access instant contains at least one non-bottom value.
The *limit average* of the abstract trace is the long-run fraction of
reliable accesses; the implementation is reliable for ``c`` when this
limit average is at least the LRC ``mu_c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.model.values import is_reliable_value


def limit_average(bits: Sequence[int] | np.ndarray) -> float:
    """Return the average of a finite prefix of an abstract trace.

    This is the natural estimator of
    ``limavg(tau) = lim (1/n) sum Z_i``; by the strong law of large
    numbers it converges to the SRG with probability 1 when the
    per-iteration reliability events are i.i.d.
    """
    array = np.asarray(bits, dtype=float)
    if array.size == 0:
        raise AnalysisError("limit average of an empty trace is undefined")
    return float(array.mean())


def running_average(bits: Sequence[int] | np.ndarray) -> np.ndarray:
    """Return the sequence of prefix averages ``(1/n) sum_{i<n} Z_i``.

    Useful for plotting SLLN convergence (experiment E6).
    """
    array = np.asarray(bits, dtype=float)
    if array.size == 0:
        raise AnalysisError("running average of an empty trace is undefined")
    return np.cumsum(array) / np.arange(1, array.size + 1)


@dataclass
class AbstractTrace:
    """The reliability-based abstract trace of one communicator.

    ``bits[j]`` is ``Z_j(c)``: 1 when the ``j``-th periodic access of
    the communicator observed a reliable value.
    """

    communicator: str
    bits: np.ndarray

    @classmethod
    def from_values(
        cls, communicator: str, values: Iterable[Any]
    ) -> "AbstractTrace":
        """Abstract a sequence of observed values (possibly ``BOTTOM``).

        Each element may also be a *set* of replica values, in which
        case the access is reliable when any member is reliable — this
        matches the formal semantics where ``X_i(c)`` is a subset of
        ``type_c^bottom x hset``.
        """
        bits = []
        for value in values:
            if isinstance(value, (set, frozenset, list, tuple)):
                bits.append(int(any(is_reliable_value(v) for v in value)))
            else:
                bits.append(int(is_reliable_value(value)))
        return cls(communicator, np.asarray(bits, dtype=np.int8))

    def __len__(self) -> int:
        return int(self.bits.size)

    def limit_average(self) -> float:
        """Return the prefix average of this trace."""
        return limit_average(self.bits)

    def running_average(self) -> np.ndarray:
        """Return the prefix-average curve of this trace."""
        return running_average(self.bits)

    def satisfies(self, lrc: float, slack: float = 0.0) -> bool:
        """Return ``True`` iff the prefix average is at least ``lrc - slack``.

        *slack* absorbs finite-sample noise when the trace is a
        simulation of bounded length.
        """
        return self.limit_average() >= lrc - slack

    def reliable_count(self) -> int:
        """Return the number of reliable accesses in the prefix."""
        return int(self.bits.sum())
