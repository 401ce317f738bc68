"""The interval abstract domain of communicator reliability bounds.

The verifier reasons about *sets* of implementations at once: a task
may be pinned to a concrete host set, or left free (any non-empty
subset of the architecture's hosts).  The abstraction of "the SRG this
communicator can have under any admissible implementation" is an
:class:`Interval` ``[lo, hi]`` of probabilities:

* ``lo`` is the reliability of the *worst* admissible choice (a single
  least-reliable host per free task, a single least-reliable sensor
  per free input binding);
* ``hi`` is the reliability of the *best* choice (every replica on
  every host, every sensor bound) — exactly the quantity the LRT030
  feasibility check compares LRCs against.

Every SRG formula of the paper (series, parallel, independent — see
:mod:`repro.reliability.srg`) is monotone in each argument, so the
transfer functions are the two-corner case of the one formula there:
they evaluate its ``lambda_t``, sensor OR and input gain once on the
lower ends and once on the upper ends.  For a fully concrete
implementation the interval degenerates to a point that is
bit-identical to :func:`repro.reliability.srg.communicator_srgs`, and
a free upper corner is the feasibility oracle's completion bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.arch.architecture import Architecture
from repro.errors import AnalysisError
from repro.model.task import Task
from repro.reliability.srg import input_gain, or_reliability


@dataclass(frozen=True)
class Interval:
    """A closed sub-interval of ``[0, 1]``: certified reliability bounds."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise AnalysisError("reliability bounds must not be NaN")
        if self.lo > self.hi:
            raise AnalysisError(
                f"malformed interval [{self.lo}, {self.hi}] (lo > hi)"
            )
        if self.lo < 0.0 or self.hi > 1.0:
            raise AnalysisError(
                f"reliability interval [{self.lo}, {self.hi}] escapes "
                f"[0, 1]"
            )

    @classmethod
    def point(cls, value: float) -> "Interval":
        """Return the degenerate interval ``[value, value]``."""
        return cls(value, value)

    @property
    def is_point(self) -> bool:
        """``True`` when the bounds coincide (a concrete value)."""
        return self.lo == self.hi

    @property
    def width(self) -> float:
        """Return ``hi - lo``, the residual uncertainty."""
        return self.hi - self.lo

    def contains(self, value: float, tolerance: float = 0.0) -> bool:
        """Return ``True`` when *value* lies within the bounds."""
        return self.lo - tolerance <= value <= self.hi + tolerance

    def hull(self, other: "Interval") -> "Interval":
        """Return the smallest interval containing both operands."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def distance(self, other: "Interval") -> float:
        """Return the largest per-endpoint movement between intervals."""
        return max(abs(self.lo - other.lo), abs(self.hi - other.hi))

    def describe(self) -> str:
        """Render the interval compactly for reports."""
        if self.is_point:
            return f"{self.lo:.9f}"
        return f"[{self.lo:.9f}, {self.hi:.9f}]"


#: The top element of the domain: no information.
TOP = Interval(0.0, 1.0)


def _choice_interval(values: "list[float]", free: bool) -> Interval:
    """A chosen set's OR; a free choice runs from one member to all."""
    if not free:
        return Interval.point(or_reliability(values))
    if not values:
        return Interval.point(0.0)
    return Interval(min(values), or_reliability(values))


def replication_interval(
    hosts: "frozenset[str] | None", arch: Architecture
) -> Interval:
    """Return the ``lambda_t`` bounds of a task mapped to *hosts*.

    ``None`` means the task is *free*: any non-empty subset of the
    architecture's hosts may be chosen, so the bounds run from a
    single least-reliable host to full replication on every host.
    With no hosts at all the interval collapses to ``[0, 0]`` — no
    admissible implementation exists.
    """
    brel = arch.network.reliability
    chosen = arch.host_names() if hosts is None else sorted(hosts)
    values = [arch.hrel(h) * brel for h in chosen]
    return _choice_interval(values, hosts is None)


def sensor_interval(
    sensors: "frozenset[str] | None", arch: Architecture
) -> Interval:
    """Return the SRG bounds of a sensor-updated input communicator.

    ``None`` means the binding is free; with no sensors declared the
    interval is ``[0, 0]`` (the communicator can never be updated).
    """
    chosen = arch.sensor_names() if sensors is None else sorted(sensors)
    return _choice_interval([arch.srel(s) for s in chosen], sensors is None)


def written_interval(
    task: Task,
    replication: Interval,
    inputs: Mapping[str, Interval],
) -> "tuple[Interval, float, float]":
    """Combine ``lambda_t`` bounds with input bounds per failure model.

    Evaluates the concrete formula ``lambda_t * input_gain`` of
    :func:`repro.reliability.srg.evaluate` once on every lower
    endpoint and once on every upper endpoint; soundness follows from
    the monotonicity of all three model formulas.  Returns the written
    interval and the input gain at its lower and upper corner.
    """
    gain_lo = input_gain(task, {c: bound.lo for c, bound in inputs.items()})
    gain_hi = input_gain(task, {c: bound.hi for c, bound in inputs.items()})
    interval = Interval(replication.lo * gain_lo, replication.hi * gain_hi)
    return interval, gain_lo, gain_hi
