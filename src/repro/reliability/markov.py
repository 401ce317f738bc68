"""Exact limit averages for specifications with memory.

Section 3 of the paper handles communicator cycles with a blunt rule:
a cycle must contain an *independent*-model task, otherwise the
long-run average collapses to 0.  That rule is sound but conservative
for the **parallel** input failure model: a self-integrating task that
also reads a fresh external input recovers from a poisoned cycle
whenever the external input is reliable, so its long-run average is
neither the SRG nor 0 — it is the stationary probability of a two-state
Markov chain.

For a task ``t`` with the parallel model that reads its own output
communicator ``c`` plus external inputs with combined reliability
``e = 1 - prod (1 - lambda_ext)``:

* from a *reliable* state, the task always executes (its cycle input
  is reliable), so the next state is reliable with probability
  ``lambda_t``;
* from an *unreliable* state, the task executes only if some external
  input is reliable, so the next state is reliable with probability
  ``e * lambda_t``.

The stationary reliable-state probability is::

    pi = (e * lambda_t) / (1 - lambda_t + e * lambda_t)

which degrades gracefully: ``e = 1`` gives ``lambda_t`` (the
memory-free value) and ``e = 0`` gives 0 (the paper's collapse).  The
test suite validates the formula against long simulations.

Scope: self-loop cycles (one task reading and writing the same
communicator).  Longer cycles compose more states; the analysis
refuses them rather than approximating.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.architecture import Architecture
from repro.errors import AnalysisError
from repro.mapping.implementation import Implementation
from repro.model.graph import find_communicator_cycles
from repro.model.specification import Specification
from repro.model.task import FailureModel
from repro.reliability.analysis import meets_lrc
from repro.reliability.srg import (
    input_communicator_srg,
    or_reliability,
    task_reliability,
)


def parallel_cycle_limit_average(
    lambda_t: float, external_reliability: float
) -> float:
    """Stationary reliable fraction of a parallel-model self-cycle."""
    if not 0.0 <= lambda_t <= 1.0:
        raise AnalysisError(
            f"lambda_t must lie in [0, 1], got {lambda_t}"
        )
    if not 0.0 <= external_reliability <= 1.0:
        raise AnalysisError(
            f"external reliability must lie in [0, 1], got "
            f"{external_reliability}"
        )
    if lambda_t == 1.0:
        return 1.0
    numerator = external_reliability * lambda_t
    return numerator / (1.0 - lambda_t + numerator)


@dataclass(frozen=True)
class CycleVerdict:
    """Exact long-run behaviour of one self-cycle communicator."""

    communicator: str
    task: str
    model: FailureModel
    lambda_t: float
    external_reliability: float
    limit_average: float


def analyze_memory_cycles(
    spec: Specification,
    implementation: Implementation,
    arch: Architecture,
) -> dict[str, CycleVerdict]:
    """Return the exact limit average of every self-cycle communicator.

    Supports cycles of length 1 (a task reading and writing the same
    communicator); raises :class:`AnalysisError` on longer cycles.
    External inputs of the cycle task must themselves be memory-free
    (sensor inputs or initial-value communicators) — nested memory is
    out of scope.
    """
    implementation.validate(spec, arch)
    verdicts: dict[str, CycleVerdict] = {}
    inputs = spec.input_communicators()
    for cycle in find_communicator_cycles(spec):
        if len(cycle) != 1:
            raise AnalysisError(
                f"cycle {cycle} has length {len(cycle)}; the Markov "
                f"analysis supports self-loops only"
            )
        (name,) = cycle
        writer = spec.writer_of(name)
        if writer is None:  # pragma: no cover - cycles imply a writer
            continue
        lambda_t = task_reliability(writer.name, implementation, arch)
        external: "list[float]" = []
        for comm in sorted(writer.input_communicators() - {name}):
            if comm in inputs:
                external.append(
                    input_communicator_srg(comm, implementation, arch)
                )
            elif spec.writer_of(comm) is None:
                external.append(1.0)  # persistent initial value
            else:
                raise AnalysisError(
                    f"cycle {name!r}: external input {comm!r} is "
                    f"task-written; nested memory is not supported"
                )
        external_reliability = or_reliability(external) if external else 0.0

        if writer.model is FailureModel.INDEPENDENT:
            average = lambda_t
        elif writer.model is FailureModel.PARALLEL:
            average = parallel_cycle_limit_average(
                lambda_t, external_reliability
            )
        else:  # SERIES: one bottom poisons the cycle forever.
            average = 1.0 if lambda_t == 1.0 else 0.0
        verdicts[name] = CycleVerdict(
            communicator=name,
            task=writer.name,
            model=writer.model,
            lambda_t=lambda_t,
            external_reliability=external_reliability,
            limit_average=average,
        )
    return verdicts


def memory_aware_reliable(
    spec: Specification,
    implementation: Implementation,
    arch: Architecture,
) -> bool:
    """LRC check for self-cycle communicators using the exact averages.

    Complements :func:`repro.reliability.check_reliability` (which
    only admits independent-model breakers): here a parallel-model
    self-cycle passes when its *stationary* average meets the LRC.
    Only the cycle communicators are checked — combine with the
    memory-free analysis of the rest of the specification.
    """
    verdicts = analyze_memory_cycles(spec, implementation, arch)
    return all(
        meets_lrc(verdict.limit_average, spec.communicators[name].lrc)
        for name, verdict in verdicts.items()
    )
