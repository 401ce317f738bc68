"""Singular reliability guarantees (SRGs).

Given an implementation ``I``, the reliability of a task ``t`` is

    lambda_t = 1 - prod_{h in I(t)} (1 - hrel(h) * brel)

(the probability that at least one replication executes and its output
broadcast is delivered; ``brel`` is the atomic-broadcast reliability,
1.0 under the paper's assumption).  The SRG ``lambda_c`` of a
communicator ``c`` is then defined inductively:

* input communicator updated by sensors ``B``:
  ``lambda_c = 1 - prod_{s in B} (1 - srel(s))``
  (the paper's single-sensor case is ``lambda_c = srel(s)``);
* written by task ``t`` with input communicator set ``icset_t``:

  - series (model 1):      ``lambda_c = lambda_t * prod lambda_c'``
  - parallel (model 2):    ``lambda_c = lambda_t * (1 - prod (1 - lambda_c'))``
  - independent (model 3): ``lambda_c = lambda_t``

The induction is well-founded for memory-free specifications and, more
generally, whenever every communicator cycle contains an
independent-model task (whose SRG does not depend on its inputs).

The time-redundancy baselines are parameters of the same induction:
re-execution counts raise each replication's failure probability to
the power of its attempts (:func:`task_reliability`), and a
time-dependent mapping's SRG is the mean of its phases' SRGs
(:func:`communicator_srgs`).
"""

from __future__ import annotations

import math
from typing import Mapping

import networkx as nx

from repro.arch.architecture import Architecture
from repro.errors import AnalysisError
from repro.mapping.implementation import Implementation
from repro.mapping.timedep import TimeDependentImplementation
from repro.model.graph import srg_evaluation_order
from repro.model.specification import Specification
from repro.model.task import FailureModel, Task
from repro.reliability.rbd import Block, Parallel, Series, Unit


def task_reliability(
    task: str,
    implementation: Implementation,
    arch: Architecture,
    attempts: int = 1,
) -> float:
    """Return ``lambda_t`` for *task* under *implementation*.

    With replications on hosts ``I(t)``, the task executes reliably in
    an iteration when at least one replication's host survives the
    invocation *and* its output broadcast is delivered.  Broadcast
    failures are atomic and independent per replication.

    With ``attempts = k`` every replication re-executes up to ``k``
    times (time redundancy, the paper's related work [9]-[11]): under
    independent transient faults a replication fails only when all its
    attempts fail, so ``lambda_t = 1 - prod_h (1 - hrel(h) * brel) ** k``.
    A permanently failed host defeats every attempt.
    """
    brel = arch.network.reliability
    failure = 1.0
    for host in implementation.hosts_of(task):
        failure *= (1.0 - arch.hrel(host) * brel) ** attempts
    return 1.0 - failure


def input_communicator_srg(
    communicator: str, implementation: Implementation, arch: Architecture
) -> float:
    """Return the SRG of a sensor-updated input communicator.

    Reliable when at least one bound sensor delivers; sensors write
    their local replications directly (no broadcast involved), matching
    the paper's assumption that the environment writes identical values
    to all replications of a sensor.
    """
    failure = 1.0
    for sensor in implementation.sensors_of(communicator):
        failure *= 1.0 - arch.srel(sensor)
    return 1.0 - failure


def input_gain(task: Task, srgs: Mapping[str, float]) -> float:
    """Return the input factor of *task*'s SRG formula.

    ``prod lambda_c'`` for the series model, ``1 - prod (1 - lambda_c')``
    for the parallel model and 1 for the independent model, over the
    task's input communicators ``c'`` (looked up in *srgs*).
    """
    icset = sorted(task.input_communicators())
    if task.model is FailureModel.SERIES:
        return math.prod(srgs[c] for c in icset)
    if task.model is FailureModel.PARALLEL:
        return 1.0 - math.prod(1.0 - srgs[c] for c in icset)
    return 1.0


def _written_communicator_srg(
    task: Task, lambda_t: float, input_srgs: Mapping[str, float]
) -> float:
    """Combine ``lambda_t`` with input SRGs per the task's failure model."""
    return lambda_t * input_gain(task, input_srgs)


def communicator_srgs(
    spec: Specification,
    implementation: "Implementation | TimeDependentImplementation",
    arch: Architecture,
    attempts: Mapping[str, int] | None = None,
) -> dict[str, float]:
    """Return ``lambda_c`` for every communicator of *spec*.

    Evaluated inductively along the communicator dependency order with
    independent-model edges removed.  Raises :class:`AnalysisError` if
    no such order exists (a communicator cycle without an
    independent-model breaker); use
    :func:`repro.model.graph.unsafe_cycles` to diagnose.

    *attempts* maps tasks to their re-execution counts (1 when
    unlisted; see :func:`task_reliability`).  For a
    :class:`TimeDependentImplementation` the per-iteration reliability
    cycles through the phases' SRGs, so the SRG of each communicator
    is their arithmetic mean (every phase recurs equally often).
    """
    if isinstance(implementation, TimeDependentImplementation):
        phase_srgs = [
            communicator_srgs(spec, phase, arch, attempts)
            for phase in implementation.phases
        ]
        return {
            name: sum(p[name] for p in phase_srgs) / len(phase_srgs)
            for name in spec.communicators
        }
    implementation.validate(spec, arch)
    try:
        order = srg_evaluation_order(spec)
    except nx.NetworkXUnfeasible:
        raise AnalysisError(
            "SRGs are undefined: the specification has a communicator "
            "cycle with no independent-model task to break it"
        ) from None
    inputs = spec.input_communicators()
    attempts = attempts or {}
    srgs: dict[str, float] = {}
    for name in order:
        writer = spec.writer_of(name)
        if writer is None:
            if name in inputs:
                srgs[name] = input_communicator_srg(
                    name, implementation, arch
                )
            else:
                # Never written and never read by a task: the initial
                # value persists and is reliable at every access point.
                srgs[name] = 1.0
        else:
            # Every input of a non-independent writer precedes `name`
            # in `order` (only edges whose tasks are all independent
            # are pruned, and the writer of `name` sits on each of its
            # own input edges), so the induction never dangles.
            lambda_t = task_reliability(
                writer.name,
                implementation,
                arch,
                attempts.get(writer.name, 1),
            )
            srgs[name] = _written_communicator_srg(writer, lambda_t, srgs)
    return srgs


def srg_block(
    spec: Specification,
    implementation: Implementation,
    arch: Architecture,
    communicator: str,
) -> Block:
    """Return the RBD whose reliability is the SRG of *communicator*.

    The diagram makes the AND/OR structure of the SRG formulas
    explicit: task replications form a parallel block over host units,
    in series with the input network (a series junction for model 1, a
    parallel junction for model 2, nothing for model 3).  Only defined
    for memory-free dependency structures — the block expansion treats
    each input sub-diagram as an independent component, exactly as the
    inductive formula does.

    ``srg_block(...).reliability()`` equals
    ``communicator_srgs(...)[communicator]`` up to floating-point
    rounding; the test suite asserts this agreement on random
    specifications.
    """
    implementation.validate(spec, arch)
    try:
        srg_evaluation_order(spec)
    except nx.NetworkXUnfeasible:
        raise AnalysisError(
            "cannot build an RBD for a specification with unbroken "
            "communicator cycles"
        ) from None
    return _block_for(spec, implementation, arch, communicator, depth=0)


def _block_for(
    spec: Specification,
    implementation: Implementation,
    arch: Architecture,
    communicator: str,
    depth: int,
) -> Block:
    if depth > len(spec.communicators) + 1:
        raise AnalysisError(
            f"RBD expansion for {communicator!r} exceeded the dependency "
            f"depth bound; the specification is not memory-free"
        )
    writer = spec.writer_of(communicator)
    if writer is None:
        if communicator in spec.input_communicators():
            sensors = sorted(implementation.sensors_of(communicator))
            return Parallel(
                [Unit(arch.srel(s), label=f"sensor:{s}") for s in sensors]
            )
        return Unit(1.0, label=f"init:{communicator}")
    brel = arch.network.reliability
    replication_block = Parallel(
        [
            Unit(arch.hrel(h) * brel, label=f"{writer.name}@{h}")
            for h in sorted(implementation.hosts_of(writer.name))
        ]
    )
    if writer.model is FailureModel.INDEPENDENT:
        return replication_block
    input_blocks = [
        _block_for(spec, implementation, arch, name, depth + 1)
        for name in sorted(writer.input_communicators())
    ]
    if writer.model is FailureModel.SERIES:
        return Series([replication_block, *input_blocks])
    return Series([replication_block, Parallel(input_blocks)])
