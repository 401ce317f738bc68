"""The abstract-interpretation engine over one flattened specification.

:func:`analyze_specification` propagates interval reliability bounds
(:mod:`repro.analysis.domain`) along
:func:`repro.model.graph.srg_dependency_graph` to a fixpoint:

* acyclic regions are evaluated inductively in topological order of
  the condensation, as the two-corner case of the SRG formula of
  :mod:`repro.reliability.srg` (:mod:`repro.analysis.domain`) — with
  a concrete implementation the resulting point intervals are
  bit-identical to :func:`~repro.reliability.srg.communicator_srgs`;
* cyclic strongly connected components (which, after pruning the
  input edges of independent-model tasks, are exactly the *unsafe*
  communicator cycles) are iterated Kleene-style from ``TOP``.  The
  upper bounds decrease monotonically toward the greatest fixpoint;
  if the iteration cap is hit the current value is kept (widening — a
  sound over-approximation) and a :class:`WideningEvent` is recorded.
  Lower bounds of cycle members are forced to 0: a single unreliable
  write poisons an unbroken cycle forever, so the long-run reliable
  fraction collapses (Section 3, "Specification with memory").

Results are memoized per communicator in an
:class:`~repro.analysis.cache.AnalysisCache` under Merkle-style cone
keys, so a one-communicator edit re-evaluates only its downstream
cone; an unchanged design (including LRC-only edits — thresholds
never enter the bound signatures) is served from the design-level
table without even rebuilding the graph.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import networkx as nx

from repro.analysis.cache import AnalysisCache, CachedBound, cone_key
from repro.analysis.domain import (
    TOP,
    Interval,
    replication_interval,
    sensor_interval,
    written_interval,
)
from repro.analysis.report import (
    CommunicatorBound,
    VerificationReport,
    WideningEvent,
)
from repro.analysis.witness import Factor
from repro.arch.architecture import Architecture
from repro.errors import MappingError
from repro.mapping.implementation import Implementation
from repro.model.graph import srg_dependency_graph
from repro.model.specification import Specification
from repro.model.task import FailureModel, Task

#: Default cap on Kleene iterations per cyclic component.
MAX_ITERATIONS = 64

#: Default convergence threshold for the cyclic upper-bound iteration.
EPSILON = 1e-12


def _validate_partial(
    implementation: Implementation, arch: Architecture
) -> None:
    """Reject mappings that name unknown hosts or sensors.

    Unlike :meth:`Implementation.validate` this accepts *partial*
    mappings (unmapped tasks and unbound inputs stay free) and ignores
    entries for tasks outside the current flattened specification — a
    whole-program mapping legitimately covers tasks of other modes.
    """
    known_hosts = set(arch.hosts)
    known_sensors = set(arch.sensors)
    for task, hosts in sorted(implementation.assignment.items()):
        unknown = hosts - known_hosts
        if unknown:
            raise MappingError(
                f"task {task!r} mapped to unknown hosts {sorted(unknown)}"
            )
    for comm, sensors in sorted(implementation.sensor_binding.items()):
        unknown = sensors - known_sensors
        if unknown:
            raise MappingError(
                f"input communicator {comm!r} bound to unknown sensors "
                f"{sorted(unknown)}"
            )


def _local_signatures(
    spec: Specification,
    arch: Architecture,
    implementation: "Implementation | None",
) -> "dict[str, object]":
    """Per-communicator content signatures (LRCs deliberately excluded).

    A signature captures everything the communicator's *bound* can
    depend on locally: the writer's identity, failure model and input
    set, the pinned (or free) resource pool with its reliabilities,
    and the broadcast reliability.  Together the signatures determine
    the full dependency structure, so hashing them fingerprints the
    design before any graph is built.
    """
    brel = arch.network.reliability
    host_pool = tuple((h, arch.hrel(h)) for h in arch.host_names())
    sensor_pool = tuple((s, arch.srel(s)) for s in arch.sensor_names())
    assignment: Mapping[str, frozenset[str]] = (
        implementation.assignment if implementation is not None else {}
    )
    binding: Mapping[str, frozenset[str]] = (
        implementation.sensor_binding if implementation is not None else {}
    )
    # One pass over the tasks instead of a writer_of() scan per
    # communicator: this function sits on the hot design-cache path.
    # Signatures are nested tuples — hashable, so the design-key memo
    # can skip re-serializing them — and JSON-canonicalize exactly
    # like the equivalent lists.
    writers: "dict[str, Task]" = {}
    read: "set[str]" = set()
    for task in spec.tasks.values():
        for out in task.output_communicators():
            writers[out] = task
        read |= task.input_communicators()
    inputs = {name for name in read if name not in writers}
    signatures: "dict[str, object]" = {}
    for name in spec.communicators:
        writer = writers.get(name)
        if writer is not None:
            hosts = assignment.get(writer.name)
            pool: object = (
                ("free", host_pool)
                if hosts is None
                else tuple((h, arch.hrel(h)) for h in sorted(hosts))
            )
            signatures[name] = (
                "task",
                writer.name,
                writer.model.name,
                tuple(sorted(writer.input_communicators())),
                brel,
                pool,
            )
        elif name in inputs:
            sensors = binding.get(name)
            pool = (
                ("free", sensor_pool)
                if sensors is None
                else tuple((s, arch.srel(s)) for s in sorted(sensors))
            )
            signatures[name] = ("input", pool)
        else:
            signatures[name] = ("const",)
    return signatures


def _factor(
    kind: str,
    name: str,
    interval: Interval,
    chosen: "frozenset[str] | None",
    pool: Iterable[str],
) -> Factor:
    """Witness factor of a host or sensor choice (None: the free *pool*)."""
    resources = tuple(sorted(pool if chosen is None else chosen))
    free = chosen is None
    return Factor(kind, name, interval.lo, interval.hi, resources, free)


def _replication(
    writer: Task, arch: Architecture, assignment: Mapping[str, frozenset[str]]
) -> "tuple[Interval, Factor]":
    """Bounds and witness factor of *writer*'s host choice."""
    hosts = assignment.get(writer.name)
    interval = replication_interval(hosts, arch)
    return interval, _factor(
        "replication", writer.name, interval, hosts, arch.host_names()
    )


def _transfer(
    name: str,
    spec: Specification,
    arch: Architecture,
    assignment: Mapping[str, frozenset[str]],
    binding: Mapping[str, frozenset[str]],
    state: Mapping[str, CachedBound],
) -> CachedBound:
    """Evaluate one acyclic communicator from its settled inputs."""
    writer = spec.writer_of(name)
    if writer is None:
        if name in spec.input_communicators():
            sensors = binding.get(name)
            interval = sensor_interval(sensors, arch)
            factor = _factor(
                "sensors", name, interval, sensors, arch.sensor_names()
            )
            return interval, (factor,)
        # Never written, never sensor-updated: the initial value
        # persists and is reliable at every access point.
        return Interval.point(1.0), ()
    replication, repl_factor = _replication(writer, arch, assignment)
    if writer.model is FailureModel.INDEPENDENT:
        return replication, (repl_factor,)
    icset = sorted(writer.input_communicators())
    interval, gain_lo, gain_hi = written_interval(
        writer, replication, {c: state[c][0] for c in icset}
    )
    if writer.model is FailureModel.SERIES:
        parts: tuple[Factor, ...] = sum(
            (state[c][1] for c in icset), ()
        )
    else:
        parts = ()
    gain_factor = Factor(
        kind="inputs",
        name=name,
        lo=gain_lo,
        hi=gain_hi,
        resources=tuple(icset),
        parts=parts,
    )
    return interval, (repl_factor, gain_factor)


def _iterate_cycle(
    members: "list[str]",
    spec: Specification,
    arch: Architecture,
    assignment: Mapping[str, frozenset[str]],
    state: Mapping[str, CachedBound],
    max_iterations: int,
    epsilon: float,
) -> "tuple[dict[str, CachedBound], WideningEvent | None]":
    """Kleene-iterate one unsafe cyclic component to (near) fixpoint.

    Every member is task-written by a non-independent writer (an
    independent writer has no surviving input edges, so it cannot sit
    on a pruned-graph cycle).  Upper bounds start at 1 and decrease;
    lower bounds are forced to 0 afterwards — the long-run reliable
    fraction of an unbroken cycle is 0 regardless of the formulas.
    """
    writers: "dict[str, Task]" = {}
    replications: "dict[str, tuple[Interval, Factor]]" = {}
    for name in members:
        writer = spec.writer_of(name)
        assert writer is not None
        writers[name] = writer
        replications[name] = _replication(writer, arch, assignment)
    current: "dict[str, Interval]" = {name: TOP for name in members}

    def written(name: str) -> "tuple[Interval, float, float]":
        inputs = {
            c: current[c] if c in current else state[c][0]
            for c in writers[name].input_communicators()
        }
        return written_interval(writers[name], replications[name][0], inputs)

    residual = math.inf
    iterations = 0
    while iterations < max_iterations and residual > epsilon:
        iterations += 1
        residual = 0.0
        for name in members:
            updated = written(name)[0]
            residual = max(residual, current[name].distance(updated))
            current[name] = updated
    widening: "WideningEvent | None" = None
    if residual > epsilon:
        widening = WideningEvent(
            members=tuple(members),
            iterations=iterations,
            residual=residual,
        )
    results: "dict[str, CachedBound]" = {}
    for name in members:
        cycle_factor = Factor(
            kind="cycle",
            name=name,
            lo=0.0,
            hi=written(name)[2],
            resources=tuple(members),
        )
        results[name] = (
            Interval(0.0, current[name].hi),
            (replications[name][1], cycle_factor),
        )
    return results, widening


def analyze_specification(
    spec: Specification,
    arch: Architecture,
    implementation: "Implementation | None" = None,
    *,
    cache: "AnalysisCache | None" = None,
    max_iterations: int = MAX_ITERATIONS,
    epsilon: float = EPSILON,
) -> VerificationReport:
    """Certify per-communicator reliability bounds for one design.

    Parameters
    ----------
    implementation:
        ``None`` or a *partial* mapping: unmapped tasks and unbound
        input communicators range over all admissible choices, so the
        returned intervals cover every completion.  A full mapping
        yields point intervals equal to the exact SRGs.
    cache:
        Optional :class:`AnalysisCache` for incremental re-analysis.
    """
    if implementation is not None:
        _validate_partial(implementation, arch)
    assignment: Mapping[str, frozenset[str]] = (
        implementation.assignment if implementation is not None else {}
    )
    binding: Mapping[str, frozenset[str]] = (
        implementation.sensor_binding if implementation is not None else {}
    )
    signatures = _local_signatures(spec, arch, implementation)

    design_key: "str | None" = None
    if cache is not None:
        design_key = cache.design_key(signatures)
        report_key = (
            design_key,
            tuple(
                (name, spec.communicators[name].lrc)
                for name in sorted(spec.communicators)
            ),
        )
        memoized = cache.lookup_report(report_key)
        if memoized is not None:
            assert isinstance(memoized, VerificationReport)
            return memoized
        cached_design = cache.lookup_design(design_key)
        if cached_design is not None:
            results, widenings, cycles = cached_design  # type: ignore[misc]
            report = _build_report(
                spec,
                results,
                widenings,
                cycles,
                evaluated=(),
                design_cache_hit=True,
                cache=cache,
            )
            cache.store_report(report_key, report)
            return report

    pruned = srg_dependency_graph(spec)
    condensation = nx.condensation(pruned)
    results: "dict[str, CachedBound]" = {}
    cone_keys: "dict[str, str]" = {}
    evaluated: "list[str]" = []
    widenings: "list[WideningEvent]" = []
    cycles: "list[tuple[str, ...]]" = []

    for component in nx.topological_sort(condensation):
        members = sorted(condensation.nodes[component]["members"])
        cyclic = len(members) > 1 or pruned.has_edge(
            members[0], members[0]
        )
        if not cyclic:
            name = members[0]
            predecessors = sorted(pruned.predecessors(name))
            key = cone_key(
                signatures[name],
                tuple(cone_keys[p] for p in predecessors),
            )
            cone_keys[name] = key
            found = cache.lookup(key) if cache is not None else None
            if found is None:
                found = _transfer(
                    name, spec, arch, assignment, binding, results
                )
                evaluated.append(name)
                if cache is not None:
                    cache.store(key, found)
            results[name] = found
            continue
        cycles.append(tuple(members))
        external = sorted(
            {
                p
                for m in members
                for p in pruned.predecessors(m)
                if p not in set(members)
            }
        )
        group_key = cone_key(
            [signatures[m] for m in members],
            tuple(cone_keys[p] for p in external),
        )
        member_keys = {
            m: cone_key(["cycle", group_key, m], ()) for m in members
        }
        cone_keys.update(member_keys)
        cached_members = (
            {m: cache.lookup(member_keys[m]) for m in members}
            if cache is not None
            else {m: None for m in members}
        )
        if all(v is not None for v in cached_members.values()):
            for m in members:
                found = cached_members[m]
                assert found is not None
                results[m] = found
            continue
        computed, widening = _iterate_cycle(
            members,
            spec,
            arch,
            assignment,
            results,
            max_iterations,
            epsilon,
        )
        if widening is not None:
            widenings.append(widening)
        for m in members:
            results[m] = computed[m]
            evaluated.append(m)
            if cache is not None:
                cache.store(member_keys[m], computed[m])

    if cache is not None and design_key is not None:
        cache.store_design(
            design_key,
            (dict(results), tuple(widenings), tuple(cycles)),
        )
    return _build_report(
        spec,
        results,
        tuple(widenings),
        tuple(cycles),
        evaluated=tuple(evaluated),
        design_cache_hit=False,
        cache=cache,
    )


def _build_report(
    spec: Specification,
    results: Mapping[str, CachedBound],
    widenings: "tuple[WideningEvent, ...]",
    cycles: "tuple[tuple[str, ...], ...]",
    evaluated: "tuple[str, ...]",
    design_cache_hit: bool,
    cache: "AnalysisCache | None",
) -> VerificationReport:
    bounds = {
        name: CommunicatorBound(
            communicator=name,
            lrc=spec.communicators[name].lrc,
            interval=results[name][0],
            factors=results[name][1],
        )
        for name in spec.communicators
    }
    return VerificationReport(
        bounds=bounds,
        widenings=widenings,
        unsafe_cycles=cycles,
        evaluated=evaluated,
        design_cache_hit=design_cache_hit,
        cache_stats=cache.stats.to_dict() if cache is not None else {},
    )
