"""The vectorized batched Monte-Carlo executor.

:class:`BatchSimulator` consumes the same compiled
:class:`~repro.runtime.plan.SimulationPlan` as the scalar reference
:class:`~repro.runtime.engine.Simulator`, but evaluates only the
reliability abstraction: instead of executing task functions on
values, it samples the fault model for all runs at once as
``(runs, slots, iterations)`` boolean tensors, propagates
reliable/``BOTTOM`` status through the plan's dependency order with
array operations, and aggregates per-communicator reliable-access
counts without materializing per-run value traces.

Seed contract
-------------
``run_batch(runs, iterations, seed)`` derives one generator per run
via ``np.random.SeedSequence(seed).spawn(runs)``.  Run ``k`` of the
batch is bit-identical to a scalar simulation seeded with
``np.random.default_rng(np.random.SeedSequence(seed).spawn(runs)[k])``
— the differential test suite holds the two executors to exactly
this.

Because spawn keys partition deterministically (child ``k`` of
``SeedSequence(s)`` is ``SeedSequence(s, spawn_key=(k,))``, whatever
else was spawned), any *contiguous slice* of a batch can be computed
in isolation: :meth:`BatchSimulator.run_slice` executes an explicit
child list, and the pluggable executors of
:mod:`repro.runtime.executor` exploit that to shard one batch across
worker processes with bit-identical results.

Growing a batch
---------------
:meth:`BatchSimulator.grow` is the one method that grows a batch: it
extends an optional already-computed prefix chunk by chunk along a
schedule of run-count boundaries (one boundary for a fixed-size batch,
a stopping rule's checkpoint schedule for an adaptive one), executing
each chunk through the simulator's executor and merging it on.  A
fixed batch, a cache hit (a prefix already long enough), a cache
upgrade (only the missing tail is simulated), and an adaptive batch
are all the same call, so the service and the CLI share it.

Cycles with memory
------------------
Reliability propagates through the plan's ``batch_order``: the release
graph condensed into strongly connected components, in topological
order.  A single event without a self-loop combines whole
``(runs, iterations)`` arrays.  A cyclic component (a communicator
cycle with memory — a self-loop, or a cycle no independent-model task
breaks) first reduces every port from outside the component to one
``(runs, iterations)`` array per event, then steps over iterations on
``(runs,)`` vectors in event-index order: in-component ports read this
iteration's bits (same-iteration ports) or the previous iteration's
(lagged ports; the initial-value reliability at iteration 0).  Either
way no value is evaluated, so no design needs bound task functions.

Fallback rule
-------------
The vectorized path requires a fault injector that implements
:meth:`~repro.runtime.faults.FaultInjector.precompute` (Bernoulli,
scripted, Gilbert–Elliott, crash-repair, and composites with at most
one stochastic child do; value faults and custom injectors don't).
When ``precompute`` declines, :meth:`run_batch` transparently loops
the scalar simulator over the same spawned seeds
(:func:`run_scalar_batch`, the per-run loop the resilient batch
shares) — same counts, scalar speed — which additionally requires
task functions to be bound.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ContextManager, Sequence

import numpy as np

from repro.arch.architecture import Architecture
from repro.errors import RuntimeSimulationError
from repro.mapping.implementation import Implementation
from repro.mapping.timedep import TimeDependentImplementation
from repro.model.specification import Specification
from repro.model.task import FailureModel
from repro.runtime.environment import Environment
from repro.runtime.faults import FaultInjector, NoFaults, PrecomputedFaults
from repro.runtime.plan import PortSlot, SimulationPlan, compile_plan
from repro.telemetry.profiler import NULL_PROFILER, StageProfiler

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.events import ResilienceEvent
    from repro.resilience.monitor import MonitorConfig
    from repro.runtime.engine import SimulationResult
    from repro.runtime.executor import BatchExecutor
    from repro.telemetry.convergence import (
        AdaptiveResult,
        ConvergenceSnapshot,
        StopDecision,
        StoppingRule,
    )


@dataclass
class BatchResult:
    """Per-communicator reliable-access counts of a batch of runs.

    ``reliable_counts[c][k]`` is the number of reliable accesses of
    communicator ``c`` observed in run ``k`` — exactly
    ``SimulationResult.abstract()[c].reliable_count()`` of the
    equivalent scalar run.  ``samples_per_run[c]`` is the common
    number of accesses per run (iterations times accesses per
    period).  ``monitor_events`` holds the online monitor's alarm and
    clear events (empty unless a monitor config was passed), each
    tagged with its batch run index — per run and per communicator
    exactly the events the scalar monitor would emit.  A resilient
    batch (executor ``"scalar-resilient"``) holds each run's whole
    resilience stream there: monitor, watchdog and recovery events.
    ``lrcs[c]`` is communicator ``c``'s LRC, in specification order:
    the result is plain data (arrays, numbers, frozen events), so it
    pickles and spills whatever task functions the specification
    binds.
    """

    lrcs: dict[str, float]
    runs: int
    iterations: int
    reliable_counts: dict[str, np.ndarray]
    samples_per_run: dict[str, int]
    executor: str  # "vectorized" | "scalar-fallback" | "scalar-resilient"
    monitor_events: "tuple[ResilienceEvent, ...]" = field(default=())

    def monitor_events_for_run(self, run: int) -> "list[ResilienceEvent]":
        """Return run *run*'s monitor events, in emission order."""
        return [e for e in self.monitor_events if e.run == run]

    def limit_averages(self) -> dict[str, np.ndarray]:
        """Return the per-run reliable fraction per communicator."""
        return {
            name: counts / self.samples_per_run[name]
            for name, counts in self.reliable_counts.items()
        }

    def pooled_counts(self) -> dict[str, tuple[int, int]]:
        """Return pooled ``(successes, samples)`` per communicator.

        Runs are independent (independent seeds), but the accesses
        *within* a run are not: a communicator read several times per
        period observes the same write several times, so its reads are
        positively correlated (the measured per-run design effect on
        the three-tank baseline is about 4.9).  Binomial statistics
        over these counts (``lrc_tests``, convergence snapshots, the
        SPRT) therefore overstate the evidence; counting writes or
        using run-level statistics is an open ROADMAP item.
        """
        return {
            name: (
                int(counts.sum()),
                self.samples_per_run[name] * self.runs,
            )
            for name, counts in self.reliable_counts.items()
        }

    def prefix_pooled_counts(
        self, runs: int
    ) -> dict[str, tuple[int, int]]:
        """Pooled ``(successes, samples)`` over the first *runs* runs.

        Under the spawn contract the first *runs* runs of a larger
        batch are exactly the runs of a ``runs``-sized batch, so this
        is the pooled statistic a truncated batch would report —
        which is how :meth:`BatchSimulator.grow` takes checkpoint
        snapshots, including over a cached prefix, without
        re-simulating.
        """
        if runs < 0 or runs > self.runs:
            raise RuntimeSimulationError(
                f"cannot pool {runs} of {self.runs} runs"
            )
        return {
            name: (
                int(counts[:runs].sum()),
                self.samples_per_run[name] * runs,
            )
            for name, counts in self.reliable_counts.items()
        }

    def srg_estimates(self) -> dict[str, float]:
        """Return the pooled reliable fraction per communicator."""
        return {
            name: successes / samples
            for name, (successes, samples) in self.pooled_counts().items()
        }

    def empirical_margins(self) -> dict[str, float]:
        """Pooled empirical LRC margin per communicator.

        ``rate - mu_c`` over the pooled runs (``>= 0`` is compliant) —
        the quantity the run ledger records and ``repro runs
        diff|regress`` compare across runs.
        """
        estimates = self.srg_estimates()
        return {
            name: estimates[name] - lrc for name, lrc in self.lrcs.items()
        }

    def lrc_tests(self, confidence: float = 0.99) -> dict:
        """Run the binomial LRC compliance test on the pooled counts."""
        from repro.reliability.stats import lrc_test_from_counts

        pooled = self.pooled_counts()
        return {
            name: lrc_test_from_counts(
                name,
                successes=pooled[name][0],
                samples=pooled[name][1],
                lrc=lrc,
                confidence=confidence,
            )
            for name, lrc in sorted(self.lrcs.items())
        }

    def satisfies_lrcs(self, slack: float = 0.0) -> bool:
        """Check every LRC against the pooled reliable fractions."""
        estimates = self.srg_estimates()
        return all(
            estimates[name] >= lrc - slack
            for name, lrc in self.lrcs.items()
        )

    def summary(self) -> str:
        """Return a human-readable multi-line summary."""
        lines = [
            f"batch of {self.runs} runs x {self.iterations} iterations "
            f"({self.executor})"
        ]
        estimates = self.srg_estimates()
        for name in sorted(estimates):
            lrc = self.lrcs[name]
            mark = "ok " if estimates[name] >= lrc else "LOW"
            lines.append(
                f"  [{mark}] {name}: observed {estimates[name]:.6f} "
                f"(LRC {lrc:.6f}, {self.samples_per_run[name] * self.runs} "
                f"samples)"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Growth:
    """What one :meth:`BatchSimulator.grow` call produced.

    ``result`` is the answer: the first ``runs`` runs, or, with a
    stopping rule, the first ``adaptive.stopped_at`` runs — either way
    bit-identical to ``run_batch`` of that size and seed.  ``batch`` is
    everything known afterwards (the prefix plus every simulated
    chunk), which may run past a stop that fell inside the prefix; a
    cache keeps it.  ``simulated`` counts the runs this call actually
    executed.
    """

    result: BatchResult
    batch: BatchResult
    simulated: int
    adaptive: "AdaptiveResult | None" = None


class BatchSimulator:
    """Vectorized Monte-Carlo executor over a compiled simulation plan.

    Parameters
    ----------
    spec, arch, implementation:
        The design to execute; compiled once into a
        :class:`SimulationPlan` shared by every batch.
    faults:
        Fault injector; defaults to :class:`NoFaults`.  Injectors
        without a ``precompute`` implementation force the scalar
        fallback.
    seed:
        Default batch seed (overridable per :meth:`run_batch` call);
        see the module docstring for the spawning contract.
    environment_factory:
        Builds a fresh environment per run for the scalar fallback
        path; the vectorized path never evaluates values and ignores
        it.
    profiler:
        :class:`~repro.telemetry.profiler.StageProfiler` timing the
        executor's phases (``plan-compile``, ``fault-precompute``,
        ``status-collapse``, ``propagate``, ``reduce``, ``monitor``,
        ``scalar-fallback``).  Defaults to the null profiler, whose
        per-stage cost is one no-op context manager.
    executor:
        :class:`~repro.runtime.executor.BatchExecutor` strategy
        :meth:`grow` executes every chunk through.  Defaults to the
        in-process :class:`~repro.runtime.executor.SerialExecutor`;
        pass a
        :class:`~repro.service.supervision.SupervisedShardedExecutor`
        to fan each chunk out across worker processes (bit-identical
        results under the spawn-key contract).
    """

    def __init__(
        self,
        spec: Specification,
        arch: Architecture,
        implementation: "Implementation | TimeDependentImplementation",
        faults: FaultInjector | None = None,
        seed: int = 0,
        environment_factory: "Callable[[], Environment] | None" = None,
        profiler: "StageProfiler | None" = None,
        executor: "BatchExecutor | None" = None,
    ) -> None:
        self.spec = spec
        self.lrcs = {
            name: comm.lrc for name, comm in spec.communicators.items()
        }
        self.arch = arch
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        with self.profiler.stage("plan-compile"):
            self.plan: SimulationPlan = compile_plan(
                spec, arch, implementation
            )
        self.faults = faults or NoFaults()
        self.seed = seed
        self.environment_factory = environment_factory
        if executor is None:
            from repro.runtime.executor import SerialExecutor

            executor = SerialExecutor()
        self.executor = executor

    # ------------------------------------------------------------------

    def run_batch(
        self,
        runs: int,
        iterations: int,
        seed: "int | None" = None,
        monitor: "MonitorConfig | None" = None,
    ) -> BatchResult:
        """Execute *runs* independent simulations of *iterations* periods.

        Returns the per-communicator reliable-access counts of every
        run.  Vectorized whenever the injector implements
        ``precompute``; otherwise loops the scalar simulator over the
        same spawned seeds (bit-identical counts either way).

        With a *monitor* config, the online LRC monitor runs over
        every batch run: vectorized as windowed counts over the
        per-access status tensors (no per-run Python loop), or as one
        scalar monitor per run on the fallback path.  The resulting
        alarm/clear events land in ``BatchResult.monitor_events``.

        This is :meth:`grow` with no prefix and no stopping rule.
        """
        return self.grow(
            runs, iterations, monitor=monitor, seed=seed
        ).result

    def grow(
        self,
        runs: int,
        iterations: int,
        *,
        prefix: "BatchResult | None" = None,
        rule: "StoppingRule | None" = None,
        monitor: "MonitorConfig | None" = None,
        seed: "int | None" = None,
        on_chunk: "Callable[[int, int], ContextManager] | None" = None,
        on_snapshot: (
            "Callable[[ConvergenceSnapshot, StopDecision], None] | None"
        ) = None,
    ) -> Growth:
        """Grow a batch of *runs* runs, starting from *prefix*.

        The schedule is ``rule.schedule(runs)`` or, without a rule, the
        single boundary ``(runs,)``.  For every boundary past the runs
        already known, the spawn-key children of the missing runs
        ``[have, boundary)`` are executed through :attr:`executor` and
        merged onto the batch; *prefix* (the first ``prefix.runs`` runs
        of this very batch, e.g. from a cache) is never re-simulated.
        With a *rule*, a convergence snapshot of the pooled counts of
        the first ``boundary`` runs is taken at every boundary and the
        rule decides whether to stop.  Decisions are pure functions of
        pooled counts, so the stop point does not depend on the
        executor or on how much of the batch was cached, and the
        result is bit-identical to ``run_batch(stopped_at)``.

        *on_chunk(start, stop)* returns a context manager wrapped
        around the execution of each chunk (progress events, timing);
        *on_snapshot(snapshot, decision)* observes every snapshot.
        """
        from repro.runtime.executor import (
            merge_batch_results,
            slice_batch_result,
        )
        from repro.telemetry.convergence import (
            AdaptiveResult,
            snapshot_from_counts,
        )

        if runs <= 0:
            raise RuntimeSimulationError(
                f"runs must be positive, got {runs}"
            )
        if iterations <= 0:
            raise RuntimeSimulationError(
                f"iterations must be positive, got {iterations}"
            )
        root = np.random.SeedSequence(self.seed if seed is None else seed)
        schedule = (runs,) if rule is None else rule.schedule(runs)
        merged = prefix
        simulated = 0
        snapshots = []
        decision = None
        for boundary in schedule:
            have = 0 if merged is None else merged.runs
            if boundary > have:
                # Exactly root.spawn(runs)[have:boundary], built alone.
                children = [
                    np.random.SeedSequence(
                        root.entropy,
                        spawn_key=(*root.spawn_key, k),
                        pool_size=root.pool_size,
                    )
                    for k in range(have, boundary)
                ]
                with (
                    contextlib.nullcontext() if on_chunk is None
                    else on_chunk(have, boundary)
                ):
                    chunk = self.executor.execute(
                        self, children, iterations, monitor,
                        run_offset=have,
                    )
                simulated += chunk.runs
                merged = (
                    chunk if merged is None
                    else merge_batch_results([merged, chunk])
                )
            if rule is None:
                break
            snapshot = snapshot_from_counts(
                boundary,
                merged.prefix_pooled_counts(boundary),
                self.lrcs,
                confidence=rule.confidence,
                indifference=rule.indifference,
            )
            snapshots.append(snapshot)
            decision = rule.decide(snapshot, runs)
            if on_snapshot is not None:
                on_snapshot(snapshot, decision)
            if decision.stop:
                break
        assert merged is not None
        stopped = runs if decision is None else decision.run
        result = slice_batch_result(merged, stopped)
        adaptive = None
        if rule is not None:
            assert decision is not None
            adaptive = AdaptiveResult(
                result=result,
                stopped_at=stopped,
                max_runs=runs,
                schedule=schedule,
                snapshots=tuple(snapshots),
                decision=decision,
            )
        return Growth(
            result=result, batch=merged, simulated=simulated,
            adaptive=adaptive,
        )

    def run_slice(
        self,
        children: "Sequence[np.random.SeedSequence]",
        iterations: int,
        monitor: "MonitorConfig | None" = None,
        run_offset: int = 0,
    ) -> BatchResult:
        """Execute an explicit list of spawned per-run seeds.

        The slice primitive beneath every executor: *children* are the
        spawn-key children owning batch run indices ``run_offset``,
        ``run_offset + 1``, ...; monitor events are tagged with those
        *global* indices, so disjoint slices of one batch merge (via
        :func:`~repro.runtime.executor.merge_batch_results`) into
        exactly the unsharded result.
        """
        runs = len(children)
        if runs == 0:
            return self._empty_result(iterations)
        rngs = [np.random.default_rng(child) for child in children]
        with self.profiler.stage("fault-precompute"):
            masks = self.faults.precompute(
                self.plan, runs, iterations, rngs
            )
        if masks is None:
            # A declining precompute may have consumed draws; the
            # fallback rebuilds every generator from its spawn key.
            with self.profiler.stage("scalar-fallback"):
                return self._run_scalar(
                    children, iterations, monitor, run_offset
                )
        return self._run_vectorized(
            masks, runs, iterations, monitor, run_offset
        )

    def _empty_result(self, iterations: int) -> BatchResult:
        """The zero-run result (identity element of a merge)."""
        plan = self.plan
        counts = {}
        samples = {}
        for ci, name in enumerate(plan.comm_names):
            counts[name] = np.zeros(0, dtype=np.int64)
            samples[name] = int(plan.accesses_per_period[ci]) * iterations
        return BatchResult(
            lrcs=self.lrcs,
            runs=0,
            iterations=iterations,
            reliable_counts=counts,
            samples_per_run=samples,
            executor="vectorized",
        )

    # ------------------------------------------------------------------

    def _run_vectorized(
        self,
        masks: PrecomputedFaults,
        runs: int,
        iterations: int,
        monitor: "MonitorConfig | None" = None,
        run_offset: int = 0,
    ) -> BatchResult:
        plan = self.plan
        profiler = self.profiler
        with profiler.stage("status-collapse"):
            delivered = [
                np.zeros((runs, iterations), dtype=bool)
                for _ in plan.sensor_events
            ]
            survive = [
                np.zeros((runs, iterations), dtype=bool)
                for _ in plan.releases
            ]
            for p, schedule in enumerate(plan.schedules):
                iters = np.arange(p, iterations, plan.n_phases)
                if not len(iters):
                    continue
                sensor_fail = masks.sensor_fail[p]
                replica_fail = masks.replica_fail[p]
                for event in plan.sensor_events:
                    slots = schedule.sensor_slot_event == event.index
                    if slots.any():
                        delivered[event.index][:, iters] = ~np.all(
                            sensor_fail[:, slots, :], axis=1
                        )
                for event in plan.releases:
                    slots = schedule.replica_slot_event == event.index
                    if slots.any():
                        survive[event.index][:, iters] = ~np.all(
                            replica_fail[:, slots, :], axis=1
                        )

        # Propagate reliable/BOTTOM status component by component;
        # every task_ok array is (runs, iterations).
        with profiler.stage("propagate"):
            task_ok: list[np.ndarray | None] = [None] * len(plan.releases)
            for component in plan.batch_order:
                if component.cyclic:
                    self._step_cycle(
                        component.events, survive, task_ok, delivered,
                        runs, iterations,
                    )
                    continue
                (index,) = component.events
                event = plan.releases[index]
                ok = survive[index]
                if event.model is not FailureModel.INDEPENDENT:
                    port_bits = [
                        self._port_bits(
                            port, task_ok, delivered, runs, iterations
                        )
                        for port in event.ports
                    ]
                    if event.model is FailureModel.SERIES:
                        inputs_ok = np.logical_and.reduce(port_bits)
                    else:  # PARALLEL: fails only when all inputs are BOTTOM
                        inputs_ok = np.logical_or.reduce(port_bits)
                    ok = ok & inputs_ok
                task_ok[index] = ok

        with profiler.stage("reduce"):
            counts: dict[str, np.ndarray] = {}
            samples: dict[str, int] = {}
            for ci, name in enumerate(plan.comm_names):
                pi = int(plan.comm_periods[ci])
                n_acc = int(plan.accesses_per_period[ci])
                samples[name] = n_acc * iterations
                writer = int(plan.writer_event[ci])
                if writer >= 0:
                    write_time = plan.releases[writer].write_time
                    offsets = np.arange(0, plan.period, pi)
                    same = int((offsets >= write_time).sum())
                    prev = n_acc - same
                    ok = task_ok[writer]
                    assert ok is not None
                    per_run = same * ok.sum(axis=1, dtype=np.int64)
                    if prev:
                        carried = int(plan.init_reliable[ci]) + ok[
                            :, :-1
                        ].sum(axis=1, dtype=np.int64)
                        per_run = per_run + prev * carried
                    counts[name] = per_run
                    continue
                events = [
                    e for e in plan.sensor_events if e.comm_index == ci
                ]
                if events:
                    total = np.zeros(runs, dtype=np.int64)
                    for event in events:
                        total += delivered[event.index].sum(
                            axis=1, dtype=np.int64
                        )
                    counts[name] = total
                else:
                    # Neither written nor sensor-updated: the initial
                    # value is observed at every access.
                    counts[name] = np.full(
                        runs,
                        int(plan.init_reliable[ci]) * samples[name],
                        dtype=np.int64,
                    )
        monitor_events: "tuple[ResilienceEvent, ...]" = ()
        if monitor is not None:
            with profiler.stage("monitor"):
                monitor_events = self._monitor_events(
                    monitor, task_ok, delivered, runs, iterations,
                    run_offset,
                )
        return BatchResult(
            lrcs=self.lrcs,
            runs=runs,
            iterations=iterations,
            reliable_counts=counts,
            samples_per_run=samples,
            executor="vectorized",
            monitor_events=monitor_events,
        )

    def _access_failures(
        self,
        ci: int,
        task_ok: "Sequence[np.ndarray | None]",
        delivered: Sequence[np.ndarray],
        runs: int,
        iterations: int,
    ) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
        """Positions of the *unreliable* accesses of one communicator.

        Access ``s = i * n_acc + j`` of communicator ``ci`` happens at
        ``times[s] = i * period + j * pi_c``; a written communicator
        observes the current iteration's write from offsets at or past
        the write time and the previous iteration's write (or the
        initial value) before it, while an input communicator observes
        its own sensor event at every access offset.  Instead of the
        full ``(runs, samples)`` status tensor this returns
        ``(fail_runs, fail_steps, samples, times)`` where the paired
        arrays list every access that observes BOTTOM, sorted by
        ``(run, step)``.  Failures are rare, so this is what the
        monitor pass works from.
        """
        plan = self.plan
        pi = int(plan.comm_periods[ci])
        n_acc = int(plan.accesses_per_period[ci])
        samples = n_acc * iterations
        offsets = np.arange(0, plan.period, pi)
        times = (
            np.arange(iterations, dtype=np.int64)[:, None] * plan.period
            + offsets[None, :]
        ).ravel()
        parts_r: list[np.ndarray] = []
        parts_s: list[np.ndarray] = []
        writer = int(plan.writer_event[ci])
        if writer >= 0:
            write_time = plan.releases[writer].write_time
            ok = task_ok[writer]
            assert ok is not None
            rows, iters = np.nonzero(~ok)
            same_j = np.flatnonzero(offsets >= write_time)
            prev_j = np.flatnonzero(offsets < write_time)
            if same_j.size and rows.size:
                parts_r.append(np.repeat(rows, same_j.size))
                parts_s.append(
                    (iters[:, None] * n_acc + same_j[None, :]).ravel()
                )
            if prev_j.size:
                # Offsets before the write observe the previous
                # iteration's task (or the initial value in iteration 0).
                carry = iters + 1 < iterations
                if rows.size and carry.any():
                    parts_r.append(np.repeat(rows[carry], prev_j.size))
                    parts_s.append(
                        (
                            (iters[carry] + 1)[:, None] * n_acc
                            + prev_j[None, :]
                        ).ravel()
                    )
                if not plan.init_reliable[ci]:
                    parts_r.append(
                        np.repeat(np.arange(runs), prev_j.size)
                    )
                    parts_s.append(np.tile(prev_j, runs))
        else:
            events = sorted(
                (e for e in plan.sensor_events if e.comm_index == ci),
                key=lambda e: e.offset,
            )
            if events:
                for j, event in enumerate(events):
                    rows, iters = np.nonzero(~delivered[event.index])
                    if rows.size:
                        parts_r.append(rows)
                        parts_s.append(iters * n_acc + j)
            elif not plan.init_reliable[ci]:
                # Never written, never sensed, unreliable initial value:
                # every access fails.
                parts_r.append(
                    np.repeat(np.arange(runs), samples)
                )
                parts_s.append(np.tile(np.arange(samples), runs))
        if not parts_r:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, samples, times
        key = np.sort(
            np.concatenate(parts_r).astype(np.int64) * samples
            + np.concatenate(parts_s).astype(np.int64)
        )
        return key // samples, key % samples, samples, times

    def _monitor_events(
        self,
        monitor: "MonitorConfig",
        task_ok: "Sequence[np.ndarray | None]",
        delivered: Sequence[np.ndarray],
        runs: int,
        iterations: int,
        run_offset: int = 0,
    ) -> "tuple[ResilienceEvent, ...]":
        """Vectorized online-monitor pass over the whole batch.

        Works from sparse failure positions
        (:meth:`_access_failures` + the failure-neighbourhood latch of
        :func:`~repro.resilience.monitor.monitor_events_from_failures`)
        so its cost tracks the number of failures, not
        ``runs x samples``.
        """
        from repro.resilience.monitor import monitor_events_from_failures

        plan = self.plan
        thresholds = monitor.thresholds(self.spec)
        events = []
        for ci, name in enumerate(plan.comm_names):
            if name not in thresholds:
                continue
            fail_runs, fail_steps, samples, times = self._access_failures(
                ci, task_ok, delivered, runs, iterations
            )
            alarm, clear = thresholds[name]
            events.extend(
                monitor_events_from_failures(
                    name, fail_runs, fail_steps, runs, samples, times,
                    alarm, clear, monitor.window,
                )
            )
        # Tie-break same-instant events the way the scalar engine emits
        # them: communicators in specification declaration order.
        order = {name: i for i, name in enumerate(self.spec.communicators)}
        events.sort(key=lambda e: (e.run, e.time, order[e.communicator]))
        if run_offset:
            events = [
                dataclasses.replace(event, run=event.run + run_offset)
                for event in events
            ]
        return tuple(events)

    def _step_cycle(
        self,
        events: tuple[int, ...],
        survive: Sequence[np.ndarray],
        task_ok: "list[np.ndarray | None]",
        delivered: Sequence[np.ndarray],
        runs: int,
        iterations: int,
    ) -> None:
        """Step one cyclic component over iterations into *task_ok*.

        Ports from outside the component (sensors, initial values,
        writers in earlier components) are reduced first, per event, to
        one ``(runs, iterations)`` array: series events fold them into
        their survival bits with AND, parallel events OR them together.
        The loop then walks iterations and, within one, the events in
        index order, combining that array's row with the in-component
        ports: a same-iteration port reads its writer's row of this
        iteration (already computed, the writer's index being lower),
        a lagged port the row of the previous iteration, or the
        communicator's initial-value reliability at iteration 0.  Rows
        are ``(runs,)`` views of iteration-major arrays, so every step
        is one or two in-place ufunc calls per port.
        """
        plan = self.plan
        out = {
            index: np.empty((iterations, runs), dtype=bool)
            for index in events
        }
        rows = {index: list(array) for index, array in out.items()}
        steps = []
        for index in events:
            event = plan.releases[index]
            series = event.model is FailureModel.SERIES
            sources = []
            outer = []
            for port in event.ports:
                if port.sensor_event >= 0 or port.writer_event not in rows:
                    outer.append(
                        self._port_bits(
                            port, task_ok, delivered, runs, iterations
                        )
                    )
                elif port.same_iteration:
                    sources.append(rows[port.writer_event])
                else:  # lagged: row t reads the writer's row t - 1
                    init = np.full(
                        runs, plan.init_reliable[port.comm_index]
                    )
                    sources.append([init] + rows[port.writer_event][:-1])
            if series:
                fixed = np.logical_and.reduce([survive[index], *outer])
                gate = None
            else:  # PARALLEL: survival gates the OR over every port
                fixed = (
                    np.logical_or.reduce(outer) if outer
                    else np.zeros((runs, iterations), dtype=bool)
                )
                gate = list(np.ascontiguousarray(survive[index].T))
            steps.append(
                (
                    rows[index],
                    list(np.ascontiguousarray(fixed.T)),
                    gate,
                    np.logical_and if series else np.logical_or,
                    sources[0],
                    sources[1:],
                )
            )
        gate_and = np.logical_and
        # Positional ``out`` arguments: the loop body is pure call
        # overhead, and keyword parsing is a measurable share of it.
        for t in range(iterations):
            for out_rows, fixed, gate, combine, first, rest in steps:
                row = out_rows[t]
                combine(fixed[t], first[t], row)
                for source in rest:
                    combine(row, source[t], row)
                if gate is not None:
                    gate_and(row, gate[t], row)
        for index in events:
            task_ok[index] = np.ascontiguousarray(out[index].T)

    def _port_bits(
        self,
        port: PortSlot,
        task_ok: "Sequence[np.ndarray | None]",
        delivered: Sequence[np.ndarray],
        runs: int,
        iterations: int,
    ) -> np.ndarray:
        """Reliability bits seen by one input port, per run/iteration."""
        plan = self.plan
        if port.sensor_event >= 0:
            return delivered[port.sensor_event]
        if port.writer_event >= 0:
            source = task_ok[port.writer_event]
            assert source is not None, "batch order violated"
            if port.same_iteration:
                return source
            shifted = np.empty_like(source)
            shifted[:, 0] = plan.init_reliable[port.comm_index]
            shifted[:, 1:] = source[:, :-1]
            return shifted
        return np.full(
            (runs, iterations),
            bool(plan.init_reliable[port.comm_index]),
            dtype=bool,
        )

    # ------------------------------------------------------------------

    def _run_scalar(
        self,
        children: Sequence[np.random.SeedSequence],
        iterations: int,
        monitor: "MonitorConfig | None" = None,
        run_offset: int = 0,
    ) -> BatchResult:
        """Loop the scalar reference executor over the spawned seeds."""
        from repro.runtime.engine import Simulator

        def run(
            environment: Environment | None, rng: np.random.Generator
        ) -> tuple[SimulationResult, Sequence[ResilienceEvent]]:
            run_monitor = None
            if monitor is not None:
                from repro.resilience.monitor import LrcMonitor

                run_monitor = LrcMonitor(self.spec, monitor)
            result = Simulator(
                self.spec,
                self.arch,
                self.plan.implementation,
                environment=environment,
                faults=self.faults,
                seed=rng,
                monitor=run_monitor,
            ).run(iterations)
            return result, (
                run_monitor.events if run_monitor is not None else ()
            )

        return run_scalar_batch(
            self.lrcs,
            children,
            iterations,
            run,
            environment_factory=self.environment_factory,
            executor="scalar-fallback",
            run_offset=run_offset,
        )


def run_scalar_batch(
    lrcs: dict[str, float],
    children: Sequence[np.random.SeedSequence],
    iterations: int,
    run: Callable[
        [Environment | None, np.random.Generator],
        tuple[SimulationResult, Sequence[ResilienceEvent]],
    ],
    *,
    environment_factory: "Callable[[], Environment] | None" = None,
    executor: str,
    run_offset: int = 0,
) -> BatchResult:
    """Loop a scalar executive over explicit spawned per-run seeds.

    The one per-run loop behind every batch the vectorized kernel
    cannot take: the batch executor's scalar fallback and the
    resilient batch.  For child ``k`` it builds a fresh environment
    (``environment_factory()``, or ``None``), calls ``run(environment,
    np.random.default_rng(child))`` — which returns the run's result
    and its resilience events — and records
    ``result.abstract()[c].reliable_count()`` as run ``k``'s count,
    and the events tagged with ``run=k + run_offset``.  *lrcs* maps
    every communicator to its LRC, in specification order.
    """
    runs = len(children)
    counts = {name: np.zeros(runs, dtype=np.int64) for name in lrcs}
    samples: dict[str, int] = {}
    events: "list[ResilienceEvent]" = []
    for k, child in enumerate(children):
        environment = (
            environment_factory()
            if environment_factory is not None
            else None
        )
        result, run_events = run(
            environment, np.random.default_rng(child)
        )
        for name, trace in result.abstract().items():
            counts[name][k] = trace.reliable_count()
            samples[name] = len(trace)
        events.extend(
            dataclasses.replace(event, run=k + run_offset)
            for event in run_events
        )
    return BatchResult(
        lrcs=lrcs,
        runs=runs,
        iterations=iterations,
        reliable_counts=counts,
        samples_per_run=samples,
        executor=executor,
        monitor_events=tuple(events),
    )
