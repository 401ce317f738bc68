"""The vectorized batched Monte-Carlo executor.

:class:`BatchSimulator` consumes the same compiled
:class:`~repro.runtime.plan.SimulationPlan` as the scalar reference
:class:`~repro.runtime.engine.Simulator`, but evaluates only the
reliability abstraction: instead of executing task functions on
values, it samples the fault model for a block of runs at once as
``(runs, slots, iterations)`` boolean tensors, propagates
reliable/``BOTTOM`` status through the plan's dependency order with
array operations, and aggregates per-communicator reliable-access
counts without materializing per-run value traces.

Run blocks
----------
The kernel is row-parallel along the run axis, so
:meth:`BatchSimulator.run_slice` walks its runs in contiguous blocks:
each block precomputes its fault masks from its own generators, goes
through every stage (status collapse, propagation, reduction, the
monitor) and writes its per-run counts and events into the slice's
result.  A slice is cut into as few near-equal blocks as keep each
block's arrays — fault masks, scan tables, an injector's draw stream
— within :data:`BLOCK_BYTES` (32 runs of 4000 iterations x 8 slots
under Bernoulli faults), and the status planes are reused block after
block, so the kernel's arrays stay cache-sized and the memory it
touches is bounded by the block, not by the slice: a freshly forked
shard worker pays page faults for about one block's arrays instead of
the whole slice's.  Every slice is blocked: no stage loops over
iterations in Python, since the recurrences through a run's
iterations (a cycle with memory, a Gilbert–Elliott chain) are prefix
scans (:mod:`repro.runtime.scan`).

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
breaks) is a recurrence over iterations: iteration ``t`` depends on
the past only through iteration ``t - 1``'s bits of the events the
component reads through lagged ports.  The component is evaluated
over whole arrays once per pattern of those bits, giving every
iteration's map from one state to the next; a Boolean prefix scan
(:func:`~repro.runtime.scan.compose_prefixes`) composes the maps in
about ``log2(iterations)`` vectorised steps, and a last evaluation
reads the true states.  No value is evaluated, so no design needs
bound task functions.

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
from functools import cached_property
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
from repro.runtime.scan import compose_prefixes, scan_bytes
from repro.telemetry.profiler import NULL_PROFILER, StageProfiler

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.events import MonitorEvents, ResilienceEvent
    from repro.resilience.monitor import MonitorConfig
    from repro.runtime.engine import SimulationResult
    from repro.runtime.executor import BatchExecutor
    from repro.telemetry.convergence import (
        AdaptiveResult,
        ConvergenceSnapshot,
        StopDecision,
        StoppingRule,
    )

#: Byte budget of one run block's fault masks (32 runs of 4000
#: iterations x 8 slots).  The kernel walks a slice in blocks within
#: it, so its per-block arrays stay cache-sized and a forked shard
#: touches little new memory however many runs it holds.
BLOCK_BYTES = 1 << 20


def _no_monitor_events() -> "MonitorEvents":
    from repro.resilience.events import MonitorEvents

    return MonitorEvents.empty()


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
    tagged with its batch run index and ordered by run — per run and
    per communicator exactly the events the scalar monitor would emit.
    They are a :class:`~repro.resilience.events.MonitorEvents` column
    table: the kernel emits columns, and the merge, the prefix slice,
    the shard pipe and the result cache move columns, building no
    event object.  Every batch that reaches a merge, a slice or the
    cache carries one.  Only a resilient batch (executor
    ``"scalar-resilient"``) holds a tuple of objects there instead:
    each run's whole resilience stream (monitor, watchdog and recovery
    events), which no merge, slice or cache ever sees.
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
    monitor_events: "MonitorEvents | tuple[ResilienceEvent, ...]" = field(
        default_factory=_no_monitor_events
    )

    def monitor_events_for_run(self, run: int) -> "list[ResilienceEvent]":
        """Return run *run*'s monitor events, in emission order."""
        events = self.monitor_events
        if isinstance(events, tuple):  # a resilient batch's streams
            return [e for e in events if e.run == run]
        return list(events.for_run(run))

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
        The design to execute; compiled once, on first use, into a
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
        self.implementation = implementation
        self.faults = faults or NoFaults()
        self.seed = seed
        #: Monitor events index communicators in declaration order.
        self._names = tuple(spec.communicators)
        self.environment_factory = environment_factory
        if executor is None:
            from repro.runtime.executor import SerialExecutor

            executor = SerialExecutor()
        self.executor = executor

    @cached_property
    def plan(self) -> SimulationPlan:
        """The compiled plan, compiled on first use (``plan-compile``).

        A batch served whole from a cache executes no chunk, so it
        compiles nothing; :meth:`grow` compiles in the calling process
        before its first chunk, so compile errors never move into
        shard workers.
        """
        with self.profiler.stage("plan-compile"):
            return compile_plan(self.spec, self.arch, self.implementation)

    @cached_property
    def _slot_groups(self) -> list:
        """Per phase, the (event, slots) pairs the status collapse
        reduces: sensor events, then release events."""
        plan = self.plan
        return [
            tuple(
                [
                    (index, np.flatnonzero(slot_event == index).tolist())
                    for index in range(count)
                ]
                for slot_event, count in (
                    (schedule.sensor_slot_event, len(plan.sensor_events)),
                    (schedule.replica_slot_event, len(plan.releases)),
                )
            )
            for schedule in plan.schedules
        ]

    @cached_property
    def _slots(self) -> int:
        """Draw slots of the widest phase (at least one)."""
        return max(
            1,
            *(
                len(schedule.sensor_slot_event)
                + len(schedule.replica_slot_event)
                for schedule in self.plan.schedules
            ),
        )

    @cached_property
    def _block_bytes(self) -> tuple[int, int]:
        """Bytes per iteration a run block holds: ``(once, per run)``.

        Per run: the fault masks (one byte per slot), the map tables
        and per-event bits of the widest cyclic component's scan, and
        what the injector's ``precompute`` holds per run; once per
        block: what ``precompute`` holds however many runs the block
        has (a Gilbert–Elliott draw stream).
        """
        once, per_run = self.faults.precompute_bytes(self.plan)
        scans = [
            scan_bytes(len(self._lagged_writers(component.events)))
            + len(component.events)
            for component in self.plan.batch_order
            if component.cyclic
        ]
        return once, self._slots + max(scans, default=0) + per_run

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
        every batch run: vectorized from each run block's sparse
        failure positions (no per-run Python loop), or as one scalar
        monitor per run on the fallback path.  The resulting
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
                self.plan  # compile here, never in a shard worker
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

        The slice is walked in the contiguous run blocks of
        :meth:`_block_bounds`.  Each block precomputes its masks from
        its own generators and runs every kernel stage on them, then
        writes its per-run counts into the slice's arrays and keeps its
        monitor-event table; the blocks' tables are concatenated once,
        which keeps them in run order.  The scalar fallback is decided
        by the first block's precompute.
        """
        from repro.resilience.events import MonitorEvents

        runs = len(children)
        plan = self.plan
        samples = {
            name: int(plan.accesses_per_period[ci]) * iterations
            for ci, name in enumerate(plan.comm_names)
        }
        counts = {name: np.empty(runs, dtype=np.int64) for name in samples}
        watch = (
            None if monitor is None
            else self._watch(monitor, iterations)
        )
        events: "list[MonitorEvents]" = []
        bounds = self._block_bounds(runs, iterations)
        status: "list[np.ndarray] | None" = None
        for start, stop in zip(bounds, bounds[1:]):
            rngs = [
                np.random.default_rng(child)
                for child in children[start:stop]
            ]
            with self.profiler.stage("fault-precompute"):
                masks = self.faults.precompute(
                    plan, stop - start, iterations, rngs
                )
            if masks is None:
                if start:
                    raise RuntimeSimulationError(
                        "fault precompute declined after its first "
                        "block of the slice"
                    )
                # A declining precompute may have consumed draws; the
                # fallback rebuilds every generator from its spawn key.
                with self.profiler.stage("scalar-fallback"):
                    return self._run_scalar(
                        children, iterations, monitor, run_offset
                    )
            if status is None:
                # The (runs, iterations) status planes every block
                # overwrites: sensor deliveries, release survivals, a
                # scratch.  Made only once the first block's masks are:
                # held across that precompute too, they raised the peak
                # RSS of a daemon running two kernels at once by ~2 MB.
                block = -(-runs // (len(bounds) - 1))  # the largest
                status = [
                    np.empty((block, iterations), dtype=bool)
                    for _ in range(
                        len(plan.sensor_events) + len(plan.releases) + 1
                    )
                ]
            task_ok, delivered = self._run_block(
                masks, [plane[: stop - start] for plane in status],
                counts, start,
            )
            if watch is not None:
                with self.profiler.stage("monitor"):
                    events.append(
                        self._monitor_events(
                            watch, monitor.window, task_ok, delivered,
                            stop - start, iterations, run_offset + start,
                        )
                    )
        return BatchResult(
            lrcs=self.lrcs,
            runs=runs,
            iterations=iterations,
            reliable_counts=counts,
            samples_per_run=samples,
            executor="vectorized",
            monitor_events=MonitorEvents.concat(events, self._names),
        )

    def _block_bounds(self, runs: int, iterations: int) -> list[int]:
        """Where the run blocks of a slice start, then where it ends.

        A slice of *runs* runs x *iterations* periods is cut into as
        few blocks as keep every block's arrays within
        :data:`BLOCK_BYTES`: its fault masks, the map tables of a
        cyclic component's scan and the injector's own precompute
        arrays, as :attr:`_block_bytes` counts them.  Block sizes
        differ by at most one run: equal blocks leave no short tail
        block, and repeated allocations of one size reuse the memory
        the previous block freed.
        """
        if not runs:
            return [0]
        once, per_run = self._block_bytes
        most = max(
            1, (BLOCK_BYTES - once * iterations) // (per_run * iterations)
        )
        blocks = -(-runs // most)
        return [k * runs // blocks for k in range(blocks + 1)]

    # ------------------------------------------------------------------

    def _run_block(
        self,
        masks: PrecomputedFaults,
        status: list[np.ndarray],
        counts: dict[str, np.ndarray],
        start: int,
    ) -> tuple[list, list]:
        """Run one block's kernel stages; return its status arrays.

        *status* holds the block's ``(runs, iterations)`` planes, which
        this block overwrites: one per sensor event, one per release
        event, then a scratch plane.  Writes the block's per-run counts into
        rows ``start:start + runs`` of *counts* and returns
        ``(task_ok, delivered)``, every array ``(runs, iterations)``,
        for the monitor.
        """
        plan = self.plan
        profiler = self.profiler
        runs, iterations = status[-1].shape
        sensors = len(plan.sensor_events)
        delivered = status[:sensors]
        survive = status[sensors:-1]
        scratch = status[-1]
        with profiler.stage("status-collapse"):
            # A sensor event is delivered unless every slot of it
            # fails; a release survives unless every replica slot
            # fails.  Each phase reduces its slots in place on the
            # phase's strided columns.
            for p, (sensor_groups, replica_groups) in enumerate(
                self._slot_groups
            ):
                for fail, groups, out in (
                    (masks.sensor_fail[p], sensor_groups, delivered),
                    (masks.replica_fail[p], replica_groups, survive),
                ):
                    for index, slots in groups:
                        bits = out[index][:, p::plan.n_phases]
                        if not slots:  # nothing to deliver or run
                            bits.fill(False)
                            continue
                        first, *rest = slots
                        np.copyto(bits, fail[:, first, :])
                        for slot in rest:
                            np.logical_and(bits, fail[:, slot, :], out=bits)
                        np.logical_not(bits, out=bits)

        # Propagate reliable/BOTTOM status component by component;
        # every task_ok array is (runs, iterations).  An acyclic event
        # folds its ports into its own survival bits in place.
        with profiler.stage("propagate"):
            task_ok: list[np.ndarray | None] = [None] * len(plan.releases)
            for component in plan.batch_order:
                if component.cyclic:
                    self._scan_cycle(
                        component.events, survive, task_ok, delivered,
                        scratch,
                    )
                    continue
                (index,) = component.events
                self._evaluate(
                    index, survive[index], task_ok, task_ok, delivered,
                    scratch,
                )

        with profiler.stage("reduce"):
            stop = start + runs
            for ci, name in enumerate(plan.comm_names):
                pi = int(plan.comm_periods[ci])
                n_acc = int(plan.accesses_per_period[ci])
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
                    counts[name][start:stop] = per_run
                    continue
                events = [
                    e for e in plan.sensor_events if e.comm_index == ci
                ]
                if events:
                    total = counts[name][start:stop]
                    total[:] = 0
                    for event in events:
                        total += delivered[event.index].sum(
                            axis=1, dtype=np.int64
                        )
                else:
                    # Neither written nor sensor-updated: the initial
                    # value is observed at every access.
                    counts[name][start:stop] = (
                        int(plan.init_reliable[ci]) * n_acc * iterations
                    )
        return task_ok, delivered

    def _access_failures(
        self,
        ci: int,
        task_ok: "Sequence[np.ndarray | None]",
        delivered: Sequence[np.ndarray],
        runs: int,
        iterations: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the *unreliable* accesses of one communicator.

        Access ``s = i * n_acc + j`` of communicator ``ci`` happens at
        ``i * period + j * pi_c``; a written communicator observes the
        current iteration's write from offsets at or past the write
        time and the previous iteration's write (or the initial value)
        before it, while an input communicator observes its own sensor
        event at every access offset.  Instead of the full ``(runs,
        samples)`` status tensor this returns ``(fail_runs,
        fail_steps)``, every access that observes BOTTOM, sorted by
        ``(run, step)``.  Failures are rare, so this is what the
        monitor pass works from.
        """
        plan = self.plan
        pi = int(plan.comm_periods[ci])
        n_acc = int(plan.accesses_per_period[ci])
        samples = n_acc * iterations
        offsets = np.arange(0, plan.period, pi)
        parts_r: list[np.ndarray] = []
        parts_s: list[np.ndarray] = []
        writer = int(plan.writer_event[ci])
        if writer >= 0:
            write_time = plan.releases[writer].write_time
            ok = task_ok[writer]
            assert ok is not None
            rows, iters = _false_positions(ok)
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
                    rows, iters = _false_positions(
                        delivered[event.index]
                    )
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
            return empty, empty
        key = np.sort(
            np.concatenate(parts_r).astype(np.int64) * samples
            + np.concatenate(parts_s).astype(np.int64)
        )
        return key // samples, key % samples

    def _watch(self, monitor: "MonitorConfig", iterations: int) -> list:
        """Per monitored communicator, what every block's pass needs.

        ``(ci, name, times, alarm, clear)``, where ``times[s]`` is the
        simulation time of access ``s``.
        """
        plan = self.plan
        thresholds = monitor.thresholds(self.spec)
        watch = []
        for ci, name in enumerate(plan.comm_names):
            if name not in thresholds:
                continue
            offsets = np.arange(0, plan.period, int(plan.comm_periods[ci]))
            times = (
                np.arange(iterations, dtype=np.int64)[:, None]
                * plan.period
                + offsets[None, :]
            ).ravel()
            watch.append((ci, name, times, *thresholds[name]))
        return watch

    def _monitor_events(
        self,
        watch: list,
        window: int,
        task_ok: "Sequence[np.ndarray | None]",
        delivered: Sequence[np.ndarray],
        runs: int,
        iterations: int,
        run_offset: int,
    ) -> "MonitorEvents":
        """Vectorized online-monitor pass over one block.

        Works from sparse failure positions
        (:meth:`_access_failures` + the failure-neighbourhood latch of
        :func:`~repro.resilience.monitor.monitor_events_from_failures`)
        so its cost tracks the number of failures, not
        ``runs x samples``.  Events carry global run indices, the
        block's first run being *run_offset*, and come back as one
        column table; no event object is built.
        """
        from repro.resilience.events import MonitorEvents
        from repro.resilience.monitor import monitor_events_from_failures

        events = MonitorEvents.concat(
            [
                monitor_events_from_failures(
                    name,
                    *self._access_failures(
                        ci, task_ok, delivered, runs, iterations
                    ),
                    runs, times.size, times, alarm, clear, window,
                    run_offset=run_offset,
                )
                for ci, name, times, alarm, clear in watch
            ],
            self._names,
        )
        # Order by (run, time) and tie-break same-instant events the
        # way the scalar engine emits them: communicators in
        # specification declaration order, which the indices follow.
        return events.select(
            np.lexsort((events.comm, events.time, events.run))
        )

    def _evaluate(
        self,
        index: int,
        ok: np.ndarray,
        task_ok: "list[np.ndarray | None]",
        previous: "Sequence[np.ndarray | None]",
        delivered: Sequence[np.ndarray],
        scratch: np.ndarray,
    ) -> None:
        """Fold release *index*'s ports into its survival bits *ok*.

        *ok* becomes ``task_ok[index]``.  A series event fails when any
        input is ``BOTTOM``, a parallel one only when all are (its ports
        are ORed in *scratch* first); an independent one keeps its
        survival bits.  Lagged ports read *previous*, every other
        written port *task_ok* (see :meth:`_fold_port`).
        """
        event = self.plan.releases[index]
        if event.model is FailureModel.SERIES:
            for port in event.ports:
                self._fold_port(
                    np.logical_and, ok, port, task_ok, previous, delivered
                )
        elif event.model is FailureModel.PARALLEL:
            scratch.fill(False)
            for port in event.ports:
                self._fold_port(
                    np.logical_or, scratch, port, task_ok, previous,
                    delivered,
                )
            np.logical_and(ok, scratch, out=ok)
        task_ok[index] = ok

    def _lagged_writers(self, events: tuple[int, ...]) -> list[int]:
        """The events of a cyclic component that it reads lagged: the
        state bits of its recurrence, ascending."""
        return sorted(
            {
                port.writer_event
                for index in events
                for port in self.plan.releases[index].ports
                if not port.same_iteration and port.writer_event in events
            }
        )

    def _scan_cycle(
        self,
        events: tuple[int, ...],
        survive: Sequence[np.ndarray],
        task_ok: "list[np.ndarray | None]",
        delivered: Sequence[np.ndarray],
        scratch: np.ndarray,
    ) -> None:
        """Solve one cyclic component into *task_ok* with a prefix scan.

        Within one iteration the component is acyclic in event-index
        order, and iteration ``t`` depends on the past only through the
        ``m`` lagged writers' bits of iteration ``t - 1``: the state of
        a recurrence ``s_t = f_t(s_{t-1})``.  The component is
        evaluated over whole ``(runs, iterations)`` arrays once per
        state pattern, with the lagged writers read as that pattern's
        constant bits; the lagged writers' results are the ``2**m``
        entries of every ``f_t``.  In column 0 a lagged port reads its
        own communicator's initial-value reliability instead, so every
        pattern gives iteration 0's true bits there: a constant first
        map, which folds the initial state into the scan.
        :func:`~repro.runtime.scan.compose_prefixes` composes the maps,
        and a last evaluation with the lagged ports reading the true
        states yields every event's bits.
        """
        runs, iterations = scratch.shape
        lagged = self._lagged_writers(events)
        previous = list(task_ok)
        ok = {
            index: np.empty((runs, iterations), dtype=bool)
            for index in events
        }

        def evaluate() -> None:
            for index in events:
                np.copyto(ok[index], survive[index])
                self._evaluate(
                    index, ok[index], task_ok, previous, delivered, scratch
                )

        table = np.empty(
            (1 << len(lagged), len(lagged), runs, iterations), dtype=bool
        )
        for pattern, maps in enumerate(table):
            for k, writer in enumerate(lagged):
                previous[writer] = np.broadcast_to(
                    np.bool_(pattern >> k & 1), (runs, iterations)
                )
            evaluate()
            for k, writer in enumerate(lagged):
                maps[k] = ok[writer]
        states = compose_prefixes(table)[0]
        for k, writer in enumerate(lagged):
            previous[writer] = states[k]
        evaluate()

    def _fold_port(
        self,
        combine: np.ufunc,
        bits: np.ndarray,
        port: PortSlot,
        task_ok: "Sequence[np.ndarray | None]",
        previous: "Sequence[np.ndarray | None]",
        delivered: Sequence[np.ndarray],
    ) -> None:
        """``combine`` one input port's bits into *bits*, in place.

        A sensor port reads its event's delivery bits, a same-iteration
        port its writer's ``task_ok``, a lagged one its writer's bits in
        *previous* shifted by an iteration and seeded with the
        initial-value reliability, any other port the initial-value
        reliability.  Outside a cyclic component *previous* is
        *task_ok*.  Nothing is copied.
        """
        plan = self.plan
        if port.sensor_event >= 0:
            combine(bits, delivered[port.sensor_event], out=bits)
        elif port.writer_event < 0:
            combine(bits, bool(plan.init_reliable[port.comm_index]), out=bits)
        elif port.same_iteration:
            source = task_ok[port.writer_event]
            assert source is not None, "batch order violated"
            combine(bits, source, out=bits)
        else:  # lagged: iteration t reads the writer's t - 1
            source = previous[port.writer_event]
            assert source is not None, "batch order violated"
            combine(bits[:, 1:], source[:, :-1], out=bits[:, 1:])
            combine(
                bits[:, 0], bool(plan.init_reliable[port.comm_index]),
                out=bits[:, 0],
            )

    # ------------------------------------------------------------------

    def _run_scalar(
        self,
        children: Sequence[np.random.SeedSequence],
        iterations: int,
        monitor: "MonitorConfig | None" = None,
        run_offset: int = 0,
    ) -> BatchResult:
        """Loop the scalar reference executor over the spawned seeds.

        Each run's monitor events come from its own scalar
        :class:`~repro.resilience.monitor.LrcMonitor`; they are packed
        into one column table once, as the vectorized path emits them.
        """
        from repro.resilience.events import MonitorEvents
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

        result = run_scalar_batch(
            self.lrcs,
            children,
            iterations,
            run,
            environment_factory=self.environment_factory,
            executor="scalar-fallback",
            run_offset=run_offset,
        )
        return dataclasses.replace(
            result,
            monitor_events=MonitorEvents.from_events(
                result.monitor_events, self._names
            ),
        )


def _false_positions(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero(~bits)`` of a 2-D bool array, through a flat index.

    The same ``(rows, columns)``, in the same row-major order; numpy's
    2-D ``nonzero`` is several times slower than the 1-D one.
    """
    return np.divmod(np.flatnonzero(~bits), bits.shape[1])


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
