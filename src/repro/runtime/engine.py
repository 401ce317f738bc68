"""The discrete-event distributed runtime simulator.

Simulates the paper's execution semantics at the granularity of
communicator access instants:

* at every instant, communicator updates happen before reads
  (semantics constraint 3): task-output commits and sensor updates
  first, then trace recording and input snapshots;
* each input port ``(c, i)`` of a task is snapshot at its own instance
  time ``i * pi_c`` (LET semantics), so a later write to ``c`` before
  the task's read time cannot leak into the invocation;
* a task invocation executes once per specification period; every
  replication ``(t, h)`` computes on the identical snapshot and
  broadcasts its outputs, failure injection deciding which replicas
  contribute;
* at the write time, the hosts vote over the received replica outputs
  and the winning value (or ``BOTTOM``) is written into every
  communicator replication.

Because all replications hold identical values by construction (atomic
broadcast, deterministic tasks, race-free specification), the
simulator keeps one logical store; host identity matters only for
failure injection, which is where fail-silence bites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Mapping, TypeVar

import numpy as np

from repro.arch.architecture import Architecture
from repro.errors import RuntimeSimulationError
from repro.mapping.implementation import Implementation
from repro.mapping.timedep import TimeDependentImplementation
from repro.model.specification import Specification
from repro.model.values import BOTTOM
from repro.reliability.traces import AbstractTrace
from repro.runtime.environment import ConstantEnvironment, Environment
from repro.runtime.faults import FaultInjector, NoFaults
from repro.runtime.plan import SimulationPlan, compile_plan
from repro.runtime.voting import Voter, first_non_bottom
from repro.telemetry.sink import HookSinks, InstrumentationSink

#: Configuration key of a chained run (see :func:`run_chained`).
K = TypeVar("K", bound=Hashable)


@dataclass
class SimulationResult:
    """Recorded outcome of one simulation run.

    ``values[c]`` holds the value observed at every access instant of
    communicator ``c`` (index ``j`` is time ``j * pi_c``), recorded
    after the updates due at that instant.
    """

    spec: Specification
    iterations: int
    values: dict[str, list[Any]]
    replica_attempts: dict[tuple[str, str], int] = field(default_factory=dict)
    replica_failures: dict[tuple[str, str], int] = field(default_factory=dict)
    final_store: dict[str, Any] = field(default_factory=dict)

    def abstract(self) -> dict[str, AbstractTrace]:
        """Return the reliability-based abstract trace per communicator."""
        return {
            name: AbstractTrace.from_values(name, values)
            for name, values in self.values.items()
        }

    def limit_averages(self) -> dict[str, float]:
        """Return the observed reliable fraction per communicator."""
        return {
            name: trace.limit_average()
            for name, trace in self.abstract().items()
        }

    def satisfies_lrcs(self, slack: float = 0.0) -> bool:
        """Check every LRC against the observed limit averages."""
        averages = self.limit_averages()
        return all(
            averages[name] >= comm.lrc - slack
            for name, comm in self.spec.communicators.items()
        )

    def empirical_margins(self) -> dict[str, float]:
        """Observed LRC margin ``rate - mu_c`` per communicator."""
        averages = self.limit_averages()
        return {
            name: averages[name] - comm.lrc
            for name, comm in self.spec.communicators.items()
        }

    def replica_failure_rate(self, task: str, host: str) -> float:
        """Return the observed failure fraction of one replication."""
        attempts = self.replica_attempts.get((task, host), 0)
        if attempts == 0:
            return 0.0
        return self.replica_failures.get((task, host), 0) / attempts

    def summary(self) -> str:
        """Return a human-readable multi-line summary."""
        lines = [f"simulation over {self.iterations} iterations"]
        averages = self.limit_averages()
        for name in sorted(averages):
            lrc = self.spec.communicators[name].lrc
            mark = "ok " if averages[name] >= lrc else "LOW"
            lines.append(
                f"  [{mark}] {name}: observed {averages[name]:.6f} "
                f"(LRC {lrc:.6f})"
            )
        return "\n".join(lines)


@dataclass
class _RunState:
    """The mutable state of one run, shared by the step actions.

    ``snapshots`` holds the input ports latched so far per invocation
    ``(task, iteration)`` and ``pending`` the replica outputs
    broadcast for it, awaiting the vote.  Commits of iterations before
    ``start_iteration`` belong to the previous chained run.
    """

    hooks: HookSinks
    start_iteration: int
    store: dict[str, Any]
    values: dict[str, list[Any]]
    snapshots: dict[tuple[str, int], list[Any]] = field(default_factory=dict)
    pending: dict[tuple[str, int], list[tuple[Any, ...]]] = field(
        default_factory=dict
    )
    attempts: dict[tuple[str, str], int] = field(default_factory=dict)
    failures: dict[tuple[str, str], int] = field(default_factory=dict)


class Simulator:
    """Distributed LET runtime with replication, broadcast, and voting.

    The simulator is the *scalar reference executor* of a compiled
    :class:`~repro.runtime.plan.SimulationPlan`: construction compiles
    the design into the plan, and :meth:`run` interprets it tick by
    tick, executing real task functions against the environment.  The
    work of one instant is five step actions over one run state
    (commit-and-vote, sensor update, trace sample, input snapshot,
    release); :meth:`_instant` walks the plan's timetable through
    them, and :class:`~repro.runtime.emachine.EMachine` overrides only
    that walk to follow compiled E-code instead.  The vectorized
    :class:`~repro.runtime.batch.BatchSimulator` consumes the same
    plan; this class is the semantics oracle the batch path
    is differentially tested against.

    Parameters
    ----------
    spec, arch:
        The specification and architecture to execute.
    implementation:
        A static :class:`Implementation` or a
        :class:`TimeDependentImplementation` (the phase of iteration
        ``k`` governs which hosts execute iteration ``k``).
    environment:
        Sensor/actuator coupling; defaults to constant zeros.
    faults:
        Fault injector; defaults to :class:`NoFaults`.
    voter:
        Voting function combining replica outputs (default:
        first-non-bottom with agreement checking).
    actuator_communicators:
        Communicators whose commits are delivered to
        ``environment.actuate``; defaults to the communicators read by
        no task.
    seed:
        Seed (or ready generator) of the NumPy generator driving
        stochastic fault injection.  Uniform draws are consumed in the
        plan's canonical order — timetable order, with every due draw
        taken unconditionally — so two runs with equal seeds are
        bit-identical, and a run seeded with
        ``np.random.default_rng(child_k)`` for spawn key ``k`` of
        ``np.random.SeedSequence(s).spawn(n)`` reproduces run ``k`` of
        ``BatchSimulator.run_batch(n, iterations, seed=s)`` exactly.
    monitor:
        Optional online :class:`~repro.resilience.monitor.LrcMonitor`
        fed from the per-write hook: one ``observe`` call per
        communicator access instant, right after the trace sample is
        recorded, with ``reliable = value is not BOTTOM``.  The
        monitor is an :class:`InstrumentationSink`; this keyword is a
        convenience that prepends it to *sinks*.
    sinks:
        :class:`InstrumentationSink` subscribers (tracer, metrics,
        monitor, ...) receiving the run's hook stream: run and
        iteration framing, sensor updates, per-access records, task
        releases, replica broadcasts, and vote commits.  Sinks are
        observers — they see every semantic instant but never consume
        randomness or touch the store, so an instrumented run is
        bit-identical to a bare one.
    """

    def __init__(
        self,
        spec: Specification,
        arch: Architecture,
        implementation: Implementation | TimeDependentImplementation,
        environment: Environment | None = None,
        faults: FaultInjector | None = None,
        voter: Voter = first_non_bottom,
        actuator_communicators: Iterable[str] | None = None,
        seed: "int | np.random.Generator" = 0,
        monitor: "InstrumentationSink | None" = None,
        sinks: Iterable[InstrumentationSink] = (),
    ) -> None:
        self.spec = spec
        self.arch = arch
        if isinstance(implementation, Implementation):
            implementation = TimeDependentImplementation.static(implementation)
        self.implementation = implementation
        self.implementation.validate(spec, arch)
        self.environment = environment or ConstantEnvironment()
        self.faults = faults or NoFaults()
        self.voter = voter
        self.actuators = frozenset(
            spec.output_communicators()
            if actuator_communicators is None
            else actuator_communicators
        )
        if isinstance(seed, np.random.Generator):
            self.rng = seed
        else:
            self.rng = np.random.default_rng(seed)
        self.monitor = monitor
        self.sinks: tuple[InstrumentationSink, ...] = tuple(sinks)
        missing = sorted(
            t.name for t in spec.tasks.values() if t.function is None
        )
        if missing:
            raise RuntimeSimulationError(
                f"tasks {missing} have no function; bind functions before "
                f"simulating"
            )
        self.plan: SimulationPlan = compile_plan(spec, arch, implementation)
        self.period = period = self.plan.period
        # Per-offset views of the timetable: the write time committing
        # at each offset (write times lie in (0, period], so at most
        # one per offset) with its tasks, and the communicators sampled.
        self._commits_at = {
            write_time % period: (write_time, tasks)
            for write_time, tasks in self.plan.commit_plan.items()
        }
        self._sampled_at = {
            offset: tuple(
                name
                for name, comm in spec.communicators.items()
                if offset % comm.period == 0
            )
            for offset in range(0, period, self.plan.tick)
        }

    # ------------------------------------------------------------------

    def run(
        self,
        iterations: int,
        start_time: int = 0,
        initial_store: Mapping[str, Any] | None = None,
        flush_final_commits: bool = False,
        reset_faults: bool = True,
    ) -> SimulationResult:
        """Execute *iterations* specification periods and record traces.

        The keyword arguments support *chained* runs (used by
        :func:`run_chained`): *start_time* offsets the simulated
        clock (a multiple of the specification period, so scripted
        fault times and time-dependent phases stay absolute),
        *initial_store* carries communicator values over from a
        previous run instead of the declared initial values, and
        *flush_final_commits* performs the commits falling exactly on
        the final period boundary (which otherwise belong to the next
        run) so no task output is lost when the task set changes.
        *reset_faults* controls the injector's
        :meth:`~repro.runtime.faults.FaultInjector.begin_run` reset: a
        chained executive passes ``False`` and calls ``begin_run``
        itself once, with the full horizon, so stateful injectors span
        the whole chained run.
        """
        if iterations <= 0:
            raise RuntimeSimulationError(
                f"iterations must be positive, got {iterations}"
            )
        spec = self.spec
        period = self.period
        tick = self.plan.tick
        if start_time % period:
            raise RuntimeSimulationError(
                f"start_time {start_time} must be a multiple of the "
                f"specification period {period}"
            )
        horizon = start_time + iterations * period
        if reset_faults:
            self.faults.begin_run(self.rng, horizon)
        # The monitor is just the first sink; the per-hook filtered
        # dispatch tables mean each hook site only touches sinks that
        # override that hook (an unsubscribed site costs one branch).
        hooks = HookSinks(
            ((self.monitor,) if self.monitor is not None else ())
            + self.sinks
        )
        store: dict[str, Any] = (
            dict(initial_store)
            if initial_store is not None
            else {
                name: comm.init
                for name, comm in spec.communicators.items()
            }
        )
        missing_comms = set(spec.communicators) - set(store)
        if missing_comms:
            raise RuntimeSimulationError(
                f"initial store lacks communicators "
                f"{sorted(missing_comms)}"
            )
        state = _RunState(
            hooks=hooks,
            start_iteration=start_time // period,
            store=store,
            values={name: [] for name in spec.communicators},
        )
        iteration_sinks = hooks.on_iteration_start

        for sink in hooks.on_run_start:
            sink.on_run_start(start_time, iterations, period)

        for now in range(start_time, horizon, tick):
            offset = now % period
            if offset == 0 and iteration_sinks:
                for sink in iteration_sinks:
                    sink.on_iteration_start(now // period, now)
            self._instant(now, offset, state)
            self.environment.advance(now, tick)

        if flush_final_commits:
            # Perform the commits falling exactly on the final period
            # boundary (write time == period); they are not recorded in
            # this run's trace — a subsequent chained run records the
            # committed values at its first instant.
            self._commit_due(horizon, state)

        for sink in hooks.on_run_end:
            sink.on_run_end(horizon)

        return SimulationResult(
            spec=spec,
            iterations=iterations,
            values=state.values,
            replica_attempts=state.attempts,
            replica_failures=state.failures,
            final_store=store,
        )

    # -- the timetable walk ---------------------------------------------

    def _instant(self, now: int, offset: int, state: _RunState) -> None:
        """Run the plan's timetable at time *now* (period *offset*).

        Updates happen before reads (semantics constraint 3): commits
        and sensor updates, then the trace sample, then input
        snapshots and releases.
        """
        plan = self.plan
        self._commit_due(now, state)
        for name in plan.sensor_plan.get(offset, ()):
            self._update(name, now, state)
        self._sample(now, state)
        for task_name, index, comm in plan.snap_plan.get(offset, ()):
            self._snapshot(task_name, index, comm, now, state)
        for task_name in plan.release_plan.get(offset, ()):
            self._release(task_name, now, state)

    def _commit_due(self, now: int, state: _RunState) -> None:
        """Commit every task whose write time falls on *now*.

        A write time equal to the period commits at offset 0 of the
        next period and belongs to the previous iteration.
        """
        period = self.period
        due = self._commits_at.get(now % period)
        if due is None or now < due[0]:
            return
        write_time, tasks = due
        for name in tasks:
            self._commit(name, (now - write_time) // period, now, state)

    # -- the step actions -----------------------------------------------

    def _commit(
        self, task_name: str, iteration: int, now: int, state: _RunState
    ) -> None:
        """Vote over the replica outputs of one invocation and commit."""
        if iteration < state.start_iteration:
            # The invocation belongs to the previous chained run, which
            # already flushed its commit.
            return
        task = self.spec.tasks[task_name]
        outputs = state.pending.pop((task_name, iteration), [])
        commit_sinks = state.hooks.on_commit
        for index, port in enumerate(task.outputs):
            replica_values = [value[index] for value in outputs]
            voted = self.voter(replica_values) if replica_values else BOTTOM
            state.store[port.communicator] = voted
            if commit_sinks:
                for sink in commit_sinks:
                    sink.on_commit(
                        task_name,
                        port.communicator,
                        iteration,
                        now,
                        len(replica_values),
                        voted is not BOTTOM,
                    )
            if port.communicator in self.actuators:
                self.environment.actuate(port.communicator, now, voted)

    def _update(self, name: str, now: int, state: _RunState) -> None:
        """Run the sensor driver of input communicator *name*.

        Every bound sensor is queried (no short-circuit on the first
        delivery): the canonical draw order consumes one uniform per
        sensor unconditionally, which is what lets the batch executor
        reproduce this stream from one flat sample per run.
        """
        sensors = self.plan.sensors_of(name, now // self.period)
        physical = self.environment.sense(name, now)
        failed = [
            self.faults.sensor_fails(sensor, now, self.rng)
            for sensor in sensors
        ]
        delivered = not all(failed)
        state.store[name] = physical if delivered else BOTTOM
        hooks = state.hooks
        if hooks.on_sensor_outcome:
            for sensor, sensor_failed in zip(sensors, failed):
                for sink in hooks.on_sensor_outcome:
                    sink.on_sensor_outcome(
                        name, now, sensor, not sensor_failed
                    )
        for sink in hooks.on_sensor_update:
            sink.on_sensor_update(name, now, delivered)

    def _sample(self, now: int, state: _RunState) -> None:
        """Record the trace at every access instant due at *now*.

        The sinks (online monitor, tracer, metrics) see exactly the
        recorded samples.
        """
        access_sinks = state.hooks.on_access
        store = state.store
        values = state.values
        for name in self._sampled_at[now % self.period]:
            value = store[name]
            values[name].append(value)
            if access_sinks:
                reliable = value is not BOTTOM
                for sink in access_sinks:
                    sink.on_access(name, now, reliable)

    def _snapshot(
        self,
        task_name: str,
        index: int,
        comm: str,
        now: int,
        state: _RunState,
    ) -> None:
        """Latch input port *index* of *task_name* from *comm* (LET read)."""
        key = (task_name, now // self.period)
        snapshot = state.snapshots.get(key)
        if snapshot is None:
            snapshot = state.snapshots[key] = [None] * len(
                self.spec.tasks[task_name].inputs
            )
        snapshot[index] = state.store[comm]

    def _release(self, task_name: str, now: int, state: _RunState) -> None:
        """Release one invocation: every replication computes on the
        identical snapshot and broadcasts its outputs."""
        iteration = now // self.period
        task = self.spec.tasks[task_name]
        key = (task_name, iteration)
        snapshot = state.snapshots.pop(key, None)
        if snapshot is None or any(v is None for v in snapshot):
            raise RuntimeSimulationError(
                f"incomplete input snapshot for {task_name} at {now}"
            )
        hooks = state.hooks
        attempts = state.attempts
        failures = state.failures
        replica_sinks = hooks.on_replica
        for sink in hooks.on_release_start:
            sink.on_release_start(task_name, iteration, now)
        deadline = iteration * self.period + self.plan.write_times[task_name]
        result_cache: tuple[Any, ...] | None | str = "unset"
        # Both fault draws are taken unconditionally (the invocation
        # draw, then the broadcast draw): the canonical order must not
        # depend on the invocation outcome.
        for host in self.plan.hosts_of(task_name, iteration):
            attempts[(task_name, host)] = (
                attempts.get((task_name, host), 0) + 1
            )
            invocation_failed = self.faults.replica_fails(
                task_name, host, iteration, now, deadline, self.rng
            )
            broadcast_failed = self.faults.broadcast_fails(
                task_name, host, iteration, self.rng
            )
            if replica_sinks:
                ok = not (invocation_failed or broadcast_failed)
                for sink in replica_sinks:
                    sink.on_replica(task_name, host, iteration, now, ok)
            if invocation_failed or broadcast_failed:
                failures[(task_name, host)] = (
                    failures.get((task_name, host), 0) + 1
                )
                continue
            # Deterministic tasks: compute once, reuse per replica.
            if result_cache == "unset":
                result_cache = task.execute(snapshot)
            if result_cache is None:
                # The failure model suppressed execution (unreliable
                # inputs); the replica stays silent.
                continue
            state.pending.setdefault(key, []).append(
                self.faults.corrupt_outputs(
                    task_name, host, iteration, result_cache, self.rng
                )
            )
        for sink in hooks.on_release_end:
            sink.on_release_end(task_name, iteration, now)


def run_chained(
    iterations: int,
    configuration: Callable[[], K],
    build: Callable[[K], Simulator],
    boundary: Callable[[int, int, SimulationResult], None],
) -> SimulationResult:
    """Run *iterations* single-period runs back to back as one run.

    The executives that reconfigure a running design at period
    boundaries (mode switching, recovery) are this loop plus their
    boundary step.  Before each period, ``configuration()`` names the
    configuration in force; ``build(key)`` constructs its simulator
    once, and later periods under the same key reuse it.  Every
    simulator must share one fault injector, one generator and one
    period: the first simulator's injector is reset once, for the
    whole horizon, and each period runs with the store and clock
    carried over and its boundary commits flushed.  After period
    ``index``, ``boundary(index, time, result)`` sees that period's
    result and its end *time*, and may change the configuration of
    the next period.  The returned result concatenates the periods.
    """
    if iterations <= 0:
        raise RuntimeSimulationError(
            f"iterations must be positive, got {iterations}"
        )
    simulators: dict[K, Simulator] = {}

    def simulator_in_force() -> tuple[K, Simulator]:
        key = configuration()
        if key not in simulators:
            simulators[key] = build(key)
        return key, simulators[key]

    _, first = simulator_in_force()
    period = first.period
    first.faults.begin_run(first.rng, iterations * period)
    store: dict[str, Any] | None = None
    values: dict[str, list[Any]] = {
        name: [] for name in first.spec.communicators
    }
    attempts: dict[tuple[str, str], int] = {}
    failures: dict[tuple[str, str], int] = {}
    for index in range(iterations):
        key, simulator = simulator_in_force()
        if simulator.period != period:
            raise RuntimeSimulationError(
                f"configuration {key} has period {simulator.period}, "
                f"expected {period}; a chained run needs one period"
            )
        result = simulator.run(
            1,
            start_time=index * period,
            initial_store=store,
            flush_final_commits=True,
            reset_faults=False,
        )
        store = result.final_store
        for name, trace in result.values.items():
            values[name].extend(trace)
        for pair, count in result.replica_attempts.items():
            attempts[pair] = attempts.get(pair, 0) + count
        for pair, count in result.replica_failures.items():
            failures[pair] = failures.get(pair, 0) + count
        boundary(index, (index + 1) * period, result)
    return SimulationResult(
        spec=first.spec,
        iterations=iterations,
        values=values,
        replica_attempts=attempts,
        replica_failures=failures,
        final_store=store or {},
    )
