"""The resilience executive: detect → decide → recover, online.

:class:`ResilientSimulator` runs a design one specification period at
a time on the scalar reference executor, with the online LRC monitor
attached to the simulator's per-write hook and the host-failure
watchdog fed from each period's replica outcomes.  When the watchdog
declares a host dead, the recovery policies are consulted at the
iteration boundary; a verified outcome is committed by recompiling
the simulation plan for the new mapping — deterministically, so the
PR 2 seed contract survives recovery: the same seed produces the same
fault draws, the same detection instants, the same recovery, and the
same event stream, run after run.

``resilient_batch`` runs the executive through the batch executor's
scalar per-run loop over ``SeedSequence.spawn`` children, so it
returns an ordinary :class:`~repro.runtime.batch.BatchResult` and run
``k`` is bit-identical to a directly constructed
:class:`ResilientSimulator` seeded with child ``k``, events included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.arch.architecture import Architecture
from repro.errors import RuntimeSimulationError
from repro.mapping.implementation import Implementation
from repro.model.specification import Specification
from repro.resilience.detector import (
    HostFailureDetector,
    WatchdogConfig,
)
from repro.resilience.events import (
    HostDead,
    LrcAlarm,
    LrcClear,
    RecoveryCommitted,
    RecoveryFailed,
    ResilienceEvent,
)
from repro.resilience.monitor import LrcMonitor, MonitorConfig
from repro.resilience.policies import (
    RecoveryContext,
    RecoveryOutcome,
    RecoveryPolicy,
    first_applicable,
)
from repro.runtime.batch import BatchResult, run_scalar_batch
from repro.runtime.engine import SimulationResult, Simulator, run_chained
from repro.runtime.environment import Environment
from repro.runtime.faults import FaultInjector, NoFaults
from repro.runtime.voting import Voter, first_non_bottom
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.runid import derive_run_id
from repro.telemetry.sink import InstrumentationSink


class _EventRelay:
    """Shared event sink stamping correlation keys on emission.

    Replaces the bare list PR 3 shared between monitor, watchdog, and
    executive: every appended event is stamped with the run's stable
    ``run_id`` and its monotonic emission index ``seq`` (so merged
    batch streams sort deterministically), then fanned out to the
    telemetry sinks — one correlated stream per run.
    """

    __slots__ = ("events", "run_id", "sinks")

    def __init__(
        self,
        run_id: str,
        sinks: "tuple[InstrumentationSink, ...]" = (),
    ) -> None:
        self.events: list[ResilienceEvent] = []
        self.run_id = run_id
        self.sinks = sinks

    def append(self, event: ResilienceEvent) -> None:
        import dataclasses

        event = dataclasses.replace(
            event, run_id=self.run_id, seq=len(self.events)
        )
        self.events.append(event)
        for sink in self.sinks:
            sink.on_event(event)


@dataclass(kw_only=True)
class ResilientResult(SimulationResult):
    """Outcome of one resilient run: traces, events, and provenance.

    The trace statistics are those of any
    :class:`~repro.runtime.engine.SimulationResult`;
    ``implementation_log`` records ``(period, implementation)`` for
    the initial mapping and every committed recovery; ``events`` is
    the full resilience stream (monitor, watchdog, recovery) in
    emission order, ready for :func:`~repro.resilience.events.
    events_to_jsonl`.
    """

    events: tuple[ResilienceEvent, ...]
    implementation_log: tuple[tuple[int, Implementation], ...]
    recoveries: tuple[RecoveryOutcome, ...]
    monitor: "LrcMonitor | None"
    detector: "HostFailureDetector | None"

    # -- event queries --------------------------------------------------

    def events_of(self, *kinds: type) -> list[ResilienceEvent]:
        """Return the events that are instances of any of *kinds*."""
        return [e for e in self.events if isinstance(e, kinds)]

    def detection_time(self, host: str) -> "int | None":
        """Return the instant *host* was declared dead, or ``None``."""
        for event in self.events:
            if isinstance(event, HostDead) and event.host == host:
                return event.time
        return None

    def violation_windows(
        self, communicator: str
    ) -> list[tuple[int, "int | None"]]:
        """Return ``(alarm_time, clear_time)`` pairs for *communicator*.

        An open violation (never cleared) has ``clear_time = None``.
        """
        windows: list[tuple[int, "int | None"]] = []
        open_at: "int | None" = None
        for event in self.events:
            if isinstance(event, LrcAlarm) and (
                event.communicator == communicator
            ):
                open_at = event.time
            elif isinstance(event, LrcClear) and (
                event.communicator == communicator
            ):
                if open_at is not None:
                    windows.append((open_at, event.time))
                    open_at = None
        if open_at is not None:
            windows.append((open_at, None))
        return windows

    def windowed_rate(self, communicator: str) -> "float | None":
        """Return the monitor's final windowed rate for *communicator*."""
        if self.monitor is None:
            return None
        return self.monitor.rate(communicator)

    def summary(self) -> str:
        """Return a human-readable multi-line summary."""
        lines = [
            f"resilient simulation over {self.iterations} iterations "
            f"({len(self.recoveries)} recoveries, "
            f"{len(self.events)} events)"
        ]
        averages = self.limit_averages()
        for name in sorted(averages):
            lrc = self.spec.communicators[name].lrc
            mark = "ok " if averages[name] >= lrc else "LOW"
            windowed = self.windowed_rate(name)
            tail = (
                f", windowed {windowed:.4f}" if windowed is not None else ""
            )
            lines.append(
                f"  [{mark}] {name}: observed {averages[name]:.6f} "
                f"(LRC {lrc:.6f}{tail})"
            )
        for period, implementation in self.implementation_log[1:]:
            assignment = {
                task: sorted(hosts)
                for task, hosts in sorted(
                    implementation.assignment.items()
                )
            }
            lines.append(
                f"  recovery at period {period}: {assignment}"
            )
        return "\n".join(lines)


class ResilientSimulator:
    """Scalar executor with online monitoring and recovery.

    Parameters
    ----------
    spec, arch, implementation:
        The design to execute; *implementation* must be a static
        mapping (recovery rewrites it wholesale).
    monitor:
        :class:`MonitorConfig` enabling the online LRC monitor.
    watchdog:
        :class:`WatchdogConfig` enabling the host-failure detector.
        Required when *policies* are given.
    policies:
        Recovery policies consulted, in order, when the watchdog
        declares a host dead.  The first verified outcome is
        committed at the next iteration boundary.
    max_recoveries:
        Upper bound on committed recoveries per run.
    environment, faults, voter, actuator_communicators, seed:
        As for :class:`~repro.runtime.engine.Simulator`.  The seed
        governs every stochastic fault draw; two runs with the same
        seed produce identical traces *and* identical event streams.
    telemetry:
        Optional :class:`~repro.telemetry.bus.TelemetryBus`: its
        sinks (tracer, metrics) receive the engine hook stream of
        every chained period *and* each resilience event as it is
        emitted, and the bus collects the stamped events.
    sinks:
        Extra :class:`~repro.telemetry.sink.InstrumentationSink`
        subscribers (e.g. a
        :class:`~repro.telemetry.provenance.ProvenanceRecorder`)
        attached directly, without a bus; they see the same hook
        stream and stamped events as the bus sinks.
    run_id:
        Correlation key stamped on every event; defaults to
        :func:`~repro.telemetry.runid.derive_run_id` of the seed, so
        a ``resilient_batch`` run and its directly constructed
        equivalent agree without coordination.
    """

    def __init__(
        self,
        spec: Specification,
        arch: Architecture,
        implementation: Implementation,
        *,
        environment: "Environment | None" = None,
        faults: "FaultInjector | None" = None,
        voter: Voter = first_non_bottom,
        actuator_communicators: "Iterable[str] | None" = None,
        seed: "int | np.random.Generator" = 0,
        monitor: "MonitorConfig | None" = None,
        watchdog: "WatchdogConfig | None" = None,
        policies: Sequence[RecoveryPolicy] = (),
        max_recoveries: int = 4,
        telemetry: "TelemetryBus | None" = None,
        sinks: Iterable[InstrumentationSink] = (),
        run_id: "str | None" = None,
    ) -> None:
        if not isinstance(implementation, Implementation):
            raise RuntimeSimulationError(
                "ResilientSimulator needs a static Implementation; "
                "recovery rewrites the mapping at iteration boundaries"
            )
        if policies and watchdog is None:
            watchdog = WatchdogConfig()
        self.spec = spec
        self.arch = arch
        self.implementation = implementation
        self.environment = environment
        self.faults = faults or NoFaults()
        self.voter = voter
        self.actuators = actuator_communicators
        self.seed = seed
        self.monitor_config = monitor
        self.watchdog_config = watchdog
        self.policies = tuple(policies)
        self.max_recoveries = max_recoveries
        self.telemetry = telemetry
        self.sinks: "tuple[InstrumentationSink, ...]" = tuple(sinks)
        self.run_id = run_id

    # ------------------------------------------------------------------

    def _heard_hosts(
        self,
        implementation: Implementation,
        result: SimulationResult,
    ) -> dict[str, bool]:
        """Per-host: was any broadcast heard in the period just run?

        A host is heard when at least one of its replica invocations
        completed *and* its broadcast was delivered — exactly the
        complement of the engine's per-replica failure count, and the
        only liveness signal fail-silent hosts emit.
        """
        heard: dict[str, bool] = {}
        for task, hosts in implementation.assignment.items():
            for host in hosts:
                attempts = result.replica_attempts.get((task, host), 0)
                failures = result.replica_failures.get((task, host), 0)
                if attempts > failures:
                    heard[host] = True
                else:
                    heard.setdefault(host, False)
        return heard

    def run(self, iterations: int) -> ResilientResult:
        """Execute *iterations* periods with monitoring and recovery."""
        rng = (
            self.seed
            if isinstance(self.seed, np.random.Generator)
            else np.random.default_rng(self.seed)
        )
        run_id = (
            self.run_id if self.run_id is not None else derive_run_id(rng)
        )
        telemetry_sinks: "tuple[InstrumentationSink, ...]" = (
            self.telemetry.sinks if self.telemetry is not None else ()
        ) + self.sinks
        relay = _EventRelay(run_id, telemetry_sinks)
        events = relay.events
        monitor = (
            LrcMonitor(self.spec, self.monitor_config, sink=relay)
            if self.monitor_config is not None
            else None
        )
        detector = (
            HostFailureDetector(
                self.arch.hosts, self.watchdog_config, sink=relay
            )
            if self.watchdog_config is not None
            else None
        )
        current = self.implementation
        implementation_log: list[tuple[int, Implementation]] = [
            (0, current)
        ]
        recoveries: list[RecoveryOutcome] = []
        acted_on: frozenset[str] = frozenset()

        def build(key: int) -> Simulator:
            return Simulator(
                self.spec,
                self.arch,
                current,
                environment=self.environment,
                faults=self.faults,
                voter=self.voter,
                actuator_communicators=self.actuators,
                seed=rng,
                monitor=monitor,
                sinks=telemetry_sinks,
            )

        def boundary(
            index: int, time: int, result: SimulationResult
        ) -> None:
            nonlocal current, acted_on
            if detector is None:
                return
            for host, heard in sorted(
                self._heard_hosts(current, result).items()
            ):
                detector.observe(host, time, heard)
            dead = detector.dead_hosts()
            if (
                not (dead - acted_on)
                or not self.policies
                or len(recoveries) >= self.max_recoveries
            ):
                return
            acted_on = dead
            context = RecoveryContext(
                spec=self.spec,
                arch=self.arch,
                implementation=current,
                dead_hosts=dead,
                time=time,
            )
            outcome = first_applicable(self.policies, context)
            if outcome is None:
                relay.append(
                    RecoveryFailed(
                        time=time,
                        dead_hosts=tuple(sorted(dead)),
                        reason=(
                            "no policy produced a configuration whose "
                            "recomputed SRGs meet the constraints"
                        ),
                    )
                )
                return
            relay.append(
                RecoveryCommitted(
                    time=time,
                    policy=outcome.policy,
                    dead_hosts=tuple(sorted(dead)),
                    assignment={
                        task: tuple(sorted(hosts))
                        for task, hosts in sorted(
                            outcome.implementation.assignment.items()
                        )
                    },
                    srgs=outcome.report.srgs(),
                )
            )
            recoveries.append(outcome)
            current = outcome.implementation
            implementation_log.append((index + 1, current))

        # The configuration in force is the latest committed mapping.
        chained = run_chained(
            iterations, lambda: len(implementation_log), build, boundary
        )
        if self.telemetry is not None:
            # The sinks saw each event live (via the relay); the bus
            # list just collects the stamped stream for export.
            self.telemetry.events.extend(events)

        return ResilientResult(
            **vars(chained),
            events=tuple(events),
            implementation_log=tuple(implementation_log),
            recoveries=tuple(recoveries),
            monitor=monitor,
            detector=detector,
        )


def resilient_batch(
    spec: Specification,
    arch: Architecture,
    implementation: Implementation,
    runs: int,
    iterations: int,
    seed: int = 0,
    *,
    environment_factory: "Callable[[], Environment] | None" = None,
    faults: "FaultInjector | None" = None,
    voter: Voter = first_non_bottom,
    actuator_communicators: "Iterable[str] | None" = None,
    monitor: "MonitorConfig | None" = None,
    watchdog: "WatchdogConfig | None" = None,
    policies: Sequence[RecoveryPolicy] = (),
    max_recoveries: int = 4,
) -> BatchResult:
    """Run *runs* independent resilient simulations on spawned seeds.

    Recovery decisions depend on each run's own fault draws, so the
    detect→decide→recover loop is inherently per-run; this helper
    preserves the batch seed contract by running the scalar resilient
    executive through :func:`~repro.runtime.batch.run_scalar_batch`
    over the same ``SeedSequence.spawn`` children the vectorized
    executor uses.  The result is a
    :class:`~repro.runtime.batch.BatchResult` with executor
    ``"scalar-resilient"`` whose ``monitor_events`` hold every run's
    resilience stream (monitor, watchdog, recovery), tagged with its
    run index.  Run ``k`` (counts and events alike) is bit-identical
    to ``ResilientSimulator(...,
    seed=np.random.default_rng(children[k]))``; its recoveries are its
    :class:`~repro.resilience.events.RecoveryCommitted` events.
    """
    if runs <= 0:
        raise RuntimeSimulationError(
            f"runs must be positive, got {runs}"
        )

    def run(
        environment: Environment | None, rng: np.random.Generator
    ) -> tuple[SimulationResult, Sequence[ResilienceEvent]]:
        result = ResilientSimulator(
            spec,
            arch,
            implementation,
            environment=environment,
            faults=faults,
            voter=voter,
            actuator_communicators=actuator_communicators,
            seed=rng,
            monitor=monitor,
            watchdog=watchdog,
            policies=policies,
            max_recoveries=max_recoveries,
        ).run(iterations)
        return result, result.events

    return run_scalar_batch(
        {name: comm.lrc for name, comm in spec.communicators.items()},
        np.random.SeedSequence(seed).spawn(runs),
        iterations,
        run,
        environment_factory=environment_factory,
        executor="scalar-resilient",
    )
