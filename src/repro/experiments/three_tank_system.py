"""The three-tank system controller of Fig. 2 / Section 4.

Communicators (periods in milliseconds, as in the paper):

========  ======  =========================================
name      period  role
========  ======  =========================================
``s1/s2``    500  raw sensor readings (input communicators)
``l1/l2``    100  computed tank levels
``u1/u2``    100  pump motor currents (actuator outputs)
``r1/r2``    500  estimated perturbations
========  ======  =========================================

Tasks (all repeat every 500 ms):

* ``read1/read2`` — level from raw sensor; failure model 2 (parallel);
* ``t1/t2`` — pump command from level; failure model 1 (series);
* ``estimate1/estimate2`` — perturbation from level and command;
  failure model 1 (series).

Timing: ``read`` computes in ``[0, 200]`` (writes ``l[2]``), the
controller in ``[200, 400]`` (writes ``u[4]``), and the estimator in
``[400, 500]`` (writes ``r[1]``).

Section 4's evaluation assumes every host and sensor reliability is
0.999, yielding the paper's SRGs: ``lambda_l = 0.998001`` and
``lambda_u = 0.997003`` for the baseline mapping; scenario 1
(controller replication on h1+h2) lifts ``lambda_u`` to 0.998000002
and scenario 2 (duplicated sensors) to 0.998000003.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.arch.architecture import Architecture, ExecutionMetrics
from repro.arch.host import Host
from repro.arch.sensor import Sensor
from repro.mapping.implementation import Implementation
from repro.model.communicator import Communicator
from repro.model.specification import Specification
from repro.model.task import Task
from repro.model.values import is_reliable_value
from repro.plants.controllers import PIController, PerturbationEstimator
from repro.plants.three_tank import ThreeTankPlant
from repro.runtime.environment import Environment

#: Level the controllers regulate both outer tanks to (metres).
SETPOINT = 0.25

#: The control period in milliseconds (Fig. 2).
CONTROL_PERIOD_MS = 500

#: The communicators read by the physical actuators (pump drivers).
#: They are also read by the estimator tasks, so they cannot be
#: inferred structurally; pass this set to the simulator explicitly.
ACTUATORS = frozenset({"u1", "u2"})


def three_tank_spec(
    lrc_u: float = 0.99,
    lrc_l: float = 0.99,
    lrc_s: float = 0.999,
    lrc_r: float = 0.99,
    functions: dict[str, Callable[..., Any]] | None = None,
) -> Specification:
    """Build the 3TS specification of Fig. 2.

    LRCs are parameters because Section 4 evaluates two requirement
    levels: ``lrc_u = 0.99`` (baseline passes) and ``lrc_u = 0.9975``
    (baseline fails; scenarios 1 and 2 pass).  *functions* binds task
    functions (see :func:`bind_control_functions`); analyses work
    without them.
    """
    functions = functions or {}
    communicators = [
        Communicator("s1", period=500, lrc=lrc_s, init=SETPOINT),
        Communicator("s2", period=500, lrc=lrc_s, init=SETPOINT),
        Communicator("l1", period=100, lrc=lrc_l, init=SETPOINT),
        Communicator("l2", period=100, lrc=lrc_l, init=SETPOINT),
        Communicator("u1", period=100, lrc=lrc_u, init=0.0),
        Communicator("u2", period=100, lrc=lrc_u, init=0.0),
        Communicator("r1", period=500, lrc=lrc_r, init=0.0),
        Communicator("r2", period=500, lrc=lrc_r, init=0.0),
    ]
    tasks = [
        Task(
            "read1",
            inputs=[("s1", 0)],
            outputs=[("l1", 2)],
            model="parallel",
            defaults={"s1": SETPOINT},
            function=functions.get("read1"),
        ),
        Task(
            "read2",
            inputs=[("s2", 0)],
            outputs=[("l2", 2)],
            model="parallel",
            defaults={"s2": SETPOINT},
            function=functions.get("read2"),
        ),
        Task(
            "t1",
            inputs=[("l1", 2)],
            outputs=[("u1", 4)],
            model="series",
            function=functions.get("t1"),
        ),
        Task(
            "t2",
            inputs=[("l2", 2)],
            outputs=[("u2", 4)],
            model="series",
            function=functions.get("t2"),
        ),
        Task(
            "estimate1",
            inputs=[("l1", 2), ("u1", 4)],
            outputs=[("r1", 1)],
            model="series",
            function=functions.get("estimate1"),
        ),
        Task(
            "estimate2",
            inputs=[("l2", 2), ("u2", 4)],
            outputs=[("r2", 1)],
            model="series",
            function=functions.get("estimate2"),
        ),
    ]
    return Specification(communicators, tasks)


def three_tank_architecture(
    reliability: float = 0.999,
    sensor_reliability: float | None = None,
    duplicated_sensors: bool = True,
) -> Architecture:
    """Build the 3TS architecture: hosts h1..h3 and the level sensors.

    All host and sensor reliabilities default to the paper's assumed
    0.999.  With *duplicated_sensors* the backup sensors ``sen1b`` and
    ``sen2b`` needed by scenario 2 are declared as well (declaring
    them does not bind them).
    """
    sensor_reliability = (
        reliability if sensor_reliability is None else sensor_reliability
    )
    sensors = [
        Sensor("sen1", sensor_reliability),
        Sensor("sen2", sensor_reliability),
    ]
    if duplicated_sensors:
        sensors += [
            Sensor("sen1b", sensor_reliability),
            Sensor("sen2b", sensor_reliability),
        ]
    return Architecture(
        hosts=[
            Host("h1", reliability),
            Host("h2", reliability),
            Host("h3", reliability),
        ],
        sensors=sensors,
        metrics=ExecutionMetrics(default_wcet=20, default_wctt=10),
    )


def baseline_implementation() -> Implementation:
    """The Section 4 baseline: t1 on h1, t2 on h2, the rest on h3."""
    return Implementation(
        {
            "read1": {"h3"},
            "read2": {"h3"},
            "t1": {"h1"},
            "t2": {"h2"},
            "estimate1": {"h3"},
            "estimate2": {"h3"},
        },
        {"s1": {"sen1"}, "s2": {"sen2"}},
    )


def scenario1_implementation() -> Implementation:
    """Scenario 1: replicate the controllers on both h1 and h2."""
    baseline = baseline_implementation()
    return baseline.with_assignment("t1", {"h1", "h2"}).with_assignment(
        "t2", {"h1", "h2"}
    )


def scenario2_implementation() -> Implementation:
    """Scenario 2: duplicate the level sensors (model-2 read tasks)."""
    baseline = baseline_implementation()
    return baseline.with_sensor_binding(
        "s1", {"sen1", "sen1b"}
    ).with_sensor_binding("s2", {"sen2", "sen2b"})


@dataclass
class ThreeTankEnvironment(Environment):
    """Couples the runtime simulator to the 3TS plant.

    Sensors ``s1``/``s2`` read the levels of tanks 1 and 2; actuator
    communicators ``u1``/``u2`` command the pumps.  An unreliable
    actuation (``BOTTOM``) holds the previous pump command, which is
    what a real pump driver does when no update arrives.  Time units
    are milliseconds.
    """

    plant: ThreeTankPlant = field(default_factory=ThreeTankPlant)
    level_log: dict[str, list[float]] = field(
        default_factory=lambda: {"l1": [], "l2": []}
    )
    bottom_actuations: int = 0

    def sense(self, communicator: str, time: int) -> float:
        if communicator == "s1":
            return self.plant.level(0)
        if communicator == "s2":
            return self.plant.level(1)
        return 0.0

    def actuate(self, communicator: str, time: int, value: Any) -> None:
        if not is_reliable_value(value):
            self.bottom_actuations += 1
            return
        if communicator == "u1":
            self.plant.set_pump(0, value)
        elif communicator == "u2":
            self.plant.set_pump(1, value)

    def advance(self, time: int, dt: int) -> None:
        self.plant.step(dt / 1000.0)
        self.level_log["l1"].append(self.plant.level(0))
        self.level_log["l2"].append(self.plant.level(1))


def bind_control_functions(
    setpoint: float = SETPOINT,
    plant: ThreeTankPlant | None = None,
) -> dict[str, Callable[..., Any]]:
    """Return the task-function bindings for a closed-loop run.

    Controller and estimator state lives in the returned closures; use
    a fresh binding per simulation.  The PI gains are tuned for the
    default plant parameters at the 500 ms control period.
    """
    reference = plant or ThreeTankPlant()
    dt = CONTROL_PERIOD_MS / 1000.0
    feedforward = reference.steady_pump_flow(setpoint)
    pump_limit = reference.params.max_pump_flow
    controller1 = PIController(
        setpoint=setpoint, kp=2.0e-3, ki=1.0e-4, dt=dt,
        feedforward=feedforward, output_max=pump_limit,
    )
    controller2 = PIController(
        setpoint=setpoint, kp=2.0e-3, ki=1.0e-4, dt=dt,
        feedforward=feedforward, output_max=pump_limit,
    )
    estimator1 = PerturbationEstimator(
        tank_area=reference.params.tank_area, dt=dt
    )
    estimator2 = PerturbationEstimator(
        tank_area=reference.params.tank_area, dt=dt
    )
    return {
        "read1": lambda s: s,
        "read2": lambda s: s,
        "t1": controller1.update,
        "t2": controller2.update,
        "estimate1": estimator1.update,
        "estimate2": estimator2.update,
    }


def unplug_monte_carlo(
    implementation: Implementation,
    victim: str,
    unplug_at: int,
    runs: int,
    iterations: int,
    seed: int = 99,
    lrc_u: float = 0.99,
) -> Any:
    """Batched pull-the-plug experiment: Bernoulli faults + an outage.

    Takes *victim* down permanently at time *unplug_at* (milliseconds)
    on top of the per-invocation Bernoulli faults, and returns the
    :class:`~repro.runtime.batch.BatchResult` of ``runs`` independent
    Monte-Carlo runs — the reliability-counts view of the paper's E5
    experiment, executed on the vectorized batch path.
    """
    from repro.runtime.batch import BatchSimulator
    from repro.runtime.faults import (
        BernoulliFaults,
        CompositeFaults,
        ScriptedFaults,
    )

    spec = three_tank_spec(lrc_u=lrc_u)
    arch = three_tank_architecture()
    faults = CompositeFaults(
        [
            ScriptedFaults(host_outages={victim: [(unplug_at, None)]}),
            BernoulliFaults(arch),
        ]
    )
    simulator = BatchSimulator(
        spec, arch, implementation, faults=faults, seed=seed
    )
    return simulator.run_batch(runs, iterations)


@dataclass
class DetectAndRecoverOutcome:
    """Everything the detect-and-recover experiment reports.

    ``recovered`` ran with the recovery policies enabled, ``baseline``
    with detection only (same seed, same faults) — the no-recovery
    control arm.  Latencies are in control periods.
    """

    victim: str
    unplug_at: int
    recovered: Any
    baseline: Any
    detection_time: "int | None"
    detection_latency_periods: "float | None"
    violation_windows: dict[str, list[tuple[int, "int | None"]]]
    baseline_windows: dict[str, list[tuple[int, "int | None"]]]

    def violation_length(self, communicator: str) -> "int | None":
        """Total closed violation time of *communicator*, recovered arm.

        ``None`` when a violation window never closed (recovery did
        not restore compliance within the run).
        """
        total = 0
        for start, end in self.violation_windows.get(communicator, []):
            if end is None:
                return None
            total += end - start
        return total

    def summary(self) -> str:
        """Return a human-readable report of both arms."""
        lines = [
            f"detect-and-recover: unplug {self.victim} at "
            f"t={self.unplug_at} ms"
        ]
        if self.detection_time is None:
            lines.append("  detection: MISSED")
        else:
            lines.append(
                f"  detected dead at t={self.detection_time} ms "
                f"({self.detection_latency_periods:.1f} control periods)"
            )
        for name in sorted(self.violation_windows):
            length = self.violation_length(name)
            windows = self.violation_windows[name]
            state = (
                "never violated"
                if not windows
                else "violation never cleared"
                if length is None
                else f"violated for {length} ms"
            )
            rate = self.recovered.windowed_rate(name)
            tail = f", final windowed rate {rate:.4f}" if rate is not None else ""
            lines.append(f"  [recover] {name}: {state}{tail}")
        for name in sorted(self.baseline_windows):
            rate = self.baseline.windowed_rate(name)
            open_violation = any(
                end is None for _, end in self.baseline_windows[name]
            )
            state = (
                "violation never cleared" if open_violation else "recovered"
            )
            tail = f", final windowed rate {rate:.4f}" if rate is not None else ""
            lines.append(f"  [baseline] {name}: {state}{tail}")
        return "\n".join(lines)


def detect_and_recover(
    implementation: Implementation | None = None,
    victim: str = "h2",
    unplug_at: int = 5000,
    iterations: int = 40,
    seed: int = 99,
    lrc_u: float = 0.99,
    bernoulli: bool = False,
    monitor: Any = None,
    watchdog: Any = None,
    policies: Any = None,
    max_replicas: "int | None" = None,
) -> DetectAndRecoverOutcome:
    """The closed detect→decide→recover loop on the 3TS unplug scenario.

    Extends the pull-the-plug experiment (E5): *victim* goes down
    permanently at *unplug_at* while the online LRC monitor watches
    ``u1``/``u2`` and the watchdog listens for missing broadcasts.
    Once the victim is declared dead (with the default watchdog,
    within 3 control periods), the re-replication policy maps its
    replicas onto the surviving hosts — committed only after the
    recomputed SRGs satisfy every LRC — and the run continues under
    the repaired mapping.  A second run with recovery disabled (same
    seed, same faults) is the no-recovery baseline.

    With *bernoulli* the per-invocation 0.999 Bernoulli faults are
    layered on top of the outage, as in the paper's E5; the default
    runs the pure scripted outage, which makes every reported number
    deterministic.
    """
    from repro.resilience import (
        MonitorConfig,
        ReReplicatePolicy,
        ResilientSimulator,
        WatchdogConfig,
    )
    from repro.runtime.faults import (
        BernoulliFaults,
        CompositeFaults,
        ScriptedFaults,
    )

    implementation = implementation or baseline_implementation()
    monitor = monitor or MonitorConfig(
        window=50, communicators=("u1", "u2")
    )
    watchdog = watchdog or WatchdogConfig()
    if policies is None:
        policies = (ReReplicatePolicy(max_replicas=max_replicas),)
    arch = three_tank_architecture()

    def build_faults() -> Any:
        scripted = ScriptedFaults(
            host_outages={victim: [(unplug_at, None)]}
        )
        if not bernoulli:
            return scripted
        return CompositeFaults([scripted, BernoulliFaults(arch)])

    def run(with_policies: Any) -> Any:
        spec = three_tank_spec(
            lrc_u=lrc_u, functions=bind_control_functions()
        )
        simulator = ResilientSimulator(
            spec,
            arch,
            implementation,
            environment=ThreeTankEnvironment(),
            faults=build_faults(),
            actuator_communicators=ACTUATORS,
            seed=seed,
            monitor=monitor,
            watchdog=watchdog,
            policies=with_policies,
        )
        return simulator.run(iterations)

    recovered = run(policies)
    baseline = run(())
    detection_time = recovered.detection_time(victim)
    latency = (
        None
        if detection_time is None
        else (detection_time - unplug_at) / CONTROL_PERIOD_MS
    )
    watched = monitor.communicators or tuple(
        sorted(recovered.spec.communicators)
    )
    return DetectAndRecoverOutcome(
        victim=victim,
        unplug_at=unplug_at,
        recovered=recovered,
        baseline=baseline,
        detection_time=detection_time,
        detection_latency_periods=latency,
        violation_windows={
            name: recovered.violation_windows(name) for name in watched
        },
        baseline_windows={
            name: baseline.violation_windows(name) for name in watched
        },
    )


def closed_loop_simulator(
    implementation: Implementation,
    faults: Any = None,
    seed: int = 11,
    setpoint: float = SETPOINT,
    lrc_u: float = 0.99,
) -> tuple[Any, ThreeTankEnvironment]:
    """Build a ready-to-run closed-loop 3TS simulator.

    Returns ``(simulator, environment)``: fresh plant, fresh controller
    state, sensors and pumps wired, and the pump commands registered as
    actuator communicators.  Run with ``simulator.run(iterations)`` and
    read levels from ``environment.level_log``.
    """
    from repro.runtime.engine import Simulator

    functions = bind_control_functions(setpoint=setpoint)
    spec = three_tank_spec(lrc_u=lrc_u, functions=functions)
    arch = three_tank_architecture()
    environment = ThreeTankEnvironment()
    simulator = Simulator(
        spec,
        arch,
        implementation,
        environment=environment,
        faults=faults,
        actuator_communicators=ACTUATORS,
        seed=seed,
    )
    return simulator, environment
