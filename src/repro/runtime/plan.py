"""The compiled simulation plan: a shared IR for both executors.

``compile_plan`` lowers ``(Specification, Architecture,
TimeDependentImplementation)`` into a :class:`SimulationPlan`: a
flattened, integer-indexed timetable over one specification period
(the mapping hyperperiod is ``n_phases`` such periods), with numpy
arrays for snapshot instants, release/commit phases, and per-replica
host/sensor reliability vectors.  Two executors consume the plan:

* :class:`repro.runtime.engine.Simulator` interprets it tick by tick,
  executing real task functions against an environment — the
  semantics oracle;
* :class:`repro.runtime.batch.BatchSimulator` evaluates only the
  reliability abstraction, vectorized over many Monte-Carlo runs at
  once.

The plan also fixes the **canonical fault-draw order** that makes the
two executors bit-identical per seed: within every iteration,
stochastic draws happen in timetable order (offsets ascending; at one
offset, sensor updates in communicator order before task releases in
task order), each sensor update drawing one uniform per bound sensor
(sorted), each release drawing one uniform per replica host (sorted,
the voting order) followed by one broadcast uniform per host iff the
network reliability is below 1.  :class:`DrawSchedule` records the
flat draw offsets so a batch executor can sample the entire stream of
a run with one ``Generator.random`` call and slice it per event.

It also fixes the batch executor's **evaluation order**: the release
graph (writer -> reader, inputs of independent-model tasks pruned)
condensed into strongly connected components in topological order
(:class:`ReleaseComponent`).  A component that is a single event
without a self-loop is propagated over whole ``(runs, iterations)``
arrays; a cyclic one (a communicator cycle with memory) is a
recurrence over iterations, which the batch kernel solves with a
prefix scan.  Within one iteration, ascending event index is a
valid evaluation order of a component: a same-iteration edge runs from
writer to reader with writer release < write time <= port offset <=
reader release, and releases are indexed by (offset, task), so the
writer has the lower index.  Every cycle therefore closes through a
*lagged* port, which reads the previous iteration's write (lag exactly
one iteration, since write times lie in ``(0, period]``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import networkx as nx
import numpy as np

from repro.arch.architecture import Architecture
from repro.mapping.implementation import Implementation
from repro.mapping.timedep import TimeDependentImplementation
from repro.model.specification import Specification
from repro.model.task import FailureModel
from repro.model.values import is_reliable_value


@dataclass(frozen=True)
class PortSlot:
    """One input port of a release event, resolved against the plan.

    ``offset`` is the snapshot instant of the port within the period
    (``pi_c * instance``).  ``writer_event`` indexes the release event
    of the task writing the communicator (``-1`` for input or
    init-only communicators); ``same_iteration`` says whether the
    governing write happens in the snapshot's own iteration (write
    time <= snapshot offset) or carries over from the previous one.
    ``sensor_event`` indexes the sensor update delivering the value at
    exactly the snapshot instant (``-1`` for written communicators).
    """

    comm: str
    comm_index: int
    offset: int
    writer_event: int
    same_iteration: bool
    sensor_event: int


@dataclass(frozen=True)
class SensorEvent:
    """A periodic sensor update of one input communicator.

    There is one event per (communicator, offset) pair: an input
    communicator with period ``pi_c`` is updated at every multiple of
    ``pi_c`` within the specification period.  ``sensors[p]`` /
    ``srel[p]`` give the bound sensors (sorted) and their
    reliabilities under phase ``p``.
    """

    index: int
    comm: str
    comm_index: int
    offset: int
    sensors: tuple[tuple[str, ...], ...]
    srel: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class ReleaseEvent:
    """The release of one task invocation within the period.

    ``hosts[p]`` is the sorted host tuple executing the task's
    replications under phase ``p`` — the voting order of the scalar
    executor — and ``hrel[p]`` the matching reliability vector.
    ``write_time`` is the absolute commit instant within the period
    (in ``(0, period]``; a value of ``period`` commits at offset 0 of
    the next period).
    """

    index: int
    task: str
    task_index: int
    offset: int
    write_time: int
    model: FailureModel
    ports: tuple[PortSlot, ...]
    output_comms: tuple[int, ...]
    hosts: tuple[tuple[str, ...], ...]
    hrel: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class ReleaseComponent:
    """One strongly connected component of the release graph.

    ``events`` are release event indices, ascending — a valid
    evaluation order within one iteration.  ``cyclic`` marks a
    component with more than one event or a self-loop: its
    reliability is a per-iteration recurrence, closed through lagged
    ports.
    """

    events: tuple[int, ...]
    cyclic: bool


@dataclass(frozen=True)
class DrawSchedule:
    """Flat per-iteration draw layout of one phase.

    ``draws`` uniforms are consumed per iteration under this phase.
    Slot arrays map each stochastic slot to its event and its offset
    into the iteration's draw block; replica slots reserve two
    consecutive uniforms (invocation, then broadcast) when
    ``broadcast_drawn`` is set on the plan.
    """

    draws: int
    sensor_slot_event: np.ndarray
    sensor_slot_offset: np.ndarray
    sensor_slot_rel: np.ndarray
    sensor_slot_name: tuple[str, ...]
    replica_slot_event: np.ndarray
    replica_slot_offset: np.ndarray
    replica_slot_rel: np.ndarray
    replica_slot_host: tuple[str, ...]
    replica_slot_task: tuple[str, ...]


@dataclass(frozen=True)
class SimulationPlan:
    """The compiled timetable shared by the scalar and batch executors.

    Scalar-interpreter tables (``snap_plan``, ``release_plan``,
    ``commit_plan``, ``sensor_plan``) are keyed by period offset
    (``commit_plan`` by the absolute write time, which may equal the
    period); batch tables are integer-indexed with numpy reliability
    vectors.  ``batch_order`` is the condensation of the release graph
    (input edges of independent-model tasks pruned) into strongly
    connected components, in topological order; cyclic components are
    marked once here so the batch kernel does not re-derive them.
    """

    spec: Specification
    arch: Architecture
    implementation: TimeDependentImplementation
    period: int
    tick: int
    n_phases: int

    comm_names: tuple[str, ...]
    comm_index: Mapping[str, int]
    comm_periods: np.ndarray
    accesses_per_period: np.ndarray
    init_reliable: np.ndarray
    input_comms: tuple[str, ...]

    sensor_events: tuple[SensorEvent, ...]
    sensor_event_index: Mapping[tuple[str, int], int]
    releases: tuple[ReleaseEvent, ...]
    writer_event: np.ndarray  # comm index -> release event index or -1
    batch_order: tuple[ReleaseComponent, ...]

    broadcast_reliability: float
    broadcast_drawn: bool
    schedules: tuple[DrawSchedule, ...]

    snap_plan: Mapping[int, tuple[tuple[str, int, str], ...]]
    release_plan: Mapping[int, tuple[str, ...]]
    commit_plan: Mapping[int, tuple[str, ...]]
    sensor_plan: Mapping[int, tuple[str, ...]]
    write_times: Mapping[str, int]
    release_index: Mapping[str, int]

    snapshot_offsets: np.ndarray
    release_offsets: np.ndarray
    commit_times: np.ndarray

    # ------------------------------------------------------------------

    def hosts_of(self, task: str, iteration: int) -> tuple[str, ...]:
        """Return the replica hosts of *task* at *iteration* (voting order)."""
        event = self.releases[self.release_index[task]]
        return event.hosts[iteration % self.n_phases]

    def sensors_of(self, comm: str, iteration: int) -> tuple[str, ...]:
        """Return the sensors updating *comm* at *iteration* (sorted)."""
        try:
            event = self.sensor_events[self.sensor_event_index[(comm, 0)]]
        except KeyError:
            raise KeyError(comm) from None
        return event.sensors[iteration % self.n_phases]

    def draw_layout(self, iterations: int) -> tuple[np.ndarray, int]:
        """Return ``(base, total)`` for a run of *iterations* periods.

        ``base[k]`` is the flat index of iteration ``k``'s first draw;
        ``total`` is the stream length a batch run consumes — exactly
        what the scalar executor consumes with the same injector.
        """
        per_iter = np.array(
            [self.schedules[k % self.n_phases].draws
             for k in range(self.n_phases)],
            dtype=np.int64,
        )
        tiled = np.tile(per_iter, -(-iterations // self.n_phases))[
            :iterations
        ]
        base = np.zeros(iterations, dtype=np.int64)
        np.cumsum(tiled[:-1], out=base[1:])
        total = int(base[-1] + tiled[-1]) if iterations else 0
        return base, total


def _batch_order(
    releases: tuple[ReleaseEvent, ...],
) -> tuple[ReleaseComponent, ...]:
    """Condense the release graph into components, topologically ordered.

    Edges run from the writer of a communicator to every release event
    reading it — same-iteration and lagged ports alike, self-loops
    included — except into independent-model tasks (their output
    reliability ignores inputs).  Any topological order of the
    components gives the same bits.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(releases)))
    for event in releases:
        if event.model is FailureModel.INDEPENDENT:
            continue
        for port in event.ports:
            if port.writer_event >= 0:
                graph.add_edge(port.writer_event, event.index)
    dag = nx.condensation(graph)
    order = []
    for node in nx.topological_sort(dag):
        events = tuple(sorted(dag.nodes[node]["members"]))
        cyclic = len(events) > 1 or graph.has_edge(events[0], events[0])
        order.append(ReleaseComponent(events=events, cyclic=cyclic))
    return tuple(order)


def compile_plan(
    spec: Specification,
    arch: Architecture,
    implementation: "Implementation | TimeDependentImplementation",
) -> SimulationPlan:
    """Compile a specification/architecture/mapping triple into a plan.

    The implementation is normalised to a (possibly single-phase)
    :class:`TimeDependentImplementation` and validated; the plan then
    freezes every timetable and reliability lookup the executors need,
    so the hot loops never touch the model objects again.
    """
    if isinstance(implementation, Implementation):
        implementation = TimeDependentImplementation.static(implementation)
    implementation.validate(spec, arch)

    periods = spec.periods()
    period = spec.period()
    tick = spec.base_tick()
    n_phases = implementation.phase_count()
    phases = implementation.phases

    comm_names = tuple(sorted(spec.communicators))
    comm_index = {name: i for i, name in enumerate(comm_names)}
    comm_periods = np.array(
        [periods[name] for name in comm_names], dtype=np.int64
    )
    accesses_per_period = np.array(
        [period // periods[name] for name in comm_names], dtype=np.int64
    )
    init_reliable = np.array(
        [
            is_reliable_value(spec.communicators[name].init)
            for name in comm_names
        ],
        dtype=bool,
    )
    input_comms = tuple(sorted(spec.input_communicators()))

    write_times = {
        task.name: task.write_time(periods) for task in spec.tasks.values()
    }

    # Scalar-interpreter tables, identical in content and ordering to
    # the ones the pre-plan Simulator built for itself.
    snap_plan: dict[int, list[tuple[str, int, str]]] = {}
    release_plan: dict[int, list[str]] = {}
    commit_plan: dict[int, list[str]] = {}
    for task in spec.tasks.values():
        for index, port in enumerate(task.inputs):
            offset = periods[port.communicator] * port.instance
            snap_plan.setdefault(offset, []).append(
                (task.name, index, port.communicator)
            )
        release_plan.setdefault(task.read_time(periods), []).append(
            task.name
        )
        commit_plan.setdefault(write_times[task.name], []).append(task.name)
    for table in (snap_plan, release_plan, commit_plan):
        for key in table:
            table[key].sort()

    sensor_plan: dict[int, tuple[str, ...]] = {}
    for offset in range(0, period, tick):
        due = tuple(
            name
            for name in input_comms
            if offset % periods[name] == 0
        )
        if due:
            sensor_plan[offset] = due

    # Sensor events: one per (input communicator, offset).
    sensor_events: list[SensorEvent] = []
    sensor_event_at: dict[tuple[str, int], int] = {}
    for offset in sorted(sensor_plan):
        for name in sensor_plan[offset]:
            sensors = tuple(
                tuple(sorted(phase.sensors_of(name))) for phase in phases
            )
            srel = tuple(
                np.array([arch.srel(s) for s in bound], dtype=np.float64)
                for bound in sensors
            )
            event = SensorEvent(
                index=len(sensor_events),
                comm=name,
                comm_index=comm_index[name],
                offset=offset,
                sensors=sensors,
                srel=srel,
            )
            sensor_event_at[(name, offset)] = event.index
            sensor_events.append(event)

    # Release events, ordered by (offset, task name) — the timetable
    # (and therefore draw) order of the scalar executor.
    task_names = tuple(sorted(spec.tasks))
    task_index = {name: i for i, name in enumerate(task_names)}
    writer_event = np.full(len(comm_names), -1, dtype=np.int64)
    releases: list[ReleaseEvent] = []
    release_index: dict[str, int] = {}
    for offset in sorted(release_plan):
        for name in release_plan[offset]:
            task = spec.tasks[name]
            hosts = tuple(
                tuple(sorted(phase.hosts_of(name))) for phase in phases
            )
            hrel = tuple(
                np.array([arch.hrel(h) for h in group], dtype=np.float64)
                for group in hosts
            )
            event_index = len(releases)
            release_index[name] = event_index
            for port in task.outputs:
                writer_event[comm_index[port.communicator]] = event_index
            releases.append(
                ReleaseEvent(
                    index=event_index,
                    task=name,
                    task_index=task_index[name],
                    offset=offset,
                    write_time=write_times[name],
                    model=task.model,
                    ports=(),  # resolved below, once writers are known
                    output_comms=tuple(
                        comm_index[p.communicator] for p in task.outputs
                    ),
                    hosts=hosts,
                    hrel=hrel,
                )
            )

    resolved: list[ReleaseEvent] = []
    for event in releases:
        task = spec.tasks[event.task]
        ports = []
        for port in task.inputs:
            offset = periods[port.communicator] * port.instance
            writer = int(writer_event[comm_index[port.communicator]])
            ports.append(
                PortSlot(
                    comm=port.communicator,
                    comm_index=comm_index[port.communicator],
                    offset=offset,
                    writer_event=writer,
                    same_iteration=(
                        writer >= 0
                        and releases[writer].write_time <= offset
                    ),
                    sensor_event=sensor_event_at.get(
                        (port.communicator, offset), -1
                    ),
                )
            )
        resolved.append(
            ReleaseEvent(
                index=event.index,
                task=event.task,
                task_index=event.task_index,
                offset=event.offset,
                write_time=event.write_time,
                model=event.model,
                ports=tuple(ports),
                output_comms=event.output_comms,
                hosts=event.hosts,
                hrel=event.hrel,
            )
        )
    releases = resolved

    brel = arch.network.reliability
    broadcast_drawn = brel < 1.0

    # Draw schedules: the canonical per-iteration uniform layout.
    schedules = []
    for p in range(n_phases):
        sensor_slot_event: list[int] = []
        sensor_slot_offset: list[int] = []
        sensor_slot_rel: list[float] = []
        sensor_slot_name: list[str] = []
        replica_slot_event: list[int] = []
        replica_slot_offset: list[int] = []
        replica_slot_rel: list[float] = []
        replica_slot_host: list[str] = []
        replica_slot_task: list[str] = []
        cursor = 0
        offsets = sorted(
            {e.offset for e in sensor_events}
            | {e.offset for e in releases}
        )
        for offset in offsets:
            for event in sensor_events:
                if event.offset != offset:
                    continue
                for sensor, rel in zip(event.sensors[p], event.srel[p]):
                    sensor_slot_event.append(event.index)
                    sensor_slot_offset.append(cursor)
                    sensor_slot_rel.append(float(rel))
                    sensor_slot_name.append(sensor)
                    cursor += 1
            for event in releases:
                if event.offset != offset:
                    continue
                for host, rel in zip(event.hosts[p], event.hrel[p]):
                    replica_slot_event.append(event.index)
                    replica_slot_offset.append(cursor)
                    replica_slot_rel.append(float(rel))
                    replica_slot_host.append(host)
                    replica_slot_task.append(event.task)
                    cursor += 2 if broadcast_drawn else 1
        schedules.append(
            DrawSchedule(
                draws=cursor,
                sensor_slot_event=np.array(sensor_slot_event, dtype=np.int64),
                sensor_slot_offset=np.array(
                    sensor_slot_offset, dtype=np.int64
                ),
                sensor_slot_rel=np.array(sensor_slot_rel, dtype=np.float64),
                sensor_slot_name=tuple(sensor_slot_name),
                replica_slot_event=np.array(
                    replica_slot_event, dtype=np.int64
                ),
                replica_slot_offset=np.array(
                    replica_slot_offset, dtype=np.int64
                ),
                replica_slot_rel=np.array(
                    replica_slot_rel, dtype=np.float64
                ),
                replica_slot_host=tuple(replica_slot_host),
                replica_slot_task=tuple(replica_slot_task),
            )
        )

    return SimulationPlan(
        spec=spec,
        arch=arch,
        implementation=implementation,
        period=period,
        tick=tick,
        n_phases=n_phases,
        comm_names=comm_names,
        comm_index=comm_index,
        comm_periods=comm_periods,
        accesses_per_period=accesses_per_period,
        init_reliable=init_reliable,
        input_comms=input_comms,
        sensor_events=tuple(sensor_events),
        sensor_event_index=sensor_event_at,
        releases=tuple(releases),
        writer_event=writer_event,
        batch_order=_batch_order(tuple(releases)),
        broadcast_reliability=brel,
        broadcast_drawn=broadcast_drawn,
        schedules=tuple(schedules),
        snap_plan={
            k: tuple(v) for k, v in snap_plan.items()
        },
        release_plan={
            k: tuple(v) for k, v in release_plan.items()
        },
        commit_plan={
            k: tuple(v) for k, v in commit_plan.items()
        },
        sensor_plan=sensor_plan,
        write_times=write_times,
        release_index=release_index,
        snapshot_offsets=np.array(sorted(snap_plan), dtype=np.int64),
        release_offsets=np.array(sorted(release_plan), dtype=np.int64),
        commit_times=np.array(sorted(commit_plan), dtype=np.int64),
    )
