"""Fault injection for the runtime simulator.

All failures are fail-silent: a failed replica or sensor contributes
nothing (the unreliable value ``BOTTOM``), never a wrong value.  The
injector interface is queried once per replica invocation, sensor
update, and broadcast; implementations:

* :class:`NoFaults` — the fault-free baseline;
* :class:`BernoulliFaults` — independent transient failures with the
  architecture's ``1 - hrel`` / ``1 - srel`` / ``1 - brel``
  probabilities, the stochastic model underlying the SRG analysis;
* :class:`ScriptedFaults` — deterministic outages over time intervals,
  e.g. *unplug host h2 from t = 5000 on* (the paper's 3TS
  fault-injection experiment);
* :class:`GilbertElliottFaults` — bursty (correlated) failures from a
  two-state good/bad Markov channel per host, sensor, or network;
* :class:`CrashRepairFaults` — whole-host crash-with-repair cycles
  with exponential MTTF/MTTR;
* :class:`CompositeFaults` — union of several injectors (a replica
  fails if any component injector fails it).

The correlated injectors break the i.i.d. assumption under which the
analytic SRGs are proved — they exist to motivate the *online* LRC
monitor in :mod:`repro.resilience`, which is the only thing that can
tell whether a constraint is being met during a burst.  Stateful
injectors reset their per-run state in :meth:`FaultInjector.begin_run`
(called by :meth:`Simulator.run <repro.runtime.engine.Simulator.run>`
before the first tick), keeping two runs with the same seed
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.arch.architecture import Architecture
from repro.errors import RuntimeSimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.plan import SimulationPlan


@dataclass
class PrecomputedFaults:
    """Vectorized fault masks for one batch of Monte-Carlo runs.

    Per phase ``p``, ``sensor_fail[p]`` has shape
    ``(runs, sensor_slots_p, iterations_of_phase_p)`` with ``True``
    where the slot's sensor update fails, and ``replica_fail[p]`` the
    analogous mask where the slot's replica contributes nothing
    (invocation failure or broadcast loss, already combined).  Slots
    follow the plan's per-phase :class:`~repro.runtime.plan.DrawSchedule`
    order; the iterations of phase ``p`` are
    ``p, p + n_phases, p + 2 * n_phases, ...``.

    ``stochastic`` records whether producing the masks consumed the
    per-run RNG streams — :class:`CompositeFaults` refuses to combine
    more than one stochastic member, because their interleaved draws
    could not reproduce the scalar executor's stream.
    """

    stochastic: bool
    sensor_fail: tuple[np.ndarray, ...]
    replica_fail: tuple[np.ndarray, ...]

    def merge(self, other: "PrecomputedFaults") -> "PrecomputedFaults | None":
        """Union this mask set with *other* (a slot fails if either says so).

        Returns ``None`` when both operands are stochastic — the
        combination would not match any scalar draw order.
        """
        if self.stochastic and other.stochastic:
            return None
        return PrecomputedFaults(
            stochastic=self.stochastic or other.stochastic,
            sensor_fail=tuple(
                a | b for a, b in zip(self.sensor_fail, other.sensor_fail)
            ),
            replica_fail=tuple(
                a | b for a, b in zip(self.replica_fail, other.replica_fail)
            ),
        )


def _phase_iterations(
    plan: "SimulationPlan", iterations: int
) -> list[np.ndarray]:
    """Return the iteration indices governed by each phase."""
    return [
        np.arange(p, iterations, plan.n_phases, dtype=np.int64)
        for p in range(plan.n_phases)
    ]


def _empty_masks(
    plan: "SimulationPlan", runs: int, iterations: int
) -> PrecomputedFaults:
    """Return all-``False`` masks shaped for *plan* (nothing fails)."""
    per_phase = _phase_iterations(plan, iterations)
    return PrecomputedFaults(
        stochastic=False,
        sensor_fail=tuple(
            np.zeros(
                (runs, len(s.sensor_slot_event), len(iters)), dtype=bool
            )
            for s, iters in zip(plan.schedules, per_phase)
        ),
        replica_fail=tuple(
            np.zeros(
                (runs, len(s.replica_slot_event), len(iters)), dtype=bool
            )
            for s, iters in zip(plan.schedules, per_phase)
        ),
    )


def _down_during(
    intervals: Sequence[tuple[float, float | None]], start: int, end: int
) -> bool:
    """Return whether an outage of *intervals* meets ``[start, end]``."""
    for outage_start, outage_end in intervals:
        if outage_end is None:
            if end >= outage_start:
                return True
        elif start < outage_end and end >= outage_start:
            return True
    return False


def _down_mask(
    intervals: Sequence[tuple[float, float | None]],
    starts: np.ndarray,
    ends: np.ndarray,
) -> np.ndarray:
    """Vectorize :func:`_down_during` over parallel window arrays."""
    down = np.zeros(starts.shape, dtype=bool)
    for outage_start, outage_end in intervals:
        if outage_end is None:
            down |= ends >= outage_start
        else:
            down |= (starts < outage_end) & (ends >= outage_start)
    return down


def _outage_masks(
    plan: "SimulationPlan",
    iterations: int,
    host_outages: Mapping[str, Sequence[tuple[float, float | None]]],
    sensor_outages: Mapping[str, Sequence[tuple[float, float | None]]],
    masks: PrecomputedFaults,
    row: "int | slice",
) -> None:
    """Mask every slot whose entity is down, into run row(s) *row*.

    The vectorized :meth:`ScriptedFaults.replica_fails` /
    :meth:`ScriptedFaults.sensor_fails` lookups: a sensor slot fails
    when its sensor is down at the update instant, a replica slot when
    its host is down at any point of ``[release, deadline]``.
    """
    for p, iters in enumerate(_phase_iterations(plan, iterations)):
        if not len(iters):
            continue
        schedule = plan.schedules[p]
        starts = iters * plan.period
        for j, name in enumerate(schedule.sensor_slot_name):
            intervals = sensor_outages.get(name, ())
            if not intervals:
                continue
            event = plan.sensor_events[int(schedule.sensor_slot_event[j])]
            times = starts + event.offset
            masks.sensor_fail[p][row, j, :] = _down_mask(
                intervals, times, times
            )
        for j, host in enumerate(schedule.replica_slot_host):
            intervals = host_outages.get(host, ())
            if not intervals:
                continue
            event = plan.releases[int(schedule.replica_slot_event[j])]
            masks.replica_fail[p][row, j, :] = _down_mask(
                intervals,
                starts + event.offset,
                starts + event.write_time,
            )


class FaultInjector:
    """Interface queried by the simulator; default: nothing fails."""

    def begin_run(
        self, rng: np.random.Generator, horizon: int
    ) -> None:
        """Reset per-run state before the first tick of a run.

        Called by the scalar simulator with its generator and the
        run's end time.  Stateful injectors reset their chains here;
        injectors that pre-draw a whole-run timeline (crash/repair)
        consume *rng* here, **before** any per-query draw — the batch
        ``precompute`` replays the same calls per run, which is what
        keeps the seed contract intact.  The default does nothing.
        """

    def replica_fails(
        self,
        task: str,
        host: str,
        iteration: int,
        release: int,
        deadline: int,
        rng: np.random.Generator,
    ) -> bool:
        """Return ``True`` iff replication ``(task, host)`` fails in
        the invocation window ``[release, deadline]``."""
        return False

    def corrupt_outputs(
        self,
        task: str,
        host: str,
        iteration: int,
        outputs: tuple,
        rng: np.random.Generator,
    ) -> tuple:
        """Return the outputs the replica actually broadcasts.

        The paper assumes fail-silent hosts, so the default returns
        *outputs* unchanged; :class:`ValueFaults` overrides this to
        model non-fail-silent (value-faulty) hosts, quantifying why
        fail-silence matters for first-non-bottom voting.
        """
        return outputs

    def sensor_fails(
        self, sensor: str, time: int, rng: np.random.Generator
    ) -> bool:
        """Return ``True`` iff *sensor*'s update at *time* fails."""
        return False

    def broadcast_fails(
        self,
        task: str,
        host: str,
        iteration: int,
        rng: np.random.Generator,
    ) -> bool:
        """Return ``True`` iff the output broadcast of the replica fails
        (atomically: no host receives it)."""
        return False

    def precompute(
        self,
        plan: "SimulationPlan",
        runs: int,
        iterations: int,
        rngs: Sequence[np.random.Generator],
    ) -> "PrecomputedFaults | None":
        """Vectorize this injector for a batch of Monte-Carlo runs.

        Returns the failure masks of *runs* independent runs of
        *iterations* periods each, or ``None`` when the injector
        cannot be vectorized — the batch executor then falls back to
        looping the scalar simulator.  *rngs* holds one generator per
        run (spawned from the batch seed); a stochastic implementation
        must consume each run's stream in the plan's canonical draw
        order so run ``k`` stays bit-identical to a scalar run seeded
        with ``rngs[k]``.  The default declines.
        """
        return None


class NoFaults(FaultInjector):
    """The fault-free baseline injector."""

    def precompute(self, plan, runs, iterations, rngs):
        return _empty_masks(plan, runs, iterations)


@dataclass
class BernoulliFaults(FaultInjector):
    """Independent transient failures matching the reliability maps.

    Each replica invocation fails with probability ``1 - hrel(h)``,
    each sensor update with ``1 - srel(s)``, and each broadcast with
    ``1 - brel``.  This is exactly the stochastic model under which
    Proposition 1 is proved, so long simulations under this injector
    converge to the analytic SRGs (experiment E6).
    """

    arch: Architecture

    def replica_fails(self, task, host, iteration, release, deadline, rng):
        return rng.random() >= self.arch.hrel(host)

    def sensor_fails(self, sensor, time, rng):
        return rng.random() >= self.arch.srel(sensor)

    def broadcast_fails(self, task, host, iteration, rng):
        brel = self.arch.network.reliability
        if brel >= 1.0:
            return False
        return rng.random() >= brel

    def precompute(self, plan, runs, iterations, rngs):
        """Sample every run's full uniform stream in one shot.

        One ``Generator.random(total)`` call per run yields the exact
        stream the scalar executor would consume draw by draw; the
        per-slot draws are then gathered out of it with the plan's
        flat offsets and compared against the reliability vectors.
        """
        brel = self.arch.network.reliability
        if (brel < 1.0) != plan.broadcast_drawn:
            # The injector's network model disagrees with the plan's
            # draw layout; the stream could not match the scalar run.
            return None
        result = _empty_masks(plan, runs, iterations)
        base, total = plan.draw_layout(iterations)
        per_phase = _phase_iterations(plan, iterations)
        srel = [
            np.array(
                [self.arch.srel(s) for s in sched.sensor_slot_name],
                dtype=np.float64,
            )
            for sched in plan.schedules
        ]
        hrel = [
            np.array(
                [self.arch.hrel(h) for h in sched.replica_slot_host],
                dtype=np.float64,
            )
            for sched in plan.schedules
        ]
        for run in range(runs):
            stream = rngs[run].random(total)
            for p, schedule in enumerate(plan.schedules):
                iters = per_phase[p]
                if not len(iters):
                    continue
                anchors = base[iters]
                if len(schedule.sensor_slot_offset):
                    at = (
                        schedule.sensor_slot_offset[:, None]
                        + anchors[None, :]
                    )
                    result.sensor_fail[p][run] = (
                        stream[at] >= srel[p][:, None]
                    )
                if len(schedule.replica_slot_offset):
                    at = (
                        schedule.replica_slot_offset[:, None]
                        + anchors[None, :]
                    )
                    fail = stream[at] >= hrel[p][:, None]
                    if plan.broadcast_drawn:
                        fail |= stream[at + 1] >= brel
                    result.replica_fail[p][run] = fail
        return PrecomputedFaults(
            stochastic=True,
            sensor_fail=result.sensor_fail,
            replica_fail=result.replica_fail,
        )


@dataclass
class ScriptedFaults(FaultInjector):
    """Deterministic outages over half-open time intervals.

    ``host_outages['h2'] = [(5000, None)]`` takes host ``h2`` down from
    time 5000 onwards (``None`` = forever) — the simulated equivalent
    of unplugging it from the Ethernet network.  A replica fails when
    its host is down at *any* point of the invocation window, because a
    fail-silent host that dies mid-invocation never broadcasts.
    """

    host_outages: Mapping[str, Sequence[tuple[int, int | None]]] = field(
        default_factory=dict
    )
    sensor_outages: Mapping[str, Sequence[tuple[int, int | None]]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        for label, table in (
            ("host", self.host_outages),
            ("sensor", self.sensor_outages),
        ):
            for name, intervals in table.items():
                for start, end in intervals:
                    if end is not None and end <= start:
                        raise RuntimeSimulationError(
                            f"{label} {name!r}: outage interval "
                            f"({start}, {end}) is empty"
                        )

    def replica_fails(self, task, host, iteration, release, deadline, rng):
        intervals = self.host_outages.get(host, ())
        return _down_during(intervals, release, deadline)

    def sensor_fails(self, sensor, time, rng):
        intervals = self.sensor_outages.get(sensor, ())
        return _down_during(intervals, time, time)

    def precompute(self, plan, runs, iterations, rngs):
        """Evaluate the outage timetable for every slot and iteration.

        Scripted outages are deterministic, so one mask set serves all
        runs (broadcast over the run axis) and no RNG is consumed.
        """
        result = _empty_masks(plan, runs, iterations)
        _outage_masks(
            plan,
            iterations,
            self.host_outages,
            self.sensor_outages,
            result,
            slice(None),
        )
        return result


@dataclass(frozen=True)
class GilbertElliottChannel:
    """Parameters of one two-state good/bad Markov failure channel.

    In the *good* state a query fails with probability ``fail_good``
    (usually ~0), in the *bad* state with ``fail_bad`` (usually ~1);
    the state flips good→bad with probability ``good_to_bad`` and
    bad→good with ``bad_to_good`` per query.  Small transition
    probabilities give long bursts: the mean bad-burst length is
    ``1 / bad_to_good`` queries.
    """

    good_to_bad: float
    bad_to_good: float
    fail_good: float = 0.0
    fail_bad: float = 1.0
    start_bad: bool = False

    def __post_init__(self) -> None:
        for label, value in (
            ("good_to_bad", self.good_to_bad),
            ("bad_to_good", self.bad_to_good),
            ("fail_good", self.fail_good),
            ("fail_bad", self.fail_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise RuntimeSimulationError(
                    f"Gilbert-Elliott {label} must lie in [0, 1], "
                    f"got {value}"
                )

    def stationary_failure_rate(self) -> float:
        """Long-run failure probability of the channel (for reference).

        The stationary bad-state probability is
        ``good_to_bad / (good_to_bad + bad_to_good)``; an i.i.d.
        Bernoulli injector with this *average* rate satisfies the same
        analytic SRG check, which is precisely why only the online
        monitor distinguishes the two.
        """
        flips = self.good_to_bad + self.bad_to_good
        bad = self.good_to_bad / flips if flips > 0.0 else float(
            self.start_bad
        )
        return bad * self.fail_bad + (1.0 - bad) * self.fail_good


class GilbertElliottFaults(FaultInjector):
    """Bursty correlated failures: a Gilbert–Elliott channel per entity.

    Each listed host, sensor, or the broadcast network carries its own
    two-state Markov chain.  Every query of a modeled entity consumes
    exactly two uniforms — the state-transition draw, then the failure
    draw judged against the post-transition state — regardless of the
    outcome, so the draw order stays canonical and :meth:`precompute`
    can replay it vectorized over the run axis.  Queries of unmodeled
    entities consume nothing and never fail.

    Chains are per-run state: :meth:`begin_run` resets every chain to
    its ``start_bad`` state, so equal seeds give equal runs.
    """

    def __init__(
        self,
        hosts: Mapping[str, GilbertElliottChannel] | None = None,
        sensors: Mapping[str, GilbertElliottChannel] | None = None,
        network: GilbertElliottChannel | None = None,
    ) -> None:
        self.hosts = dict(hosts or {})
        self.sensors = dict(sensors or {})
        self.network = network
        self._bad: dict[tuple[str, str], bool] = {}
        self._reset_chains()

    def _reset_chains(self) -> None:
        self._bad = {
            ("host", name): channel.start_bad
            for name, channel in self.hosts.items()
        }
        self._bad.update(
            (("sensor", name), channel.start_bad)
            for name, channel in self.sensors.items()
        )
        if self.network is not None:
            self._bad[("network", "")] = self.network.start_bad

    def begin_run(self, rng, horizon):
        self._reset_chains()

    def _step(
        self,
        key: tuple[str, str],
        channel: GilbertElliottChannel,
        rng: np.random.Generator,
    ) -> bool:
        bad = self._bad[key]
        transition = rng.random()
        if bad:
            bad = transition >= channel.bad_to_good
        else:
            bad = transition < channel.good_to_bad
        self._bad[key] = bad
        failure = rng.random()
        return failure < (
            channel.fail_bad if bad else channel.fail_good
        )

    def replica_fails(self, task, host, iteration, release, deadline, rng):
        channel = self.hosts.get(host)
        if channel is None:
            return False
        return self._step(("host", host), channel, rng)

    def sensor_fails(self, sensor, time, rng):
        channel = self.sensors.get(sensor)
        if channel is None:
            return False
        return self._step(("sensor", sensor), channel, rng)

    def broadcast_fails(self, task, host, iteration, rng):
        if self.network is None:
            return False
        return self._step(("network", ""), self.network, rng)

    # -- batch support --------------------------------------------------

    @staticmethod
    def _phase_query_order(schedule) -> list[tuple[int, str, int, str]]:
        """The canonical per-iteration query order of one phase.

        The Bernoulli draw offsets in the :class:`DrawSchedule` encode
        the order in which the scalar engine queries the injector
        (offsets ascending); sorting the slots by offset recovers that
        order independently of how many draws *this* injector takes
        per query.
        """
        queries = [
            (int(schedule.sensor_slot_offset[j]), "sensor", j, name)
            for j, name in enumerate(schedule.sensor_slot_name)
        ]
        queries.extend(
            (int(schedule.replica_slot_offset[j]), "replica", j, host)
            for j, host in enumerate(schedule.replica_slot_host)
        )
        queries.sort()
        return queries

    @staticmethod
    def _vector_step(
        bad: np.ndarray,
        channel: GilbertElliottChannel,
        transition: np.ndarray,
        failure: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One chain step for every run at once (mirrors :meth:`_step`)."""
        new_bad = np.where(
            bad,
            transition >= channel.bad_to_good,
            transition < channel.good_to_bad,
        )
        fail = np.where(
            new_bad,
            failure < channel.fail_bad,
            failure < channel.fail_good,
        )
        return new_bad, fail

    def precompute(self, plan, runs, iterations, rngs):
        """Replay every run's chain, vectorized over the run axis.

        The chains are sequential in time but independent across runs,
        so the scan loops over ``iterations x queries`` once with all
        runs advanced per step — no per-run Python loop.  Each run's
        stream is sampled in one shot and consumed at the same
        positions the scalar engine would consume it draw by draw.
        """
        result = _empty_masks(plan, runs, iterations)
        phase_queries = [
            self._phase_query_order(schedule)
            for schedule in plan.schedules
        ]

        def draws_per_iteration(queries) -> int:
            draws = 0
            for _, kind, _, name in queries:
                if kind == "sensor":
                    draws += 2 if name in self.sensors else 0
                else:
                    draws += 2 if name in self.hosts else 0
                    draws += 2 if self.network is not None else 0
            return draws

        per_phase_draws = [draws_per_iteration(q) for q in phase_queries]
        total = sum(
            per_phase_draws[k % plan.n_phases] for k in range(iterations)
        )
        if total == 0:
            return result
        streams = np.stack([rngs[k].random(total) for k in range(runs)])
        bad: dict[tuple[str, str], np.ndarray] = {}
        for name, channel in self.hosts.items():
            bad[("host", name)] = np.full(runs, channel.start_bad)
        for name, channel in self.sensors.items():
            bad[("sensor", name)] = np.full(runs, channel.start_bad)
        if self.network is not None:
            bad[("network", "")] = np.full(runs, self.network.start_bad)

        position = 0
        column = [0] * plan.n_phases
        for iteration in range(iterations):
            p = iteration % plan.n_phases
            col = column[p]
            column[p] += 1
            for _, kind, j, name in phase_queries[p]:
                if kind == "sensor":
                    channel = self.sensors.get(name)
                    if channel is None:
                        continue
                    key = ("sensor", name)
                    bad[key], fail = self._vector_step(
                        bad[key],
                        channel,
                        streams[:, position],
                        streams[:, position + 1],
                    )
                    position += 2
                    result.sensor_fail[p][:, j, col] = fail
                    continue
                channel = self.hosts.get(name)
                fail = np.zeros(runs, dtype=bool)
                if channel is not None:
                    key = ("host", name)
                    bad[key], fail = self._vector_step(
                        bad[key],
                        channel,
                        streams[:, position],
                        streams[:, position + 1],
                    )
                    position += 2
                if self.network is not None:
                    key = ("network", "")
                    bad[key], broadcast = self._vector_step(
                        bad[key],
                        self.network,
                        streams[:, position],
                        streams[:, position + 1],
                    )
                    position += 2
                    fail = fail | broadcast
                result.replica_fail[p][:, j, col] = fail
        return PrecomputedFaults(
            stochastic=True,
            sensor_fail=result.sensor_fail,
            replica_fail=result.replica_fail,
        )


class CrashRepairFaults(FaultInjector):
    """Whole-entity crash-with-repair cycles (exponential MTTF/MTTR).

    Each listed host or sensor alternates exponentially distributed
    up-times (mean ``mttf``) and down-times (mean ``mttr``).  The full
    outage timeline of a run is drawn up front in :meth:`begin_run` —
    entities in a fixed order (hosts name-sorted, then sensors
    name-sorted), intervals chronologically — after which queries are
    pure interval lookups with :class:`ScriptedFaults` edge semantics
    (a replica fails when its host is down at any point of the
    invocation window).  :meth:`precompute` replays exactly the same
    exponential draws per run, so the batch path stays bit-identical
    to the scalar executor on spawned seeds.
    """

    def __init__(
        self,
        hosts: Mapping[str, tuple[float, float]] | None = None,
        sensors: Mapping[str, tuple[float, float]] | None = None,
    ) -> None:
        self.hosts = dict(hosts or {})
        self.sensors = dict(sensors or {})
        for label, table in (("host", self.hosts), ("sensor", self.sensors)):
            for name, (mttf, mttr) in table.items():
                if mttf <= 0.0 or mttr <= 0.0:
                    raise RuntimeSimulationError(
                        f"{label} {name!r}: MTTF/MTTR must be positive, "
                        f"got ({mttf}, {mttr})"
                    )
        # The outage timeline of the current run, drawn in begin_run.
        self.host_outages: dict[str, list[tuple[float, float]]] = {}
        self.sensor_outages: dict[str, list[tuple[float, float]]] = {}

    def _draw_outages(
        self, rng: np.random.Generator, horizon: int
    ) -> tuple[dict, dict]:
        """Draw every entity's outage timeline (hosts, then sensors)."""
        hosts = {
            name: self._draw_timeline(rng, *self.hosts[name], horizon)
            for name in sorted(self.hosts)
        }
        sensors = {
            name: self._draw_timeline(rng, *self.sensors[name], horizon)
            for name in sorted(self.sensors)
        }
        return hosts, sensors

    @staticmethod
    def _draw_timeline(
        rng: np.random.Generator, mttf: float, mttr: float, horizon: int
    ) -> list[tuple[float, float]]:
        intervals: list[tuple[float, float]] = []
        now = 0.0
        while now < horizon:
            now += rng.exponential(mttf)
            if now >= horizon:
                break
            start = now
            now += rng.exponential(mttr)
            intervals.append((start, now))
        return intervals

    def begin_run(self, rng, horizon):
        self.host_outages, self.sensor_outages = self._draw_outages(
            rng, horizon
        )

    # Queries are scripted-outage lookups over the drawn timeline.
    replica_fails = ScriptedFaults.replica_fails
    sensor_fails = ScriptedFaults.sensor_fails

    def precompute(self, plan, runs, iterations, rngs):
        """Replay each run's :meth:`begin_run` draws, then mask slots.

        The exponential draws consumed here per run are exactly the
        draws the scalar executor consumes in ``begin_run``; the
        interval masks are then evaluated like scripted outages.
        """
        result = _empty_masks(plan, runs, iterations)
        horizon = iterations * plan.period
        for run in range(runs):
            host_outages, sensor_outages = self._draw_outages(
                rngs[run], horizon
            )
            _outage_masks(
                plan, iterations, host_outages, sensor_outages, result, run
            )
        return PrecomputedFaults(
            stochastic=bool(self.hosts or self.sensors),
            sensor_fail=result.sensor_fail,
            replica_fail=result.replica_fail,
        )


@dataclass
class ValueFaults(FaultInjector):
    """Non-fail-silent hosts: corrupted values instead of silence.

    With probability *probability* per invocation, a listed host's
    replica broadcasts numerically perturbed outputs instead of the
    correct ones.  This deliberately violates the paper's fail-silence
    assumption (Section 2 cites Baleani et al. on achieving
    fail-silence at reasonable cost): under value faults,
    first-non-bottom voting can pick a corrupted value (and trips its
    agreement check), while majority voting over >= 3 replicas masks a
    single faulty host.  Only numeric outputs are perturbed.
    """

    probability: float
    hosts: frozenset[str] = field(default_factory=frozenset)
    magnitude: float = 1.0

    def __init__(
        self,
        probability: float,
        hosts: Iterable[str] = (),
        magnitude: float = 1.0,
    ):
        if not 0.0 <= probability <= 1.0:
            raise RuntimeSimulationError(
                f"corruption probability must lie in [0, 1], got "
                f"{probability}"
            )
        object.__setattr__(self, "probability", probability)
        object.__setattr__(self, "hosts", frozenset(hosts))
        object.__setattr__(self, "magnitude", magnitude)

    def corrupt_outputs(self, task, host, iteration, outputs, rng):
        if self.hosts and host not in self.hosts:
            return outputs
        if rng.random() >= self.probability:
            return outputs
        corrupted = []
        for value in outputs:
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                corrupted.append(value)
            else:
                corrupted.append(value + self.magnitude)
        return tuple(corrupted)


@dataclass
class CompositeFaults(FaultInjector):
    """Union of injectors: a component failing means failure."""

    injectors: Sequence[FaultInjector]

    def __init__(self, injectors: Iterable[FaultInjector]):
        object.__setattr__(self, "injectors", tuple(injectors))

    def begin_run(self, rng, horizon):
        for injector in self.injectors:
            injector.begin_run(rng, horizon)

    def replica_fails(self, task, host, iteration, release, deadline, rng):
        # Evaluated eagerly (list, not generator): every component must
        # consume its draws even when an earlier one already failed the
        # replica, keeping the RNG stream in the canonical order.
        return any(
            [
                injector.replica_fails(
                    task, host, iteration, release, deadline, rng
                )
                for injector in self.injectors
            ]
        )

    def sensor_fails(self, sensor, time, rng):
        return any(
            [
                injector.sensor_fails(sensor, time, rng)
                for injector in self.injectors
            ]
        )

    def broadcast_fails(self, task, host, iteration, rng):
        return any(
            [
                injector.broadcast_fails(task, host, iteration, rng)
                for injector in self.injectors
            ]
        )

    def precompute(self, plan, runs, iterations, rngs):
        """Union the component masks; at most one component may draw.

        Each component precomputes with the shared per-run generators;
        only a stochastic component consumes them, so with at most one
        such component the combined masks still correspond to the
        scalar draw order.  Declines (``None``) when any component
        declines or two components are stochastic — callers must then
        rebuild the generators before falling back to the scalar path,
        since a component may already have consumed draws.
        """
        combined: PrecomputedFaults | None = None
        for injector in self.injectors:
            masks = injector.precompute(plan, runs, iterations, rngs)
            if masks is None:
                return None
            combined = masks if combined is None else combined.merge(masks)
            if combined is None:
                return None
        return combined or _empty_masks(plan, runs, iterations)

    def corrupt_outputs(self, task, host, iteration, outputs, rng):
        for injector in self.injectors:
            outputs = injector.corrupt_outputs(
                task, host, iteration, outputs, rng
            )
        return outputs
