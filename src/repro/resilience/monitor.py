"""The online LRC monitor.

The analytic SRG check and the pooled Monte-Carlo tests are *offline*:
they say whether an implementation meets its logical reliability
constraints in the long-run average, assuming the i.i.d. fault model
under which Proposition 1 is proved.  Under correlated or bursty
faults (a Gilbert–Elliott channel, a crashed host awaiting repair)
the long-run average is the wrong lens — the system may be compliant
on average and still spend seconds at a time in violation.  The
:class:`LrcMonitor` watches the *windowed* reliable-write rate of each
communicator while the system runs and raises a typed alarm the
moment the window drops below its threshold, with hysteresis so a
rate hovering at the boundary does not chatter.

Two integration points consume it:

* the scalar :class:`~repro.runtime.engine.Simulator` calls
  :meth:`LrcMonitor.observe` from its per-write hook, once per
  communicator access in timetable order;
* the vectorized :class:`~repro.runtime.batch.BatchSimulator` calls
  :func:`monitor_events_from_failures` on the sparse positions of
  each run block's unreliable accesses — a set/reset latch over the
  failures' window neighbourhoods, no per-run Python loop — producing
  the *same* events (per run, per communicator) the scalar monitor
  would emit.  It returns them as a
  :class:`~repro.resilience.events.MonitorEvents` column table, not as
  objects: an event object is built only when someone iterates the
  table.

:func:`batch_monitor_events` is the dense reference the sparse pass is
tested against: windowed counts over a whole ``(runs, samples)``
status tensor via one cumulative sum.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.errors import RuntimeSimulationError
from repro.resilience.events import (
    LrcAlarm,
    LrcClear,
    MonitorEvents,
    ResilienceEvent,
)
from repro.telemetry.sink import InstrumentationSink

if TYPE_CHECKING:  # pragma: no cover
    from repro.model.specification import Specification


@dataclass(frozen=True)
class MonitorConfig:
    """Configuration of the online LRC monitor.

    Parameters
    ----------
    window:
        Number of most recent accesses the rate is computed over; the
        monitor stays silent until its first full window.
    hysteresis:
        Added to the alarm threshold to form the default clear
        threshold: an alarmed communicator clears only once its rate
        climbs back to ``alarm + hysteresis``, which keeps a rate
        hovering at the boundary from toggling the alarm every access.
    alarm_below:
        Per-communicator alarm thresholds; a communicator not listed
        defaults to its declared LRC ``mu_c``.
    clear_above:
        Per-communicator clear thresholds; defaults to
        ``min(1, alarm + hysteresis)``.
    communicators:
        The communicators to watch; ``None`` watches all of them.
    """

    window: int = 50
    hysteresis: float = 0.0
    alarm_below: Mapping[str, float] = field(default_factory=dict)
    clear_above: Mapping[str, float] = field(default_factory=dict)
    communicators: "tuple[str, ...] | None" = None

    def __post_init__(self) -> None:
        if self.window < 1:
            raise RuntimeSimulationError(
                f"monitor window must be >= 1, got {self.window}"
            )
        if self.hysteresis < 0.0:
            raise RuntimeSimulationError(
                f"monitor hysteresis must be >= 0, got {self.hysteresis}"
            )

    def thresholds(
        self, spec: "Specification"
    ) -> dict[str, tuple[float, float]]:
        """Resolve ``(alarm_below, clear_above)`` per watched communicator."""
        watched = (
            sorted(spec.communicators)
            if self.communicators is None
            else list(self.communicators)
        )
        resolved: dict[str, tuple[float, float]] = {}
        for name in watched:
            if name not in spec.communicators:
                raise RuntimeSimulationError(
                    f"monitor watches unknown communicator {name!r}"
                )
            alarm = self.alarm_below.get(
                name, spec.communicators[name].lrc
            )
            clear = self.clear_above.get(
                name, min(1.0, alarm + self.hysteresis)
            )
            if clear < alarm:
                raise RuntimeSimulationError(
                    f"communicator {name!r}: clear threshold {clear} "
                    f"below alarm threshold {alarm}"
                )
            resolved[name] = (alarm, clear)
        return resolved


class LrcMonitor(InstrumentationSink):
    """Stateful sliding-window LRC monitor (the scalar path).

    One :meth:`observe` call per communicator access, in simulation
    order.  Events are appended to :attr:`events` (or the shared
    *sink* a resilience executive passes in, so monitor, watchdog,
    and recovery events interleave in emission order).

    The monitor is an
    :class:`~repro.telemetry.sink.InstrumentationSink`: the scalar
    engine feeds it through the shared :meth:`on_access` hook —
    the same subscription path the telemetry tracer and metrics sink
    use — so attaching a monitor needs no engine knowledge beyond the
    sink protocol.
    """

    def __init__(
        self,
        spec: "Specification",
        config: MonitorConfig | None = None,
        sink: "list[ResilienceEvent] | None" = None,
    ) -> None:
        self.spec = spec
        self.config = config or MonitorConfig()
        self.window = self.config.window
        self._thresholds = self.config.thresholds(spec)
        self.events: list[ResilienceEvent] = (
            sink if sink is not None else []
        )
        self._buffers: dict[str, deque[bool]] = {
            name: deque(maxlen=self.window) for name in self._thresholds
        }
        self._counts: dict[str, int] = dict.fromkeys(self._thresholds, 0)
        self._alarmed: dict[str, bool] = dict.fromkeys(
            self._thresholds, False
        )

    # ------------------------------------------------------------------

    def watches(self, communicator: str) -> bool:
        """Return ``True`` iff *communicator* is monitored."""
        return communicator in self._thresholds

    def on_access(
        self,
        communicator: str,
        time: int,
        reliable: bool,
        run: "int | None" = None,
    ) -> None:
        """Sink-protocol alias of :meth:`observe`."""
        self.observe(communicator, time, reliable, run)

    def observe(
        self,
        communicator: str,
        time: int,
        reliable: bool,
        run: "int | None" = None,
    ) -> None:
        """Feed one communicator access; may emit an alarm/clear event."""
        buffer = self._buffers.get(communicator)
        if buffer is None:
            return
        if len(buffer) == self.window:
            self._counts[communicator] -= buffer[0]
        buffer.append(bool(reliable))
        self._counts[communicator] += bool(reliable)
        if len(buffer) < self.window:
            return
        rate = self._counts[communicator] / self.window
        alarm, clear = self._thresholds[communicator]
        if not self._alarmed[communicator] and rate < alarm:
            self._alarmed[communicator] = True
            self.events.append(
                LrcAlarm(
                    time=time,
                    run=run,
                    communicator=communicator,
                    rate=rate,
                    threshold=alarm,
                    window=self.window,
                )
            )
        elif self._alarmed[communicator] and rate >= clear:
            self._alarmed[communicator] = False
            self.events.append(
                LrcClear(
                    time=time,
                    run=run,
                    communicator=communicator,
                    rate=rate,
                    threshold=clear,
                    window=self.window,
                )
            )

    # ------------------------------------------------------------------

    def rate(self, communicator: str) -> "float | None":
        """Return the current windowed rate.

        ``None`` before the first full window — and for communicators
        the monitor does not watch.
        """
        buffer = self._buffers.get(communicator)
        if buffer is None or len(buffer) < self.window:
            return None
        return self._counts[communicator] / self.window

    def alarmed(self, communicator: str) -> bool:
        """Return ``True`` iff *communicator* is currently in alarm."""
        return self._alarmed.get(communicator, False)

    def active_alarms(self) -> list[str]:
        """Return the currently alarmed communicators, sorted."""
        return sorted(c for c, on in self._alarmed.items() if on)


def sliding_window_counts(
    status: np.ndarray, window: int
) -> np.ndarray:
    """Return reliable counts over every full window of *status*.

    *status* is ``(runs, samples)`` boolean; the result is
    ``(runs, samples - window + 1)`` with column ``t`` counting the
    ``True`` entries of ``status[:, t : t + window]``.
    """
    cum = np.cumsum(status, axis=1, dtype=np.int64)
    counts = cum[:, window - 1:].copy()
    counts[:, 1:] -= cum[:, :-window]
    return counts


def batch_monitor_events(
    communicator: str,
    status: np.ndarray,
    times: np.ndarray,
    alarm_below: float,
    clear_above: float,
    window: int,
) -> list[ResilienceEvent]:
    """Vectorized monitor pass over one communicator's status tensor.

    *status* is the ``(runs, samples)`` per-access reliability tensor
    of the communicator, *times* the ``(samples,)`` access instants.
    Implements exactly the scalar monitor's semantics — full-window
    rates, alarm when ``rate < alarm_below``, clear when
    ``rate >= clear_above`` — as a vectorized set/reset latch: the
    window is alarmed at step ``t`` iff the most recent
    threshold-crossing up to ``t`` was an alarm crossing.  Only the
    final event extraction loops, and it is proportional to the number
    of *events*, not runs times samples.
    """
    runs, samples = status.shape
    if samples < window:
        return []
    counts = sliding_window_counts(status, window)
    rates = counts / window
    below = rates < alarm_below
    above = rates >= clear_above
    steps = np.arange(rates.shape[1], dtype=np.int64)
    last_alarm = np.maximum.accumulate(
        np.where(below, steps, -1), axis=1
    )
    last_clear = np.maximum.accumulate(
        np.where(above, steps, -1), axis=1
    )
    alarmed = last_alarm > last_clear
    previous = np.zeros_like(alarmed)
    previous[:, 1:] = alarmed[:, :-1]
    events: list[ResilienceEvent] = []
    for run, step in np.argwhere(alarmed & ~previous):
        events.append(
            LrcAlarm(
                time=int(times[step + window - 1]),
                run=int(run),
                communicator=communicator,
                rate=float(rates[run, step]),
                threshold=alarm_below,
                window=window,
            )
        )
    for run, step in np.argwhere(~alarmed & previous):
        events.append(
            LrcClear(
                time=int(times[step + window - 1]),
                run=int(run),
                communicator=communicator,
                rate=float(rates[run, step]),
                threshold=clear_above,
                window=window,
            )
        )
    events.sort(key=lambda e: (e.run, e.time))
    return events


@lru_cache(maxsize=256)
def _count_thresholds(
    alarm_below: float, clear_above: float, window: int
) -> tuple[int, int]:
    """Translate rate thresholds into integer failure-count thresholds.

    A full window with ``f`` failures has rate ``(window - f) / window``
    — evaluated with the same float division the scalar monitor uses,
    so the integer translation is exact.  Returns ``(need_fails,
    max_clear_fails)``: the window is *below* the alarm threshold iff
    ``f >= need_fails`` and *above* the clear threshold iff
    ``f <= max_clear_fails`` (which is ``-1`` when no window can clear,
    i.e. ``clear_above > 1``).
    """
    counts = np.arange(window + 1, dtype=np.float64) / window
    below = counts < alarm_below
    above = counts >= clear_above
    max_below = int(np.flatnonzero(below).max()) if below.any() else -1
    min_above = (
        int(above.argmax()) if above.any() else window + 1
    )
    return window - max_below, window - min_above


def monitor_events_from_failures(
    communicator: str,
    fail_runs: np.ndarray,
    fail_steps: np.ndarray,
    runs: int,
    samples: int,
    times: np.ndarray,
    alarm_below: float,
    clear_above: float,
    window: int,
    *,
    run_offset: int = 0,
) -> MonitorEvents:
    """Sparse monitor pass from access-failure *positions* alone.

    Produces exactly the events of :func:`batch_monitor_events` without
    ever materializing the ``(runs, samples)`` status tensor: since the
    alarm threshold is at most 1, a window can only drop below it if it
    contains a failure, and every window free of failures has rate 1.0
    and therefore clears.  All latch work is restricted to the window
    neighbourhoods of the failures — ``O(failures x window)`` instead
    of ``O(runs x samples)`` — which is what keeps monitoring nearly
    free on the batch path, where reliable accesses vastly outnumber
    failures.

    ``fail_runs``/``fail_steps`` hold the run and access index of every
    unreliable access, sorted by ``(run, step)``; *times* maps access
    index to simulation time.  Events are stamped with run
    ``run_offset + r`` for row ``r``: the batch kernel passes the
    global index of its block's first run.

    The events come back as a
    :class:`~repro.resilience.events.MonitorEvents` table over the one
    name *communicator*, in ``(run, time)`` order, and no event object
    is built.  Rates are ``(window - f) / window`` in float64 for a
    window with ``f`` failures — the scalar monitor's division — and a
    terminal clear (the first failure-free window after an alarm) has
    rate 1.0.
    """
    steps_total = samples - window + 1
    if steps_total <= 0 or fail_steps.size == 0:
        return MonitorEvents.empty()
    need_fails, max_clear_fails = _count_thresholds(
        alarm_below, clear_above, window
    )
    if need_fails > window:
        # Not even an all-failed window alarms.
        return MonitorEvents.empty()
    if need_fails < 1:
        raise RuntimeSimulationError(
            f"communicator {communicator!r}: alarm threshold "
            f"{alarm_below} exceeds 1; every window would alarm"
        )
    pad = np.int64(samples + window)
    fkey = (
        fail_runs.astype(np.int64) * pad
        + fail_steps.astype(np.int64)
    )
    # Inputs are (run, step)-sorted in the production path; sort and
    # deduplicate defensively (sort + mask — cheaper than np.unique's
    # hash table at these sizes).
    if fkey.size > 1:
        if not (fkey[1:] >= fkey[:-1]).all():
            fkey = np.sort(fkey)
        if (fkey[1:] == fkey[:-1]).any():
            fkey = fkey[np.r_[True, fkey[1:] != fkey[:-1]]]
    # Candidate window-end steps: every t whose window [t, t + window)
    # contains at least one failure; everything outside is rate 1.0.
    # Failures closer than `window` share candidate steps, so merge
    # them into blocks and emit one contiguous step range per block —
    # no per-failure expansion, no sorting, no deduplication.  (Run
    # boundaries always split: the key padding makes the cross-run
    # stride exceed `window`.)
    block_start = np.empty(fkey.shape, dtype=bool)
    block_start[0] = True
    block_start[1:] = fkey[1:] - fkey[:-1] > window
    # A window never spans two blocks, so a block with fewer than
    # `need_fails` failures in total cannot alarm — and since the latch
    # resets between blocks, it cannot produce any event at all.  Drop
    # such blocks before expanding candidates; on a healthy system with
    # a sensible alarm margin this discards everything immediately.
    sidx = np.flatnonzero(block_start)
    eidx = np.r_[sidx[1:], fkey.size]
    qualifying = eidx - sidx >= need_fails
    if not qualifying.any():
        return MonitorEvents.empty()
    first = fkey[sidx[qualifying]]
    last = fkey[eidx[qualifying] - 1]
    base = (first // pad) * pad
    lo = np.maximum(first - (window - 1), base)
    hi = np.minimum(last, base + (steps_total - 1))
    lengths = hi - lo + 1
    starts = np.cumsum(lengths) - lengths
    total = int(lengths.sum())
    key = np.arange(total, dtype=np.int64)
    key += np.repeat(lo - starts, lengths)
    run = np.repeat(first // pad, lengths)
    t = key - run * pad
    gap = np.zeros(total, dtype=bool)
    gap[starts] = True
    # Failures per candidate window, from one cumulative count over the
    # blocks laid end to end, each widened by a window: candidate k of
    # block b sits at k - lo_b + at_b, and its window's failures all
    # belong to block b and lie within the widened span.  (int32 holds
    # the count: it never exceeds the number of failures in fkey.)
    spans = lengths + window
    at = np.cumsum(spans) - spans
    rank = np.cumsum(qualifying) - 1
    block = np.cumsum(block_start) - 1
    kept = qualifying[block]
    owner = rank[block[kept]]
    marks = np.zeros(int(spans.sum()) + 1, dtype=np.int32)
    marks[fkey[kept] - lo[owner] + at[owner] + 1] = 1
    np.cumsum(marks, out=marks)
    pos = key - np.repeat(lo - at, lengths)
    f = marks[pos + window] - marks[pos]
    below = f >= need_fails
    if max_clear_fails < 0:
        # clear_above > 1: an alarm can never clear, so only the first
        # below-threshold window of each run emits anything.
        first = np.flatnonzero(below)
        first = first[np.diff(run[first], prepend=-1) != 0]
        return MonitorEvents(
            (communicator,),
            window,
            run[first] + run_offset,
            times[t[first] + window - 1],
            np.zeros(first.size, dtype=np.int32),
            np.zeros(first.size, dtype=bool),
            (window - f[first]) / window,
            np.full(first.size, alarm_below),
        )
    # Set/reset latch over the candidate sequence.  A gap between
    # candidates is a stretch of rate-1.0 windows, so it clears the
    # latch; encode that as a clear marker ranked below a same-step
    # alarm.
    above = f <= max_clear_fails
    idx = np.arange(total, dtype=np.int64)
    code = np.where(
        below, 2 * idx + 1, np.where(above | gap, 2 * idx, -1)
    )
    acc = np.maximum.accumulate(code)
    alarmed = (acc >= 0) & (acc & 1 == 1)
    prev = np.empty_like(alarmed)
    prev[0] = False
    prev[1:] = alarmed[:-1]
    state_before = prev & ~gap
    last_in_block = np.empty_like(gap)
    last_in_block[:-1] = gap[1:]
    last_in_block[-1] = True
    rising = np.flatnonzero(alarmed & ~state_before)
    falling = np.flatnonzero(state_before & ~alarmed)
    # An alarm still latched at the end of a candidate block clears at
    # the very next step, whose window is failure-free (rate 1.0) —
    # unless the block already ends at the final full window.
    terminal = np.flatnonzero(
        alarmed & last_in_block & (t < steps_total - 1)
    )
    ev_i = np.concatenate([rising, falling, terminal])
    kind = np.concatenate(
        [
            np.zeros(rising.size, dtype=np.int8),
            np.ones(falling.size, dtype=np.int8),
            np.full(terminal.size, 2, dtype=np.int8),
        ]
    )
    # Emit in (run, time) order; (run, time) pairs are unique across
    # the three event classes.  A terminal clear is stamped one step
    # past its candidate, with the failure-free window's rate 1.0.
    step = t[ev_i] + (window - 1) + (kind == 2)
    order = np.argsort(run[ev_i] * pad + step, kind="stable")
    ev_i, kind, step = ev_i[order], kind[order], step[order]
    return MonitorEvents(
        (communicator,),
        window,
        run[ev_i] + run_offset,
        times[step],
        np.zeros(ev_i.size, dtype=np.int32),
        kind != 0,
        np.where(kind == 2, 1.0, (window - f[ev_i]) / window),
        np.where(kind == 0, alarm_below, clear_above),
    )
