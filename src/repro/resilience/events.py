"""Typed resilience events and their JSONL trace form.

Every component of the resilience layer — the online LRC monitor, the
host-failure watchdog, and the recovery executive — reports through
one flat event stream.  Events are frozen dataclasses with a stable
``kind`` discriminator and a ``to_dict`` form, so a trace can be
written as JSON Lines and consumed by external tooling (one event per
line, sorted by emission order).

All times are simulation times in the specification's time unit
(milliseconds for the paper's systems).  ``run`` is ``None`` for
scalar simulations and the batch run index for monitored batches.

Correlation keys (PR 4): the resilient executive stamps every event
with a ``run_id`` — stable across ``resilient_batch`` and direct
construction because it is derived from the run's seed (see
:func:`~repro.telemetry.runid.derive_run_id`) — and a monotonic
``seq`` counting emission order within the run, so merged streams
sort deterministically by ``(run_id, seq)``.  Both keys serialise
only when set, so un-stamped streams keep the PR 3 JSONL form.

The stream round-trips: :func:`event_from_dict` /
:func:`events_from_jsonl` / :func:`read_jsonl` rebuild the typed
events (tuple-valued fields coerced back from JSON lists) such that
``event_from_dict(e.to_dict()) == e`` for every event type.

A batch's monitor events are many and uniform, so a batch holds them
as one :class:`MonitorEvents` column table rather than as objects: the
batch kernel emits its alarms and clears as arrays, and they cross the
shard pipe, the merge, the prefix slice and the result cache as
arrays.  The table is a ``Sequence`` of events all the same: an
:class:`LrcAlarm` or :class:`LrcClear` is built only when someone
indexes or iterates it.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

from repro.errors import RuntimeSimulationError


@dataclass(frozen=True)
class ResilienceEvent:
    """Base class of every event on the resilience stream."""

    time: int
    run: "int | None" = field(default=None, kw_only=True)
    run_id: "str | None" = field(default=None, kw_only=True)
    seq: "int | None" = field(default=None, kw_only=True)

    #: Stable discriminator, overridden per subclass.
    kind = "event"

    def to_dict(self) -> dict:
        """Return a JSON-serialisable dict with the ``kind`` tag.

        The correlation keys ``run_id``/``seq`` appear only when set,
        keeping un-stamped streams bit-compatible with their PR 3
        form.
        """
        doc = {"kind": self.kind}
        doc.update(asdict(self))
        if doc["run_id"] is None:
            del doc["run_id"]
        if doc["seq"] is None:
            del doc["seq"]
        return doc


@dataclass(frozen=True)
class LrcAlarm(ResilienceEvent):
    """The windowed reliable-write rate of a communicator fell below
    its alarm threshold: the LRC is being violated *right now*."""

    communicator: str = ""
    rate: float = 0.0
    threshold: float = 0.0
    window: int = 0

    kind = "lrc-alarm"


@dataclass(frozen=True)
class LrcClear(ResilienceEvent):
    """A previously alarmed communicator recovered above its clear
    threshold (alarm hysteresis keeps the stream from chattering)."""

    communicator: str = ""
    rate: float = 0.0
    threshold: float = 0.0
    window: int = 0

    kind = "lrc-clear"


@dataclass(frozen=True)
class HostSuspected(ResilienceEvent):
    """The watchdog missed ``missed`` consecutive broadcasts of a host
    and now suspects it (not yet confirmed dead)."""

    host: str = ""
    missed: int = 0

    kind = "host-suspected"


@dataclass(frozen=True)
class HostDead(ResilienceEvent):
    """A suspected host stayed silent through the confirmation window
    and is declared dead — recovery policies may now act on it."""

    host: str = ""
    missed: int = 0

    kind = "host-dead"


@dataclass(frozen=True)
class HostRecovered(ResilienceEvent):
    """A suspected or dead host resumed broadcasting for the
    re-admission window and is considered alive again."""

    host: str = ""
    heard: int = 0

    kind = "host-recovered"


@dataclass(frozen=True)
class RecoveryCommitted(ResilienceEvent):
    """A recovery policy produced a verified new configuration and the
    executive committed it at an iteration boundary.

    ``srgs`` holds the recomputed per-communicator SRGs of the new
    mapping — the certificate that ``lambda_c >= mu_c`` still holds
    (or, for a degrade, holds against the declared reduced LRCs).
    """

    policy: str = ""
    dead_hosts: tuple[str, ...] = ()
    assignment: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    srgs: Mapping[str, float] = field(default_factory=dict)

    kind = "recovery-committed"


@dataclass(frozen=True)
class RecoveryFailed(ResilienceEvent):
    """No recovery policy could produce a verified configuration; the
    system keeps running in its (violating) current mapping."""

    dead_hosts: tuple[str, ...] = ()
    reason: str = ""

    kind = "recovery-failed"


#: The columns of a :class:`MonitorEvents` table and their dtypes.
_COLUMNS = {
    "run": np.int64,
    "time": np.int64,
    "comm": np.int32,
    "clear": bool,
    "rate": np.float64,
    "threshold": np.float64,
}


class MonitorEvents(Sequence):
    """The online monitor's alarm and clear events, as columns.

    Event ``i`` is an :class:`LrcClear` when ``clear[i]`` is set and an
    :class:`LrcAlarm` otherwise, of communicator ``names[comm[i]]`` in
    run ``run[i]`` at ``time[i]``, with ``rate[i]``, ``threshold[i]``
    and the table's one ``window``.  Indexing and iteration build those
    events, with field values equal to the ones the scalar monitor
    emits; ``len``, slicing (:meth:`select`, :meth:`for_run`),
    :meth:`concat`, ``==`` and pickling work on the columns alone, so a
    batch's events cross the shard pipe, the merge and the cache
    without one Python object per event.  A table equals any sequence
    of the same events, so it also compares with a list of objects.

    The table is immutable: its columns are read-only arrays.  An
    argument already of a column's dtype is not copied; the column is
    a read-only view of it.  Every table without events may be the one
    shared :meth:`empty` table, whose names and window are empty.
    """

    __slots__ = ("names", "window", *_COLUMNS)

    def __init__(
        self,
        names: Iterable[str],
        window: int,
        run,
        time,
        comm,
        clear,
        rate,
        threshold,
    ) -> None:
        self.names = tuple(names)
        self.window = int(window)
        values = (run, time, comm, clear, rate, threshold)
        for (name, dtype), value in zip(_COLUMNS.items(), values):
            column = np.asarray(value, dtype=dtype)
            if column is value:  # freeze a view, not the caller's array
                column = column.view()
            column.flags.writeable = False
            setattr(self, name, column)
        shapes = {column.shape for column in self._columns()}
        if len(shapes) != 1 or len(shapes.pop()) != 1:
            raise RuntimeSimulationError(
                "monitor event columns must be one-dimensional and of "
                "one length"
            )

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _COLUMNS]

    @staticmethod
    def empty() -> "MonitorEvents":
        """The table without events: one shared instance."""
        return _NO_EVENTS

    @classmethod
    def from_events(
        cls, events: Iterable[ResilienceEvent], names: Iterable[str]
    ) -> "MonitorEvents":
        """Pack :class:`LrcAlarm`/:class:`LrcClear` objects, in order.

        Every event's communicator must be one of *names* and all must
        share one window, as one monitor config's events do.
        """
        events = list(events)
        if not events:
            return _NO_EVENTS
        names = tuple(names)
        index = {name: i for i, name in enumerate(names)}
        windows = {event.window for event in events}
        if len(windows) > 1:
            raise RuntimeSimulationError(
                f"monitor events of several windows: {sorted(windows)}"
            )
        return cls(
            names,
            windows.pop(),
            [event.run for event in events],
            [event.time for event in events],
            [index[event.communicator] for event in events],
            [isinstance(event, LrcClear) for event in events],
            [event.rate for event in events],
            [event.threshold for event in events],
        )

    @classmethod
    def concat(
        cls,
        tables: "Sequence[MonitorEvents]",
        names: "Iterable[str] | None" = None,
    ) -> "MonitorEvents":
        """The tables' events one after another, in the given order.

        Communicator indices are remapped into *names*, or, without
        it, into every table's names in first-seen order.  Tables with
        events must agree on the window; without any, the result is
        the :meth:`empty` table.
        """
        if names is None:
            names = dict.fromkeys(
                name for table in tables for name in table.names
            )
        names = tuple(names)
        full = [table for table in tables if len(table)]
        windows = {table.window for table in full}
        if len(windows) > 1:
            raise RuntimeSimulationError(
                f"cannot concatenate monitor events of windows "
                f"{sorted(windows)}"
            )
        if not full:
            return _NO_EVENTS
        index = {name: i for i, name in enumerate(names)}
        parts = []
        for table in full:
            part = {name: getattr(table, name) for name in _COLUMNS}
            if table.names != names:
                lookup = np.array(
                    [index[name] for name in table.names], dtype=np.int32
                )
                part["comm"] = lookup[table.comm]
            parts.append(part)
        return cls(
            names,
            full[0].window,
            *(
                np.concatenate([part[name] for part in parts])
                for name in _COLUMNS
            ),
        )

    def select(self, index) -> "MonitorEvents":
        """The events an index array, boolean mask or slice picks."""
        if not len(self):
            return self
        return MonitorEvents(
            self.names,
            self.window,
            *(column[index] for column in self._columns()),
        )

    def for_run(self, run: int) -> "MonitorEvents":
        """Run *run*'s events, in order; the table must be run-sorted."""
        lo, hi = self.run.searchsorted([run, run + 1])
        return self.select(slice(lo, hi))

    @property
    def nbytes(self) -> int:
        """Bytes the columns hold."""
        return sum(column.nbytes for column in self._columns())

    def to_dict(self) -> dict:
        """JSON-serialisable columns (floats round-trip exactly)."""
        return {
            "names": list(self.names),
            "window": self.window,
            **{name: getattr(self, name).tolist() for name in _COLUMNS},
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "MonitorEvents":
        """Rebuild the table :meth:`to_dict` wrote."""
        table = cls(
            doc["names"], doc["window"], *(doc[name] for name in _COLUMNS)
        )
        if len(table) and not (
            0 <= table.comm.min() and table.comm.max() < len(table.names)
        ):
            raise RuntimeSimulationError(
                "monitor event communicator index out of range"
            )
        return table

    # -- the Sequence protocol ------------------------------------------

    def __len__(self) -> int:
        return self.run.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.select(index)
        event = LrcClear if self.clear[index] else LrcAlarm
        return event(
            time=int(self.time[index]),
            run=int(self.run[index]),
            communicator=self.names[self.comm[index]],
            rate=float(self.rate[index]),
            threshold=float(self.threshold[index]),
            window=self.window,
        )

    def __iter__(self) -> Iterator[ResilienceEvent]:
        names, window = self.names, self.window
        for time, run, comm, clear, rate, threshold in zip(
            self.time.tolist(),
            self.run.tolist(),
            self.comm.tolist(),
            self.clear.tolist(),
            self.rate.tolist(),
            self.threshold.tolist(),
        ):
            yield (LrcClear if clear else LrcAlarm)(
                time=time,
                run=run,
                communicator=names[comm],
                rate=rate,
                threshold=threshold,
                window=window,
            )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MonitorEvents):
            if len(self) != len(other):
                return False
            if not len(self):
                return True
            mine = np.array(self.names, dtype=object)[self.comm]
            theirs = np.array(other.names, dtype=object)[other.comm]
            return (
                self.window == other.window
                and (mine == theirs).all()
                and all(
                    np.array_equal(getattr(self, name), getattr(other, name))
                    for name in ("run", "time", "clear", "rate", "threshold")
                )
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __reduce__(self):
        return MonitorEvents, (self.names, self.window, *self._columns())

    def __repr__(self) -> str:
        return (
            f"MonitorEvents({len(self)} events, window={self.window}, "
            f"names={self.names!r})"
        )


_NO_EVENTS = MonitorEvents((), 0, *([] for _ in _COLUMNS))


#: ``kind`` discriminator -> event class, for parsing.
EVENT_KINDS: dict[str, type[ResilienceEvent]] = {
    cls.kind: cls
    for cls in (
        LrcAlarm,
        LrcClear,
        HostSuspected,
        HostDead,
        HostRecovered,
        RecoveryCommitted,
        RecoveryFailed,
    )
}


def event_from_dict(doc: Mapping) -> ResilienceEvent:
    """Rebuild a typed event from its :meth:`~ResilienceEvent.to_dict`
    form.

    JSON has no tuples, so tuple-valued fields (``dead_hosts``, the
    host lists of ``assignment``) are coerced back; round-trip through
    :func:`events_to_jsonl` is exact for every event type.
    """
    fields = dict(doc)
    kind = fields.pop("kind", None)
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        raise RuntimeSimulationError(
            f"unknown resilience event kind {kind!r}"
        )
    if "dead_hosts" in fields:
        fields["dead_hosts"] = tuple(fields["dead_hosts"])
    if "assignment" in fields:
        fields["assignment"] = {
            task: tuple(hosts)
            for task, hosts in fields["assignment"].items()
        }
    try:
        return cls(**fields)
    except TypeError as error:
        raise RuntimeSimulationError(
            f"malformed {kind!r} event: {error}"
        )


def events_to_jsonl(events: Iterable[ResilienceEvent]) -> str:
    """Render *events* as a JSON Lines trace (one event per line)."""
    return "\n".join(json.dumps(event.to_dict()) for event in events)


def events_from_jsonl(text: str) -> list[ResilienceEvent]:
    """Parse a JSONL trace back into typed events (inverse of
    :func:`events_to_jsonl`)."""
    events: list[ResilienceEvent] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as error:
            raise RuntimeSimulationError(
                f"event stream line {lineno} is not valid JSON: "
                f"{error.msg}"
            )
        if not isinstance(doc, dict):
            raise RuntimeSimulationError(
                f"event stream line {lineno} is not an event object"
            )
        events.append(event_from_dict(doc))
    return events


def write_jsonl(events: Iterable[ResilienceEvent], stream: IO[str]) -> int:
    """Write *events* to *stream* as JSONL; returns the event count."""
    count = 0
    for event in events:
        stream.write(json.dumps(event.to_dict()))
        stream.write("\n")
        count += 1
    return count


def read_jsonl(stream: IO[str]) -> list[ResilienceEvent]:
    """Read a JSONL trace from *stream* into typed events."""
    return events_from_jsonl(stream.read())
