"""Per-shard event buffering for the sharded batch executor.

The sharded executor (PR 7) runs each contiguous slice of a batch in
its own worker process.  Workers cannot touch the parent's
:class:`~repro.telemetry.bus.TelemetryBus` — its sinks hold open
files, tracers, and metric registries that must observe ONE stream in
ONE deterministic order.  Instead each shard collects its typed
resilience events into a :class:`ShardEventBuffer` (itself an
:class:`~repro.telemetry.sink.InstrumentationSink`, so it can be
attached anywhere a sink can) and the parent replays all buffers onto
the bus with :func:`replay_sharded` *after* the shards complete.

Replay order is the serial order: events are merged across buffers by
global run index (each buffer rebases local run indices by its
``run_offset``), with per-run emission order preserved.  A bus
subscriber therefore cannot distinguish a sharded batch from the
serial run that would have produced the same events — the telemetry
half of the executor bit-identity contract.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.telemetry.bus import TelemetryBus
from repro.telemetry.sink import InstrumentationSink

class ShardEventBuffer(InstrumentationSink):
    """Buffers one shard's typed events for deterministic replay.

    Parameters
    ----------
    shard:
        The shard's index within the batch (diagnostic only).
    run_offset:
        Global run index of the shard's first run.  Events whose
        ``run`` is a *local* index are rebased by this offset at
        append time; events already carrying global indices (the
        executor's post-``run_slice`` streams) use the default 0.
    """

    def __init__(self, shard: int = 0, run_offset: int = 0) -> None:
        self.shard = shard
        self.run_offset = run_offset
        self.events: list[Any] = []
        self.spans: list[dict] = []

    # The buffer accepts events both as a list-protocol sink (the
    # monitor/watchdog convention) and through the instrumentation
    # hook, so it can stand wherever either protocol is expected.

    def append(self, event: Any) -> None:
        if self.run_offset and getattr(event, "run", None) is not None:
            import dataclasses

            event = dataclasses.replace(
                event, run=event.run + self.run_offset
            )
        self.events.append(event)

    def extend(self, events: Iterable[Any]) -> None:
        for event in events:
            self.append(event)

    def on_event(self, event: Any) -> None:
        self.append(event)

    def on_span(self, span: dict) -> None:
        """Buffer one distributed-tracing span dict for this shard.

        Stamps the shard index and rebases ``run_start``/``run_stop``
        by ``run_offset`` when the recording side used local indices
        (the same convention :meth:`append` applies to event ``run``
        fields).  Span dicts ride next to the typed events — they are
        never replayed onto the bus; :func:`collect_spans` merges them
        for the distributed trace builder instead.
        """
        span = dict(span)
        span.setdefault("shard", self.shard)
        if self.run_offset:
            for key in ("run_start", "run_stop"):
                if key in span:
                    span[key] = int(span[key]) + self.run_offset
        self.spans.append(span)


def replay_sharded(
    buffers: Sequence[ShardEventBuffer], bus: TelemetryBus
) -> int:
    """Replay shard buffers onto *bus* in deterministic run order.

    Merges every buffered event across *buffers*, stable-sorts by
    global run index (events without a run index sort first, keeping
    their relative order), and appends them to the bus one by one —
    exactly the stream a serial execution of the whole batch would
    have fed it.  Returns the number of events replayed.
    """
    events = [event for buffer in buffers for event in buffer.events]
    events.sort(
        key=lambda event:
            -1 if getattr(event, "run", None) is None else event.run
    )
    bus.extend(events)
    return len(events)


def collect_spans(buffers: Sequence[ShardEventBuffer]) -> list[dict]:
    """Merge buffered tracing spans across shards in run order.

    Returns the flattened span dicts sorted by (``run_start``, start
    time) so the merged per-job span list is deterministic regardless
    of which worker finished first.
    """
    spans = [span for buffer in buffers for span in buffer.spans]
    spans.sort(
        key=lambda span: (
            span.get("run_start", 0),
            span.get("started_at", 0.0),
        )
    )
    return spans
