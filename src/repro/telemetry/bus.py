"""The telemetry bus: one correlated stream per run.

:class:`TelemetryBus` bundles the per-run subscribers (tracer,
metrics sink, extra :class:`~repro.telemetry.sink.InstrumentationSink`
instances) and collects the typed resilience events into a single
ordered stream.  It deliberately duck-types the event objects
(anything with ``kind``/``to_dict``) so this module never imports the
resilience layer — ``resilience`` may depend on ``telemetry``, never
the reverse.

The bus is list-like on purpose: the resilience monitor and watchdog
treat their *sink* as anything with ``append``, so a bus can stand in
directly for the shared event list PR 3 used.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.telemetry.sink import InstrumentationSink


class TelemetryBus:
    """Collects events and fans them out to the attached sinks.

    Parameters
    ----------
    run_id:
        Correlation key for the whole stream (see
        :func:`~repro.telemetry.runid.derive_run_id`).
    sinks:
        Instrumentation sinks that should also see engine hooks; the
        executors subscribe them via :attr:`sinks`.
    """

    def __init__(
        self,
        run_id: str = "run",
        sinks: Iterable[InstrumentationSink] = (),
    ) -> None:
        self.run_id = run_id
        self.sinks: tuple[InstrumentationSink, ...] = tuple(sinks)
        self.events: list[Any] = []

    # -- event collection (list protocol subset) -----------------------

    def append(self, event: Any) -> None:
        """Record one typed event and fan it out to every sink."""
        self.events.append(event)
        for sink in self.sinks:
            sink.on_event(event)

    def extend(self, events: Iterable[Any]) -> None:
        for event in events:
            self.append(event)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
