"""Stage spans: the one recorder of a job's timed intervals.

:class:`StageProfiler` records one *span* per timed interval — the
plain dict ``{"name", "started_at" (epoch s), "duration_s", **args}``
that :func:`~repro.telemetry.distributed.client_span_record` also
produces.  The batch kernel's stages, the supervised shard workers
(which ship their spans home next to the result) and the service's job
phases all record into one profiler per job, and every reader works
from that one span list: the CLI ``--profile`` table
(:meth:`StageProfiler.render`), the service's ``/metrics`` stage
histogram, and the job's Chrome trace
(:func:`~repro.telemetry.distributed.build_job_trace`).

The default :data:`NULL_PROFILER` keeps the disabled cost to a single
shared no-op context manager per stage — the batch executor is guarded
to stay within 1.3x of its un-instrumented throughput even with a live
profiler attached (``benchmarks/test_bench_telemetry_overhead.py``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable

#: The envelope span a supervised shard records around its slice; it
#: encloses that worker's stage spans, so the stage table skips it.
SHARD_SPAN = "shard"


def span_record(
    name: str, started_at: float, duration_s: float, **args: Any
) -> dict:
    """One span: ``started_at`` in epoch seconds, *args* alongside."""
    return {
        "name": name,
        "started_at": started_at,
        "duration_s": duration_s,
        **args,
    }


class _StageTimer:
    """Context manager recording one stage invocation as a span."""

    __slots__ = ("_profiler", "_name", "_args", "_start")

    def __init__(
        self, profiler: "StageProfiler", name: str, args: dict
    ) -> None:
        self._profiler = profiler
        self._name = name
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_StageTimer":
        self._start = self._profiler._clock()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        profiler = self._profiler
        profiler.record(
            self._name, self._start, profiler._clock() - self._start,
            **self._args,
        )


class _NullTimer:
    """Shared do-nothing context manager for the null profiler."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_TIMER = _NullTimer()


class StageProfiler:
    """Records one span per timed stage, in the order they end.

    Stage names are free-form; the batch executor uses
    ``plan-compile``, ``fault-precompute``, ``status-collapse``,
    ``propagate`` (cyclic components' iteration steps included),
    ``reduce``, ``monitor`` and ``scalar-fallback`` (only injectors
    without ``precompute`` take it).  The kernel stages from
    ``fault-precompute`` to ``monitor`` record one span per run block
    of a slice, so a slice of several blocks lists each of them
    several times.
    *clock* returns epoch seconds; it stamps both ends of a span, so
    spans one process records nest exactly.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self._clock = clock
        self.spans: list[dict] = []

    def stage(self, name: str, **args: Any) -> _StageTimer:
        """Time one invocation of *name*; *args* ride on its span."""
        return _StageTimer(self, name, args)

    def record(
        self, name: str, started_at: float, duration_s: float,
        **args: Any,
    ) -> None:
        """Append one span timed by the caller."""
        self.spans.append(span_record(name, started_at, duration_s, **args))

    def extend(self, spans: Iterable[dict]) -> None:
        """Fold in spans recorded elsewhere (a shard worker)."""
        self.spans.extend(spans)

    def render(self) -> str:
        """Fixed-width text report: calls and seconds per stage name."""
        stages: dict[str, tuple[int, float]] = {}
        for span in self.spans:
            if span["name"] == SHARD_SPAN:
                continue
            calls, total = stages.get(span["name"], (0, 0.0))
            stages[span["name"]] = (calls + 1, total + span["duration_s"])
        if not stages:
            return "profile: no stages recorded"
        grand = sum(total for _, total in stages.values())
        width = max(len(name) for name in stages)
        lines = ["stage profile (wall seconds)"]
        for name, (calls, total) in stages.items():
            share = (total / grand * 100.0) if grand else 0.0
            lines.append(
                f"  {name:<{width}}  {total:>10.6f}s"
                f"  x{calls:<5d} {share:5.1f}%"
            )
        lines.append(f"  {'total':<{width}}  {grand:>10.6f}s")
        return "\n".join(lines)


class NullProfiler(StageProfiler):
    """Do-nothing profiler; ``stage`` returns a shared no-op timer.

    Nothing ever accumulates on it — neither its own stages nor spans
    folded in from shard workers.
    """

    enabled = False

    def stage(self, name: str, **args: Any) -> Any:
        return _NULL_TIMER

    def record(self, *args: Any, **kwargs: Any) -> None:
        return None

    def extend(self, spans: Iterable[dict]) -> None:
        return None


#: Shared default so executors never branch on ``profiler is None``.
NULL_PROFILER = NullProfiler()
