"""Distributed job tracing: one trace across client, daemon, shards.

PR 4's :class:`~repro.telemetry.trace.Tracer` stops at the process
boundary: it records spans of *one* process against *one*
``perf_counter`` origin.  The service fleet (PRs 7–8) spreads a single
job over at least three processes — the submitting client, the daemon
worker thread, and the forked shard workers — so this module adds the
Dapper-style glue that stitches them back together:

* a **trace id** minted by the client (:func:`mint_trace_id`) and
  carried over HTTP in the :data:`TRACE_HEADER` header;
* **epoch-stamped span records** — plain picklable dicts holding
  ``started_at`` (epoch seconds) and ``duration_s``, so spans from
  different processes on one host share a comparable clock without
  sharing a ``perf_counter`` origin.  The job's
  :class:`~repro.telemetry.profiler.StageProfiler` records the daemon
  and shard spans (shard workers ship theirs home next to the
  result); the client records its own (:func:`client_span_record`);
* a **trace builder** (:func:`build_job_trace`) that rebases every
  span — service phases, kernel stages and shard envelopes, the
  supervised retry/backoff spans, and client-side submit/429 spans —
  onto one origin and renders a single Chrome trace-event document,
  one ``pid`` lane per process, every event stamped with the shared
  ``trace_id``.

The output loads in ``chrome://tracing`` / Perfetto and summarises
through the existing ``repro trace`` command.  Everything here is
observer-only: span records ride *next to* batch results, never inside
them, so traced runs stay bit-identical to untraced ones.

Span timestamps are wall-clock readings; they never reach simulation
state.
"""

from __future__ import annotations

import os
import uuid
from typing import Any, Iterable, Mapping, Sequence

from repro.telemetry.profiler import SHARD_SPAN, span_record

#: HTTP header carrying the client-minted trace id.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Environment kill-switch: ``REPRO_TRACE=0`` stops the client from
#: minting/propagating trace ids (the daemon then mints server-side).
TRACE_ENV = "REPRO_TRACE"

#: Chrome-trace ``pid`` lanes; shard ``k`` renders as pid ``100 + k``.
CLIENT_PID = 1
DAEMON_PID = 2
SHARD_PID_BASE = 100


def tracing_enabled(
    environ: "Mapping[str, str] | None" = None,
) -> bool:
    """Whether client-side trace propagation is on (default yes)."""
    env = os.environ if environ is None else environ
    return env.get(TRACE_ENV, "1") != "0"


def mint_trace_id() -> str:
    """A fresh 16-hex-digit trace id.

    Trace ids are telemetry-only correlation keys: they never feed a
    simulation stream, so OS entropy is fine here (the determinism
    lint polices clocks and RNG draws, not identifiers).
    """
    return uuid.uuid4().hex[:16]


def client_span_record(
    trace_id: str,
    name: str,
    started_at: float,
    duration_s: float,
    **args: Any,
) -> dict:
    """One client-side span (submit round-trip, 429 backoff sleep)."""
    return span_record(
        name, started_at, max(0.0, duration_s),
        kind="client-span", trace_id=trace_id, **args,
    )


# ----------------------------------------------------------------------
# Building the merged Chrome trace.
# ----------------------------------------------------------------------

#: The service's job phases; every other span is a kernel stage or a
#: ``shard`` envelope.
SERVICE_PHASES = frozenset(
    {"queued", "cache-lookup", "simulate", "merge", "persist"}
)

#: Span keys that are not rendered as Chrome-trace ``args``.
_SPAN_FIELDS = ("kind", "name", "started_at", "duration_s")

_TERMINAL = ("done", "failed", "timed_out", "cancelled")


def _first_at(events: Sequence[Mapping], state: str) -> "float | None":
    for event in events:
        if event.get("state") == state:
            return float(event["at"])
    return None


def _span_args(span: Mapping) -> dict:
    return {
        key: value for key, value in span.items()
        if key not in _SPAN_FIELDS
    }


def build_job_trace(
    *,
    trace_id: str,
    job_id: str,
    events: Sequence[Mapping],
    spans: Sequence[Mapping] = (),
    client_events: Sequence[Mapping] = (),
    submitted_at: "float | None" = None,
    finished_at: "float | None" = None,
) -> dict:
    """Merge one job's evidence into a single Chrome trace document.

    *events* is the job's progress-event list (each ``{"seq", "state",
    "at", ...}``), *spans* any span list a
    :class:`~repro.telemetry.profiler.StageProfiler` recorded, and
    *client_events* any client-side span records.  A span carrying a
    ``shard`` key goes on that shard's lane; service phases
    (:data:`SERVICE_PHASES`) get cat ``lifecycle``, ``shard`` envelopes
    cat ``shard`` and kernel stages cat ``stage``.  The only spans
    derived here are the ``job <id>`` umbrella (cat ``job``) and the
    supervised retry/backoff spans.  Every epoch timestamp is rebased
    onto the earliest one seen (``ts`` is microseconds since that
    origin, the Chrome convention), so spans from every process line
    up on one timeline.  The origin is exported in
    ``otherData.origin_epoch_s`` so late client-side spans can be
    merged consistently (:func:`merge_client_events`).
    """
    events = list(events)
    times: list[float] = [float(e["at"]) for e in events if "at" in e]
    if submitted_at is not None:
        times.append(float(submitted_at))
    for span in spans:
        times.append(float(span["started_at"]))
    for span in client_events:
        times.append(float(span["started_at"]))
    if finished_at is not None:
        times.append(float(finished_at))
    origin = min(times) if times else 0.0

    def ts(t: "float | None") -> float:
        return 0.0 if t is None else max(0.0, float(t) - origin) * 1e6

    end_at = finished_at
    if end_at is None:
        for state in _TERMINAL:
            end_at = _first_at(events, state)
            if end_at is not None:
                break
    if end_at is None and times:
        end_at = max(times)

    trace: list[dict] = []

    def meta(pid: int, name: str) -> None:
        trace.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )

    meta(CLIENT_PID, "client")
    meta(DAEMON_PID, f"daemon ({job_id})")
    for shard in sorted({int(s["shard"]) for s in spans if "shard" in s}):
        meta(SHARD_PID_BASE + shard, f"shard {shard}")

    def complete(
        name: str,
        cat: str,
        start: "float | None",
        stop: "float | None",
        pid: int = DAEMON_PID,
        tid: int = 1,
        args: "Mapping[str, Any] | None" = None,
    ) -> None:
        if start is None:
            return
        stop = start if stop is None else stop
        trace.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": ts(start),
                "dur": max(0.0, float(stop) - float(start)) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {
                    "trace_id": trace_id, "job": job_id, **(args or {}),
                },
            }
        )

    # The whole-job umbrella span.
    job_start = submitted_at
    if job_start is None:
        job_start = _first_at(events, "queued")
    complete(f"job {job_id}", "job", job_start, end_at, tid=0)

    # The recorded spans: service phases, kernel stages, shards.
    for span in spans:
        name = str(span["name"])
        start = float(span["started_at"])
        if name == SHARD_SPAN:
            cat = "shard"
        elif name in SERVICE_PHASES:
            cat = "lifecycle"
        else:
            cat = "stage"
        pid, tid = DAEMON_PID, 1
        if "shard" in span:
            pid = SHARD_PID_BASE + int(span["shard"])
            tid = int(span.get("attempt", 0)) + 1
        complete(
            name, cat, start, start + float(span["duration_s"]),
            pid=pid, tid=tid, args=_span_args(span),
        )

    # Every event as an instant (the audit trail inside the trace).
    for event in events:
        state = str(event.get("state", "event"))
        if state == "shard-retry":
            continue  # rendered as a span on the shard's lane below
        detail = {
            key: value
            for key, value in event.items()
            if key not in ("at", "job", "state")
        }
        trace.append(
            {
                "name": state,
                "cat": "lifecycle",
                "ph": "i",
                "ts": ts(event.get("at")),
                "pid": DAEMON_PID,
                "tid": 1,
                "s": "t",
                "args": {
                    "trace_id": trace_id,
                    "job": job_id,
                    **detail,
                },
            }
        )

    # Supervised retry/backoff spans, on the failing shard's lane.
    for event in events:
        if event.get("state") != "shard-retry":
            continue
        at = float(event.get("noted_at") or event.get("at", 0.0))
        delay = float(event.get("delay_s", 0.0))
        shard = int(event.get("shard", 0))
        attempt = int(event.get("attempt", 0))
        complete(
            f"retry shard {shard}",
            "retry",
            at,
            at + delay,
            pid=SHARD_PID_BASE + shard,
            tid=attempt + 1,
            args={
                "shard": shard,
                "attempt": attempt,
                "reason": event.get("reason"),
                "detail": event.get("detail"),
                "delay_s": delay,
            },
        )

    doc = {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": trace_id,
            "job": job_id,
            "origin_epoch_s": origin,
        },
    }
    return merge_client_events(doc, client_events)


def merge_client_events(
    trace_doc: dict, client_events: Iterable[Mapping]
) -> dict:
    """Append client-side spans to a built job trace, in place.

    The client holds its own epoch-stamped span records (submit
    round-trips, 429 backoff sleeps); the server-built trace carries
    its rebasing origin in ``otherData.origin_epoch_s``, so both sides
    land on one timeline (same-host clocks; skew on a remote client
    shifts the client lane without breaking the daemon/shard lanes).
    A span that starts before the origin is clipped there; it still
    ends at its own ``started_at + duration_s``.
    """
    origin = float(
        trace_doc.get("otherData", {}).get("origin_epoch_s", 0.0)
    )
    trace_id = trace_doc.get("otherData", {}).get("trace_id", "")
    events = trace_doc.setdefault("traceEvents", [])
    for span in client_events:
        start = float(span["started_at"]) - origin
        stop = start + float(span.get("duration_s", 0.0))
        start = max(0.0, start)
        args = _span_args(span)
        args.setdefault("trace_id", trace_id)
        events.append(
            {
                "name": str(span.get("name", "client")),
                "cat": "client",
                "ph": "X",
                "ts": start * 1e6,
                "dur": max(0.0, stop - start) * 1e6,
                "pid": CLIENT_PID,
                "tid": 1,
                "args": args,
            }
        )
    return trace_doc
