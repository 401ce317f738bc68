"""Stdlib HTTP client for the reliability service.

Backs the ``repro submit`` / ``repro jobs`` CLI commands and is small
enough to script against directly:

>>> client = ServiceClient("127.0.0.1", 8765)   # doctest: +SKIP
>>> job = client.submit({"kind": "verify", ...})  # doctest: +SKIP

Uses :mod:`http.client` so the service stack stays dependency-free
end to end.

Backpressure (PR 8): a ``429`` reply from the bounded job queue is
retried client-side with exponential backoff, honouring the server's
``Retry-After`` hint, up to ``retries`` attempts before surfacing
:class:`ServiceBusyError`.  ``503`` (service draining) is never
retried — the daemon is going away.

Observability (PR 9): :meth:`ServiceClient.submit` mints a trace id
and propagates it in the ``X-Repro-Trace-Id`` header (disable with
``REPRO_TRACE=0`` in the environment — the daemon then mints one
server-side); every 429 backoff sleep is recorded as a structured
event on ``backoff_events`` (and through the ``on_log`` callback)
instead of sleeping silently; and client-side spans accumulate on
``trace_events`` so :meth:`ServiceClient.job_trace` can merge them
into the daemon's Chrome trace of the job.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Callable, Iterator, Mapping

from repro.errors import ReproError
from repro.telemetry.distributed import (
    TRACE_HEADER,
    client_span_record,
    merge_client_events,
    mint_trace_id,
    tracing_enabled,
)


class ServiceClientError(ReproError):
    """The daemon was unreachable or replied with an error."""


class ServiceBusyError(ServiceClientError):
    """The job queue stayed full through every 429 retry."""


class ServiceClient:
    """Talks to one ``repro serve`` daemon.

    Parameters
    ----------
    retries:
        How many times a 429 (queue full) submission is retried
        before :class:`ServiceBusyError`.  ``0`` disables retrying.
    backoff_s:
        Base of the exponential retry delay; the server's
        ``Retry-After`` header takes precedence when larger.
    on_log:
        Optional callback receiving each structured client event
        (429 backoffs) as a dict — the CLI prints them to stderr.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8765,
        timeout: float = 60.0,
        retries: int = 4,
        backoff_s: float = 0.1,
        sleep: Callable[[float], None] = time.sleep,
        on_log: "Callable[[dict], None] | None" = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self._sleep = sleep
        self.on_log = on_log
        #: Structured 429-backoff events (most recent last).
        self.backoff_events: list[dict] = []
        #: Client-side spans for the distributed job trace.
        self.trace_events: list[dict] = []
        #: Trace id of the most recent submission.
        self.last_trace_id: "str | None" = None

    # -- low-level ------------------------------------------------------

    def _request_once(
        self,
        method: str,
        path: str,
        document: "Any | None" = None,
        headers: "Mapping[str, str] | None" = None,
    ) -> "tuple[int, dict, Any]":
        """One HTTP round-trip → (status, headers-dict, body)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = (
                None if document is None
                else json.dumps(document).encode("utf-8")
            )
            send_headers = dict(headers or {})
            if body:
                send_headers["Content-Type"] = "application/json"
            connection.request(
                method, path, body=body, headers=send_headers
            )
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            raise ServiceClientError(
                f"cannot reach repro service at "
                f"{self.host}:{self.port}: {error}"
            )
        finally:
            connection.close()
        try:
            parsed = json.loads(raw.decode("utf-8")) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise ServiceClientError(
                f"service replied non-JSON ({response.status})"
            )
        return response.status, dict(response.getheaders()), parsed

    def _request(
        self,
        method: str,
        path: str,
        document: "Any | None" = None,
        headers: "Mapping[str, str] | None" = None,
        trace_id: "str | None" = None,
    ) -> Any:
        attempt = 0
        while True:
            status, reply_headers, parsed = self._request_once(
                method, path, document, headers=headers
            )
            if status == 429:
                message = str(parsed.get("error", "HTTP 429"))
                if attempt >= self.retries:
                    raise ServiceBusyError(
                        f"{message} (gave up after "
                        f"{attempt} retr"
                        f"{'y' if attempt == 1 else 'ies'})"
                    )
                attempt += 1
                delay = self.backoff_s * 2 ** (attempt - 1)
                hint = reply_headers.get("Retry-After")
                if hint is not None:
                    try:
                        delay = max(delay, float(hint))
                    except ValueError:
                        pass
                self._note_backoff(
                    path, attempt, delay, hint, trace_id
                )
                self._sleep(delay)
                continue
            if status >= 400:
                raise ServiceClientError(
                    str(parsed.get("error", f"HTTP {status}"))
                )
            return parsed

    def _note_backoff(
        self,
        path: str,
        attempt: int,
        delay: float,
        retry_after: "str | None",
        trace_id: "str | None",
    ) -> None:
        """Record one 429 backoff as a structured event (no silence)."""
        now = time.time()
        event = {
            "event": "backoff-429",
            "ts": now,
            "path": path,
            "attempt": attempt,
            "delay_s": delay,
            "retry_after": retry_after,
            "trace_id": trace_id,
        }
        self.backoff_events.append(event)
        if trace_id is not None:
            self.trace_events.append(
                client_span_record(
                    trace_id, "backoff-429", now, delay,
                    attempt=attempt, path=path,
                )
            )
        if self.on_log is not None:
            try:
                self.on_log(event)
            except Exception:  # log hook must not break the retry
                pass

    # -- API ------------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def submit(
        self, document: Mapping[str, Any], wait: bool = False
    ) -> dict:
        """Submit a job; with *wait* the reply is the finished job.

        Mints a distributed trace id and sends it in the
        ``X-Repro-Trace-Id`` header (unless ``REPRO_TRACE=0``); the
        submit round-trip — including any 429 backoff sleeps — is
        recorded as client-side spans for :meth:`job_trace`.
        """
        suffix = "?wait=1" if wait else ""
        headers: dict[str, str] = {}
        trace_id: "str | None" = None
        if tracing_enabled():
            trace_id = mint_trace_id()
            headers[TRACE_HEADER] = trace_id
        started = time.time()
        reply = self._request(
            "POST", f"/jobs{suffix}", dict(document),
            headers=headers, trace_id=trace_id,
        )
        # The daemon mints server-side when no header was sent;
        # either way the reply names the id this job traces under.
        trace_id = reply.get("trace_id", trace_id) or trace_id
        self.last_trace_id = trace_id
        if trace_id is not None:
            self.trace_events.append(
                client_span_record(
                    trace_id, "submit", started,
                    time.time() - started,
                    job_id=reply.get("id"),
                )
            )
        return reply

    def cancel(self, job_id: str) -> dict:
        """Cancel a job (queued: never starts; running: discarded)."""
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def job_trace(self, job_id: str) -> dict:
        """The job's merged Chrome trace, with client spans folded in.

        Fetches the daemon-built trace (lifecycle + shard + retry
        spans) and appends this client's own spans that share the
        job's trace id — one coherent timeline across every process.
        """
        doc = self._request("GET", f"/jobs/{job_id}/trace")
        trace_id = doc.get("otherData", {}).get("trace_id")
        mine = [
            span for span in self.trace_events
            if span.get("trace_id") == trace_id
        ]
        return merge_client_events(doc, mine)

    def convergence(self, job_id: str) -> dict:
        """The job's latest convergence snapshot.

        ``{"job": ..., "state": ..., "convergence": ...}`` where
        ``convergence`` is the per-communicator diagnostics dict of an
        adaptive simulate job's most recent checkpoint, or ``None``
        for fixed-run jobs (and before the first checkpoint).
        """
        return self._request("GET", f"/jobs/{job_id}/convergence")

    def jobs(self) -> list[dict]:
        return list(self._request("GET", "/jobs").get("jobs", []))

    def events(self, job_id: str, since: int = 0) -> dict:
        return self._request(
            "GET", f"/jobs/{job_id}/events?since={since}"
        )

    def iter_events(self, job_id: str) -> Iterator[dict]:
        """Yield progress events until the job reaches a terminal state."""
        since = 0
        done = False
        while not done:
            reply = self.events(job_id, since=since)
            events = reply.get("events", [])
            yield from events
            since += len(events)
            done = bool(reply.get("done")) and not events
