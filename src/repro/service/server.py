"""HTTP front-end of the reliability service (``repro serve``).

Stdlib only: :class:`http.server.ThreadingHTTPServer` with JSON
request/response bodies.  Endpoints:

``POST /jobs``
    Submit one job document (see :mod:`repro.service.jobs`); replies
    ``202 {"id": ..., "state": "queued"}``.  Add ``?wait=1`` to block
    until the job finishes and get the full job document instead.
    When the bounded queue is full the reply is ``429`` with a
    ``Retry-After`` header; while draining it is ``503``.
``POST /jobs/<id>/cancel``
    Cancel a job; queued jobs never start, a running job's late
    result is discarded.  Replies with the job document.
``GET /jobs``
    Summaries of every submitted job, oldest first.
``GET /jobs/<id>``
    Full job document, including the result once done.
``GET /jobs/<id>/events?since=N``
    Progress events with ``seq >= N``; long-polls up to 10 s for the
    next event, so clients can follow progress without busy-waiting.
``GET /jobs/<id>/trace``
    The job's merged Chrome trace (service phases, kernel stages and
    shard spans), ready for ``chrome://tracing`` / ``repro trace``.
``GET /jobs/<id>/convergence``
    The latest convergence snapshot of an adaptive simulate job
    (per-communicator rate, interval half-width, LRC margin, and
    sequential verdict); ``convergence`` is null for fixed-run jobs
    and before the first checkpoint.
``GET /metrics``
    Content-negotiated: Prometheus text exposition (Content-Type
    ``text/plain; version=0.0.4``) when the client sends
    ``Accept: text/plain``/``openmetrics`` or ``?format=prometheus``;
    otherwise the legacy flat JSON counter object
    (``application/json``), so pre-PR 9 clients are unchanged.
``GET /healthz``
    Liveness probe: queue depth, worker liveness, cache stats,
    uptime, package version, rolling SLOs, and active trace ids.

Every request lands in the ``repro_service_requests_total`` counter
and ``repro_service_request_seconds`` histogram, labelled by a
bounded-cardinality endpoint pattern (job ids are collapsed to
``{id}``).  ``POST /jobs`` honours the ``X-Repro-Trace-Id`` header:
the client-minted trace id is attached to the job and echoed in the
202 reply.

Errors reply with ``{"error": ...}`` and status 400 (bad document),
404 (unknown job/path), 429 (queue full, with ``Retry-After``),
503 (draining), or 500 (handler bug).

``serve`` runs a built :class:`ReliabilityService` behind the
listener and installs a SIGTERM handler that drains gracefully:
running jobs finish, new submissions are rejected with 503, and the
ledger — fsynced on every append — is durable before the process
exits.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping
from urllib.parse import parse_qs, urlparse

from repro.errors import ReproError
from repro.service.jobs import (
    ReliabilityService,
    ServiceDraining,
    ServiceError,
    ServiceQueueFull,
)
from repro.telemetry.distributed import TRACE_HEADER

#: Long-poll ceiling of ``/events`` in seconds.
EVENT_POLL_TIMEOUT = 10.0

#: The Prometheus text exposition content type (the 0.0.4 format).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Seconds a SIGTERM drain waits for accepted jobs before cancelling
#: the still-queued ones.
DRAIN_TIMEOUT_S = 30.0


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`ReliabilityService`."""

    service: ReliabilityService  # injected by make_server
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        pass  # tests and daemons don't want per-request stderr noise

    def _reply(
        self,
        status: int,
        document: Any = None,
        headers: "Mapping[str, str] | None" = None,
        content_type: str = "application/json",
        body: "bytes | None" = None,
    ) -> None:
        if body is None:
            body = json.dumps(document).encode("utf-8")
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self,
        status: int,
        message: str,
        headers: "Mapping[str, str] | None" = None,
    ) -> None:
        self._reply(status, {"error": message}, headers=headers)

    def _read_document(self) -> Any:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b"{}"
        try:
            return json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ServiceError(f"request body is not JSON: {error}")

    # -- request metrics ------------------------------------------------

    def _endpoint(self) -> str:
        """Bounded-cardinality endpoint label for request metrics."""
        parts = [
            part for part in urlparse(self.path).path.split("/")
            if part
        ]
        if not parts:
            return "/"
        if parts[0] != "jobs" or len(parts) == 1:
            return "/" + parts[0] if len(parts) == 1 else "/other"
        if len(parts) == 2:
            return "/jobs/{id}"
        if len(parts) == 3 and parts[2] in (
            "events", "cancel", "trace", "convergence",
        ):
            return "/jobs/{id}/" + parts[2]
        return "/other"

    def _timed(self, method: str, handler: Callable[[], None]) -> None:
        start = time.perf_counter()
        self._status = 0
        try:
            handler()
        finally:
            try:
                self.service.metrics.observe_request(
                    self._endpoint(), method, self._status,
                    time.perf_counter() - start,
                )
            except Exception:  # pragma: no cover - metrics bug
                pass

    # -- verbs ----------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (stdlib casing)
        self._timed("POST", self._handle_post)

    def _handle_post(self) -> None:
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        try:
            if (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "cancel"
            ):
                job = self.service.cancel(parts[1])
                self._reply(200, job.to_dict())
                return
            if url.path != "/jobs":
                self._error(404, f"no such endpoint: POST {url.path}")
                return
            document = self._read_document()
            if not isinstance(document, dict):
                raise ServiceError("job document must be a JSON object")
            trace_id = self.headers.get(TRACE_HEADER) or None
            job = self.service.submit(document, trace_id=trace_id)
            query = parse_qs(url.query)
            if query.get("wait", ["0"])[0] in ("1", "true"):
                job.wait()
                self._reply(200, job.to_dict())
            else:
                self._reply(
                    202,
                    {
                        "id": job.id,
                        "state": job.state,
                        "trace_id": job.trace_id,
                    },
                )
        except ServiceQueueFull as error:
            self._error(
                429,
                str(error),
                headers={
                    "Retry-After": format(error.retry_after_s, "g")
                },
            )
        except ServiceDraining as error:
            self._error(503, str(error))
        except ReproError as error:
            self._error(400, str(error))
        except Exception as error:  # pragma: no cover - handler bug
            self._error(500, f"{type(error).__name__}: {error}")

    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        self._timed("GET", self._handle_get)

    def _handle_get(self) -> None:
        url = urlparse(self.path)
        try:
            self._route_get(url)
        except ServiceError as error:
            self._error(404, str(error))
        except ReproError as error:
            self._error(400, str(error))
        except Exception as error:  # pragma: no cover - handler bug
            self._error(500, f"{type(error).__name__}: {error}")

    def _route_get(self, url: Any) -> None:
        parts = [part for part in url.path.split("/") if part]
        if parts == ["healthz"]:
            self._reply(200, self.service.health())
        elif parts == ["metrics"]:
            self._metrics(parse_qs(url.query))
        elif parts == ["jobs"]:
            self._reply(
                200,
                {
                    "jobs": [
                        job.to_dict() for job in self.service.jobs()
                    ]
                },
            )
        elif len(parts) == 2 and parts[0] == "jobs":
            self._reply(200, self.service.get(parts[1]).to_dict())
        elif (
            len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] == "events"
        ):
            query = parse_qs(url.query)
            since = int(query.get("since", ["0"])[0])
            job = self.service.get(parts[1])
            events = job.events_since(
                since, timeout=EVENT_POLL_TIMEOUT
            )
            self._reply(
                200,
                {"job": job.id, "done": job.done, "events": events},
            )
        elif (
            len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] == "trace"
        ):
            self._reply(200, self.service.job_trace(parts[1]))
        elif (
            len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] == "convergence"
        ):
            job = self.service.get(parts[1])
            self._reply(
                200,
                {
                    "job": job.id,
                    "state": job.state,
                    "convergence": job.convergence,
                },
            )
        else:
            self._error(404, f"no such endpoint: GET {url.path}")

    def _metrics(self, query: "Mapping[str, list[str]]") -> None:
        """``/metrics`` with content negotiation.

        Prometheus exposition when asked for explicitly
        (``?format=prometheus``) or via ``Accept`` (``text/plain`` or
        an OpenMetrics type); the legacy flat JSON counters otherwise
        — including ``?format=json`` — so existing JSON clients keep
        the exact pre-PR 9 shape and Content-Type.
        """
        fmt = query.get("format", [""])[0].lower()
        accept = self.headers.get("Accept", "").lower()
        wants_prometheus = fmt == "prometheus" or (
            fmt != "json"
            and ("text/plain" in accept or "openmetrics" in accept)
        )
        if wants_prometheus:
            self._reply(
                200,
                content_type=PROMETHEUS_CONTENT_TYPE,
                body=self.service.metrics_exposition().encode("utf-8"),
            )
        else:
            self._reply(200, self.service.metrics.snapshot())


def make_server(
    service: ReliabilityService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ThreadingHTTPServer:
    """Bind a (not yet serving) HTTP server to *service*.

    ``port=0`` picks a free port; read it back from
    ``server.server_address`` — the tests and the CLI banner both do.
    """

    class BoundHandler(_Handler):
        pass

    BoundHandler.service = service
    server = ThreadingHTTPServer((host, port), BoundHandler)
    server.daemon_threads = True
    return server


def serve(
    service: ReliabilityService,
    host: str = "127.0.0.1",
    port: int = 8765,
) -> None:
    """Run *service* behind HTTP until interrupted (``repro serve``).

    Starts the service and prints one banner line, ``repro service
    listening on http://HOST:PORT (...)``, as the first line of stdout
    (``port=0`` binds a free port; the banner names it).  SIGTERM (and
    Ctrl-C) triggers a graceful drain: the listener stops accepting
    connections, running jobs finish (up to :data:`DRAIN_TIMEOUT_S`),
    still-queued jobs are cancelled only if the drain times out, and
    the fsynced ledger needs no further flush.
    """
    service.start()
    server = make_server(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    workers = service.workers
    print(
        f"repro service listening on http://{bound_host}:"
        f"{bound_port} ({workers} worker"
        f"{'s' if workers != 1 else ''}"
        + (f", ledger {service.ledger_dir}" if service.ledger_dir else "")
        + (
            f", queue limit {service.queue_limit}"
            if service.queue_limit is not None else ""
        )
        + ")",
        flush=True,
    )

    stop_requested = threading.Event()

    def _on_sigterm(signum: int, frame: Any) -> None:
        # Reject new jobs immediately; shut the listener down from a
        # helper thread (shutdown() deadlocks if called from the
        # serve_forever thread itself).
        service.begin_drain()
        stop_requested.set()
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        previous = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - non-main thread (tests)
        previous = None
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.shutdown()
        server.server_close()
        if stop_requested.is_set():
            if not service.drain(timeout=DRAIN_TIMEOUT_S):
                print(
                    "repro service drain timed out; cancelling "
                    "queued jobs"
                )
        service.stop()
        if previous is not None:  # pragma: no branch
            signal.signal(signal.SIGTERM, previous)
