"""The reliability service: job queue, workers, cache, persistence.

:class:`ReliabilityService` accepts JSON job documents describing a
(spec, arch, impl, runs, seed) query, executes them on a pool of
worker threads, memoizes results in a
:class:`~repro.service.cache.ResultCache`, persists every completed
job to the :class:`~repro.telemetry.ledger.RunLedger`, and streams
per-job progress events that clients can follow (long-poll or
line-stream, see :mod:`repro.service.server`).

Job document fields (``kind`` selects the pipeline):

``kind: "simulate"``
    ``spec`` (specification dict) or ``htl`` (source text), ``arch``
    (dict), ``impl`` (dict), ``timeout_s`` (optional per-job
    deadline), and the request fields of :mod:`repro.request`
    (``runs``, ``iterations``, ``seed``, ``jobs``, ``bernoulli``,
    ``unplug``, ``slack``, ``monitor_window``, adaptive stopping),
    the same document ``repro simulate`` builds from its flags.
``kind: "verify"``
    ``spec``/``htl``, ``arch``, optional ``impl`` — the analytic
    abstract-interpretation verdict, memoized by design fingerprint.

:meth:`ReliabilityService.submit` type-checks every field once (JSON
integers, booleans and numbers, never one for another), refuses a
simulate field it does not know, and builds a simulate job's
:class:`~repro.request.SimulateRequest`, so a malformed document is
refused at submission; only an unplugged host missing from ``arch``
fails later, in the worker.

Cache semantics (the PR 7 contract): an identical repeated simulate
job answers from cache without simulating; a ``runs`` upgrade
simulates only the tail ``cached.runs..runs-1`` — seeded by
``SeedSequence(seed, spawn_key=(k,))``, which equals
``SeedSequence(seed).spawn(runs)[k]`` — and merges, so the reply is
bit-identical to a fresh full batch.  Both facts are asserted through
the :class:`~repro.service.cache.ServiceMetrics` counters.  Hits,
upgrades, misses, and adaptive jobs all run through the one method
:meth:`~repro.runtime.batch.BatchSimulator.grow`.

Robustness (PR 8): every submitted job reaches a **terminal state** —
``done``, ``failed``, ``timed_out``, or ``cancelled``.  A per-job
deadline (``timeout_s``) is enforced by a reaper thread whether the
job is still queued or already running (a late worker result is
discarded, never resurrected); the queue is bounded
(:class:`ServiceQueueFull` maps to HTTP 429 + ``Retry-After``);
:meth:`ReliabilityService.drain` finishes accepted work while
rejecting new submissions (:class:`ServiceDraining` → 503), and
:meth:`ReliabilityService.stop` cancels still-queued jobs so waiters
return promptly instead of blocking out their full timeout.  Sharded
simulations — cache misses and upgrade tails alike — run under the
:class:`~repro.service.supervision.SupervisedShardedExecutor`, so a
crashed or hung shard worker is retried (bit-identically) instead of
failing the job.

Observability (PR 9): every job carries a ``trace_id`` (client-minted
or server-minted) and one
:class:`~repro.telemetry.profiler.StageProfiler`, whose spans — the
service phases, the kernel stages and the shard workers' spans — feed
the stage latency histogram in :class:`ServiceMetrics`.  State
transitions stream to a structured JSONL
:class:`~repro.service.slog.ServiceLog`, finished jobs feed a rolling
:class:`~repro.service.slo.SloTracker` (p99 latency, error burn)
surfaced in :meth:`ReliabilityService.health`, and
:meth:`ReliabilityService.job_trace` merges the job's events with its
spans into one Chrome trace spanning every process.
Tracing is observer-only: spans ride outside batch payloads, so
results stay bit-identical with tracing on or off.

This module reads the wall clock (job timestamps, deadlines) and is
therefore on the determinism-lint allowlist; timestamps never reach
simulation state.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
import traceback
from typing import Any, Callable, Mapping

from repro.errors import ReproError
from repro.request import (
    RequestError,
    SimulateRequest,
    parse_simulate,
    typed_field,
)
from repro.service.cache import McKey, ResultCache, ServiceMetrics
from repro.service.slo import SloTracker
from repro.service.slog import ServiceLog
from repro.telemetry.distributed import (
    SERVICE_PHASES,
    build_job_trace,
    mint_trace_id,
)
from repro.telemetry.ledger import RunLedger
from repro.telemetry.profiler import StageProfiler

#: Cache outcome of a simulate job -> the ``/metrics`` counter it bumps.
_OUTCOME_COUNTERS = {
    "hit": "mc_cache_hits",
    "partial": "mc_cache_partial",
    "miss": "mc_cache_misses",
}

#: States a job can never leave.
TERMINAL_STATES = frozenset(
    {"done", "failed", "timed_out", "cancelled"}
)

#: Terminal jobs the service keeps for lookup.  Each submission evicts
#: the oldest terminal jobs beyond this many, so a long-lived daemon's
#: job table stays bounded; queued and running jobs are never evicted.
FINISHED_JOBS_KEPT = 256


class ServiceError(ReproError):
    """A job document is malformed or names an unknown job."""


class ServiceQueueFull(ServiceError):
    """The bounded job queue is at capacity (HTTP 429).

    ``retry_after_s`` is the backpressure hint clients should wait
    before retrying (the server forwards it as ``Retry-After``).
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServiceDraining(ServiceError):
    """The service is draining/stopped and rejects new jobs (503)."""


class Job:
    """One submitted query: state, progress events, result."""

    def __init__(
        self,
        job_id: str,
        document: dict,
        timeout_s: "float | None" = None,
        trace_id: "str | None" = None,
        observer: "Callable[[Job, dict], None] | None" = None,
        request: "SimulateRequest | None" = None,
    ) -> None:
        self.id = job_id
        self.document = document
        #: The typed fields of a simulate job, parsed at submission.
        self.request = request
        # queued | running | done | failed | timed_out | cancelled
        self.state = "queued"
        self.error: "str | None" = None
        self.result: "dict | None" = None
        self.submitted_at = time.time()
        self.finished_at: "float | None" = None
        self.timeout_s = timeout_s
        self.deadline = (
            None if timeout_s is None
            else time.monotonic() + timeout_s
        )
        #: Distributed-tracing correlation key: client-minted (sent in
        #: the X-Repro-Trace-Id header) or server-minted here.
        self.trace_id = trace_id or mint_trace_id()
        #: The spans the job's profiler records — service phases,
        #: kernel stages and shards — when the service traces.
        self.spans: list[dict] = []
        #: Latest convergence snapshot of an adaptive simulate job
        #: (updated at every checkpoint boundary while running).
        self.convergence: "dict | None" = None
        #: Called as ``observer(job, event)`` after every emit —
        #: the service hooks the structured log here.  Set before the
        #: "queued" emit so no transition escapes the log.
        self.observer = observer
        self.events: list[dict] = []
        self.condition = threading.Condition()
        self.emit("queued")

    def emit(self, state: str, **detail: Any) -> None:
        """Append one progress event and wake any waiters."""
        with self.condition:
            event = {
                "seq": len(self.events),
                "job": self.id,
                "state": state,
                "at": time.time(),
                **detail,
            }
            self.events.append(event)
            self.condition.notify_all()
        if self.observer is not None:
            # Outside the condition: the observer writes a log line
            # and must not hold up (or deadlock against) waiters.
            try:
                self.observer(self, event)
            except Exception:  # pragma: no cover - log must not kill
                pass

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    def start_running(self) -> bool:
        """Move ``queued`` → ``running``; ``False`` if already terminal.

        The terminal check and the transition happen under the job
        condition, so a racing deadline/cancel cannot interleave.
        """
        with self.condition:
            if self.state in TERMINAL_STATES:
                return False
            self.state = "running"
        self.emit("running")
        return True

    def finish(
        self,
        state: str,
        error: "str | None" = None,
        result: "dict | None" = None,
        **detail: Any,
    ) -> bool:
        """First terminal transition wins; later ones are discarded.

        Returns ``True`` when this call performed the transition.  A
        worker completing after a timeout (or a reaper firing after
        completion) therefore cannot flip the state back — the losing
        side's result/error is simply dropped.
        """
        if state not in TERMINAL_STATES:
            raise ServiceError(f"{state!r} is not a terminal state")
        with self.condition:
            if self.state in TERMINAL_STATES:
                return False
            self.state = state
            self.error = error
            if result is not None:
                self.result = result
            self.finished_at = time.time()
        if error is not None:
            detail.setdefault("error", error)
        self.emit(state, **detail)
        return True

    def overdue(self, now: "float | None" = None) -> bool:
        """Whether the deadline has passed (terminal jobs never are)."""
        if self.deadline is None or self.done:
            return False
        return (
            time.monotonic() if now is None else now
        ) >= self.deadline

    def wait(self, timeout: "float | None" = None) -> bool:
        """Block until the job reaches a terminal state.

        Spurious wakeups re-check the remaining budget against
        ``time.monotonic()``; a service stop cancels queued jobs and
        notifies, so waiters return promptly rather than sleeping out
        their full timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.condition:
            while self.state not in TERMINAL_STATES:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self.condition.wait(remaining)
        return True

    def events_since(
        self, since: int, timeout: "float | None" = None
    ) -> list[dict]:
        """Events with ``seq >= since``; block up to *timeout* for one."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.condition:
            while (
                len(self.events) <= since
                and self.state not in TERMINAL_STATES
            ):
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                self.condition.wait(remaining)
            return list(self.events[since:])

    def to_dict(self) -> dict:
        doc = {
            "id": self.id,
            "kind": self.document.get("kind", "simulate"),
            "state": self.state,
            "trace_id": self.trace_id,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "events": len(self.events),
        }
        if self.timeout_s is not None:
            doc["timeout_s"] = self.timeout_s
        if self.error is not None:
            doc["error"] = self.error
        if self.convergence is not None:
            doc["convergence"] = self.convergence
        if self.result is not None:
            doc["result"] = self.result
        return doc


class ReliabilityService:
    """Executes reliability queries behind a queue, cache, and ledger.

    Parameters
    ----------
    workers:
        Worker-thread count (each drains the shared job queue).
    ledger:
        Optional ledger directory; completed jobs append a
        :class:`~repro.telemetry.ledger.RunRecord` through the one
        :class:`~repro.telemetry.ledger.RunLedger` the service keeps
        (the advisory append lock makes concurrent workers safe).
    functions / conditions:
        Callable registries bound into submitted specifications,
        exactly like the CLI's ``--bindings`` module.
    queue_limit:
        Maximum *queued* (accepted, not yet started) jobs; above it,
        :meth:`submit` raises :class:`ServiceQueueFull` (429).
        ``None`` keeps the PR 7 unbounded queue.
    shard_retries / shard_deadline_s:
        Supervision knobs for sharded simulations: re-executions
        allowed per failed shard worker (``>= 0``), and the per-shard
        hang deadline in seconds (``> 0``; ``None`` disables hang
        detection).
    cache_entries / cache_dir:
        :class:`~repro.service.cache.ResultCache` LRU bound per entry
        kind (``>= 1``; ``None`` is
        :data:`~repro.service.cache.CACHE_ENTRIES`) and crash-safe
        spill directory.
    default_timeout_s:
        Deadline in seconds (``> 0``) applied to jobs that do not
        carry ``timeout_s``.
    executor_factory:
        Testing/chaos hook: ``factory(shards) -> BatchExecutor``
        overriding the supervised default for sharded simulations.
    log:
        Structured JSONL service log: a
        :class:`~repro.service.slog.ServiceLog`, a path to append to,
        or ``None`` for an in-memory-only log (always on — the ring
        buffer is cheap and the chaos harness reads it).
    tracing:
        ``False`` keeps the job's spans off ``job.spans``, so its trace
        holds no recorded spans (jobs still carry trace ids, and the
        ``/metrics`` stage histogram is fed either way; the benchmark
        guard compares both modes).
    """

    def __init__(
        self,
        workers: int = 1,
        ledger: "str | None" = None,
        functions: "Mapping[str, Callable[..., Any]] | None" = None,
        conditions: "Mapping[str, Callable[..., Any]] | None" = None,
        queue_limit: "int | None" = None,
        shard_retries: int = 2,
        shard_deadline_s: "float | None" = None,
        cache_entries: "int | None" = None,
        cache_dir: "str | None" = None,
        default_timeout_s: "float | None" = None,
        executor_factory: "Callable[[int], Any] | None" = None,
        log: "ServiceLog | str | None" = None,
        tracing: bool = True,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if queue_limit is not None and queue_limit < 1:
            raise ServiceError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        if shard_retries < 0:
            raise ServiceError(
                f"shard_retries must be >= 0, got {shard_retries}"
            )
        if shard_deadline_s is not None and shard_deadline_s <= 0:
            raise ServiceError(
                f"shard_deadline_s must be > 0, got {shard_deadline_s}"
            )
        if cache_entries is not None and cache_entries < 1:
            raise ServiceError(
                f"cache_entries must be >= 1, got {cache_entries}"
            )
        if default_timeout_s is not None and default_timeout_s <= 0:
            raise ServiceError(
                f"default_timeout_s must be > 0, got {default_timeout_s}"
            )
        self.workers = workers
        self.metrics = ServiceMetrics()
        self.cache = ResultCache(
            max_entries=cache_entries,
            root=cache_dir,
            metrics=self.metrics,
        )
        self.ledger_dir = ledger
        # One ledger for the daemon's life: it remembers its last
        # append, so the next one reads nothing unless another writer
        # touched the file.
        self.ledger = None if ledger is None else RunLedger(ledger)
        self.functions = dict(functions or {})
        self.conditions = dict(conditions or {})
        self.queue_limit = queue_limit
        self.shard_retries = shard_retries
        self.shard_deadline_s = shard_deadline_s
        self.default_timeout_s = default_timeout_s
        self.executor_factory = executor_factory
        self.tracing = tracing
        self.log = (
            log if isinstance(log, ServiceLog) else ServiceLog(log)
        )
        self.slo = SloTracker()
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self._queue: "queue.Queue[Job | None]" = queue.Queue()
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._counter = 0
        self._queued = 0   # accepted, not yet picked up by a worker
        self._running = 0  # currently executing
        self._idle = threading.Condition(self._lock)
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        self._started = False
        self._draining = False
        self._reaper_wake = threading.Event()
        self._reaper_stop = threading.Event()
        self._reaper: "threading.Thread | None" = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ReliabilityService":
        if not self._started:
            self._started = True
            self._draining = False
            for thread in self._threads:
                thread.start()
            self._reaper_stop.clear()
            self._reaper = threading.Thread(
                target=self._reap, name="repro-reaper", daemon=True
            )
            self._reaper.start()
        return self

    def begin_drain(self) -> None:
        """Reject new submissions; accepted work keeps running."""
        self._draining = True

    def drain(self, timeout: "float | None" = None) -> bool:
        """Graceful shutdown: finish accepted jobs, reject new ones.

        Blocks until every queued and running job reached a terminal
        state (or *timeout* elapsed), then stops the worker and
        reaper threads.  The ledger needs no explicit flush — every
        append is flushed and fsynced — so when this returns, all
        completed work is durable.  Returns ``False`` on timeout.
        """
        self.begin_drain()
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._idle:
            while self._queued or self._running:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
        self._shutdown_threads()
        return True

    def stop(self) -> None:
        """Fast shutdown: cancel queued jobs, let running ones finish.

        Cancelling the queued jobs moves them to a terminal state and
        notifies their conditions, so ``Job.wait`` callers return
        promptly instead of blocking until their full timeout.
        """
        if not self._started:
            return
        self.begin_drain()
        with self._lock:
            pending = [
                job for job in self._jobs.values()
                if job.state == "queued"
            ]
        for job in pending:
            if job.finish("cancelled", error="service stopped"):
                self.metrics.add("jobs_cancelled")
        self._shutdown_threads()
        self.log.emit("service-stopped")
        self.log.close()

    def _shutdown_threads(self) -> None:
        if not self._started:
            return
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()
        self._reaper_stop.set()
        self._reaper_wake.set()
        if self._reaper is not None:
            self._reaper.join()
            self._reaper = None
        self._started = False

    def __enter__(self) -> "ReliabilityService":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- submission / lookup -------------------------------------------

    def submit(
        self,
        document: Mapping[str, Any],
        trace_id: "str | None" = None,
    ) -> Job:
        """Validate and enqueue one job document.

        *trace_id* is the client-propagated distributed-tracing id
        (from the ``X-Repro-Trace-Id`` header); ``None`` mints one
        server-side, so every job is traceable either way.
        """
        if self._draining:
            self.log.emit(
                "rejected", reason="draining", trace_id=trace_id
            )
            raise ServiceDraining(
                "service is draining and not accepting jobs"
            )
        if not isinstance(document, Mapping):
            raise ServiceError("job document must be a JSON object")
        doc = dict(document)
        kind = doc.setdefault("kind", "simulate")
        if kind not in ("simulate", "verify"):
            raise ServiceError(f"unknown job kind {kind!r}")
        if "spec" not in doc and "htl" not in doc:
            raise ServiceError("job needs a 'spec' dict or 'htl' source")
        if "arch" not in doc:
            raise ServiceError("job needs an 'arch' dict")
        request = None
        try:
            if kind == "simulate":
                if "impl" not in doc:
                    raise ServiceError("simulate job needs an 'impl' dict")
                request = parse_simulate(doc)
            elif doc.get("adaptive"):
                raise ServiceError(
                    "adaptive stopping applies to simulate jobs only"
                )
            timeout_s = typed_field(doc, "timeout_s", float)
        except RequestError as error:
            raise ServiceError(str(error)) from None
        if timeout_s is None:
            timeout_s = self.default_timeout_s
        elif timeout_s <= 0:
            raise ServiceError(
                f"timeout_s must be a positive number, got {timeout_s!r}"
            )
        with self._lock:
            if (
                self.queue_limit is not None
                and self._queued >= self.queue_limit
            ):
                self.metrics.add("jobs_rejected")
                self.log.emit(
                    "rejected", reason="queue-full",
                    queue_depth=self._queued,
                    queue_limit=self.queue_limit,
                    trace_id=trace_id,
                )
                raise ServiceQueueFull(
                    f"job queue is full "
                    f"({self._queued}/{self.queue_limit} queued); "
                    f"retry later",
                    retry_after_s=1.0,
                )
            self._counter += 1
            job = Job(
                f"job-{self._counter}", doc, timeout_s=timeout_s,
                trace_id=trace_id, observer=self._on_job_event,
                request=request,
            )
            self._jobs[job.id] = job
            self._queued += 1
            self._evict_finished()
        self.metrics.add("jobs_submitted")
        self._queue.put(job)
        if job.deadline is not None:
            self._reaper_wake.set()
        return job

    def _evict_finished(self) -> None:
        """Forget the oldest terminal jobs beyond ``FINISHED_JOBS_KEPT``.

        The caller holds ``self._lock``.  An evicted id then answers
        like one never submitted ("unknown job", HTTP 404).
        """
        finished = [key for key, job in self._jobs.items() if job.done]
        for key in finished[: max(0, len(finished) - FINISHED_JOBS_KEPT)]:
            del self._jobs[key]

    def _on_job_event(self, job: Job, event: dict) -> None:
        """Mirror one job state transition into the structured log."""
        detail = {
            key: value
            for key, value in event.items()
            if key not in ("seq", "job", "state", "at")
        }
        self.log.emit(
            event["state"],
            trace_id=job.trace_id,
            job_id=job.id,
            job_seq=event["seq"],
            at=event["at"],
            **detail,
        )

    def cancel(self, job_id: str) -> Job:
        """Cancel a job; running work is discarded on completion."""
        job = self.get(job_id)
        if job.finish("cancelled", error="cancelled by client"):
            self.metrics.add("jobs_cancelled")
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job

    def jobs(self) -> list[Job]:
        with self._lock:
            return [
                self._jobs[key]
                for key in sorted(
                    self._jobs,
                    key=lambda k: int(k.rsplit("-", 1)[1]),
                )
            ]

    def uptime_seconds(self) -> float:
        """Monotonic seconds since this service object was created."""
        return time.monotonic() - self._started_monotonic

    def health(self) -> dict:
        """The ``/healthz`` document: liveness, depth, cache, SLOs."""
        from repro import __version__

        with self._lock:
            queued, running = self._queued, self._running
            active = [
                job.trace_id
                for job in self._jobs.values()
                if not job.done
            ]
        alive = sum(
            1 for thread in self._threads if thread.is_alive()
        )
        return {
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "uptime_seconds": self.uptime_seconds(),
            "queue_depth": queued,
            "queue_limit": self.queue_limit,
            "jobs_running": running,
            "workers": self.workers,
            "workers_alive": alive,
            "cache": self.cache.stats(),
            "slo": self.slo.snapshot(),
            "active_traces": active[:32],
        }

    def job_trace(self, job_id: str) -> dict:
        """One merged Chrome trace for *job_id* across every process.

        Combines the job's daemon-side lifecycle events (including
        supervised shard-retry events) with the spans its profiler
        recorded; the client merges its own spans in
        afterwards (``ServiceClient.job_trace``).  Loads directly in
        ``chrome://tracing``/Perfetto and in ``repro trace``.
        """
        job = self.get(job_id)
        with job.condition:
            events = list(job.events)
            spans = list(job.spans)
        return build_job_trace(
            trace_id=job.trace_id,
            job_id=job.id,
            events=events,
            spans=spans,
            submitted_at=job.submitted_at,
            finished_at=job.finished_at,
        )

    def metrics_exposition(self) -> str:
        """Prometheus text exposition, with live gauges refreshed.

        Counters and histograms accrue as work happens; point-in-time
        state (queue depth, liveness, uptime, SLO view, cache sizes)
        is mirrored into gauges here, at scrape time.
        """
        health = self.health()
        gauge = self.metrics.set_gauge
        gauge(
            "repro_service_queue_depth", health["queue_depth"],
            help="Accepted jobs not yet picked up by a worker.",
        )
        gauge(
            "repro_service_jobs_running", health["jobs_running"],
            help="Jobs currently executing.",
        )
        gauge(
            "repro_service_workers", health["workers"],
            help="Configured worker threads.",
        )
        gauge(
            "repro_service_workers_alive", health["workers_alive"],
            help="Worker threads currently alive.",
        )
        gauge(
            "repro_service_uptime_seconds", health["uptime_seconds"],
            help="Seconds since the service started.",
        )
        slo = health["slo"]
        for quantile in ("p50_s", "p90_s", "p99_s"):
            if slo.get(quantile) is not None:
                gauge(
                    "repro_service_job_latency_seconds",
                    slo[quantile],
                    labels={"quantile": quantile[:-2]},
                    help="Rolling job latency quantiles (SLO window).",
                )
        gauge(
            "repro_service_error_rate", slo["error_rate"],
            help="Windowed failed-job fraction.",
        )
        gauge(
            "repro_service_burn_alarm",
            1.0 if slo["burn_alarm"] else 0.0,
            help="1 when the error-rate burn alarm is tripped.",
        )
        for key, value in health["cache"].items():
            if isinstance(value, (int, float)):
                gauge(
                    "repro_service_cache_size",
                    value,
                    labels={"stat": key},
                    help="Result-cache sizes by statistic.",
                )
        return self.metrics.to_prometheus()

    def run_pending(self) -> None:
        """Drain the queue synchronously (test/CLI convenience)."""
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                return
            if job is not None:
                self._claim_and_execute(job)

    # -- execution ------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            self._claim_and_execute(job)

    def _claim_and_execute(self, job: Job) -> None:
        with self._lock:
            self._queued -= 1
            self._running += 1
        profiler = StageProfiler()
        if self.tracing:
            job.spans = profiler.spans
        try:
            profiler.record(
                "queued", job.submitted_at,
                max(0.0, time.time() - job.submitted_at),
            )
            # A job cancelled or timed out while queued is already
            # terminal: never start it.
            if job.overdue():
                if job.finish(
                    "timed_out",
                    error=f"deadline of {job.timeout_s}s exceeded "
                    f"while queued",
                ):
                    self.metrics.add("jobs_timed_out")
                return
            if job.start_running():
                self._execute(job, profiler)
        finally:
            for span in profiler.spans:
                if span["name"] in SERVICE_PHASES:
                    self.metrics.observe_stage(
                        span["name"], span["duration_s"]
                    )
            self._record_outcome(job)
            with self._idle:
                self._running -= 1
                self._idle.notify_all()

    def _execute(self, job: Job, profiler: StageProfiler) -> None:
        try:
            if job.document["kind"] == "verify":
                result = self._verify(job)
            else:
                result = self._simulate(job, profiler)
        except Exception as error:
            message = f"{type(error).__name__}: {error}"
            if job.finish("failed", error=message):
                self.metrics.add("jobs_failed")
                if not isinstance(error, ReproError):
                    traceback.print_exc()
            return
        # finish() is idempotent: if the reaper timed the job out (or
        # a client cancelled it) while we were simulating, this loses
        # the race and the late result is discarded.
        if job.finish("done", result=result):
            self.metrics.add("jobs_completed")

    def _record_outcome(self, job: Job) -> None:
        """Feed a finished job into the latency/SLO accounting."""
        if not job.done or job.finished_at is None:
            return
        latency = max(0.0, job.finished_at - job.submitted_at)
        kind = job.document.get("kind", "simulate")
        self.metrics.observe_job(kind, job.state, latency)
        if job.state != "cancelled":
            # A client cancel is neither a success nor an error burn.
            self.slo.record(latency, ok=job.state == "done")

    # -- deadline enforcement -------------------------------------------

    def _reap(self) -> None:
        """Move overdue jobs to ``timed_out``, queued or running."""
        while not self._reaper_stop.is_set():
            now = time.monotonic()
            horizon: "float | None" = None
            with self._lock:
                watched = [
                    job for job in self._jobs.values()
                    if job.deadline is not None and not job.done
                ]
            for job in watched:
                if job.overdue(now):
                    if job.finish(
                        "timed_out",
                        error=f"deadline of {job.timeout_s}s exceeded",
                    ):
                        self.metrics.add("jobs_timed_out")
                elif horizon is None or job.deadline < horizon:
                    horizon = job.deadline
            timeout = (
                None if horizon is None
                else max(0.0, horizon - time.monotonic())
            )
            self._reaper_wake.wait(timeout)
            self._reaper_wake.clear()

    # -- design construction -------------------------------------------

    def _design(self, doc: Mapping[str, Any]):
        from repro.htl.compiler import compile_program
        from repro.io import (
            architecture_from_dict,
            implementation_from_dict,
            specification_from_dict,
        )

        if "htl" in doc:
            spec = compile_program(
                str(doc["htl"]),
                functions=self.functions,
                conditions=self.conditions,
            ).specification()
        else:
            spec = specification_from_dict(
                doc["spec"], functions=self.functions
            )
        arch = architecture_from_dict(doc["arch"])
        impl = None
        if doc.get("impl") is not None:
            impl = implementation_from_dict(doc["impl"])
        return spec, arch, impl

    # -- pipelines ------------------------------------------------------

    def _verify(self, job: Job) -> dict:
        from repro.analysis import Verifier

        spec, arch, impl = self._design(job.document)
        fingerprint = Verifier.design_fingerprint(spec, arch, impl)
        cached = self.cache.get_verify(fingerprint)
        if cached is not None:
            self.metrics.add("verify_cache_hits")
            job.emit("cache", cache="hit")
            return {**cached, "cache": "hit"}
        self.metrics.add("verify_cache_misses")
        job.emit("cache", cache="miss")
        report = Verifier().verify(spec, arch, impl)
        doc = {
            "kind": "verify",
            "spec_hash": fingerprint[0],
            "arch_hash": fingerprint[1],
            "impl_hash": fingerprint[2],
            "feasible": report.feasible,
            "proved": report.proved,
            "summary": report.summary(),
            "report": report.to_dict(),
            "cache": "miss",
        }
        self.cache.store_verify(fingerprint, doc)
        return doc

    def _executor(self, shards: int):
        """The batch executor of a sharded simulate job."""
        if self.executor_factory is not None:
            return self.executor_factory(shards)
        from repro.service.supervision import (
            RetryPolicy,
            SupervisedShardedExecutor,
        )

        return SupervisedShardedExecutor(
            shards,
            policy=RetryPolicy(retries=self.shard_retries),
            deadline_s=self.shard_deadline_s,
        )

    def _note_shard_retries(self, job: Job, executor: Any) -> None:
        """Surface supervised retries on the job stream and counters."""
        events = getattr(executor, "retry_events", None) or ()
        for event in events:
            job.emit("shard-retry", **event.to_dict())
        if events:
            self.metrics.add("shard_retries", len(events))

    def _simulate(self, job: Job, profiler: StageProfiler) -> dict:
        """The simulate pipeline: plan, grow, store, persist, reply.

        :meth:`ResultCache.plan` finds the longest cached prefix of the
        requested batch, and one
        :meth:`~repro.runtime.batch.BatchSimulator.grow` call does the
        rest: a prefix already long enough is sliced (a hit), a shorter
        one is extended by its missing tail only (a partial), and no
        prefix simulates everything (a miss).  Every simulated chunk
        runs through the job's executor, so sharded tails are
        supervised and traced exactly like sharded misses.  The phases
        (``cache-lookup``, one ``simulate`` per chunk, ``merge``,
        ``persist``) are spans of *profiler*, the one the simulator's
        kernel stages and shards record into too.

        With ``adaptive: true``, ``runs`` is a budget: the batch grows
        along the stopping rule's checkpoint schedule, a convergence
        snapshot is taken at every boundary (and surfaced on the job
        event stream, the job document, and the metrics gauges), and
        the rule decides — from pooled counts only — whether to stop.
        Cached runs replay through the identical snapshot sequence, so
        a cache hit stops at exactly the run count a cold execution
        would have chosen, and the stored batch makes any later
        fixed-run request with ``runs <= stopped_at`` a prefix hit.
        """
        from repro.analysis import Verifier
        from repro.runtime.batch import BatchSimulator

        request = job.request
        assert request is not None  # submit parses every simulate job
        runs, iterations, seed = request.runs, request.iterations, request.seed
        spec, arch, impl = self._design(job.document)
        faults = request.faults(arch)
        fingerprint = Verifier.design_fingerprint(spec, arch, impl)
        key = McKey(
            *fingerprint,
            seed=seed,
            iterations=iterations,
            bernoulli=request.bernoulli,
            monitor_window=(
                None if request.monitor is None else request.monitor.window
            ),
            unplug=request.unplug,
        )
        executor = (
            self._executor(request.shards) if request.shards > 1 else None
        )

        with profiler.stage("cache-lookup"):
            kind, cached = self.cache.plan(key, runs)
        job.emit(
            "cache", cache=kind,
            cached_runs=0 if cached is None else cached.runs,
        )
        merging = contextlib.ExitStack()

        @contextlib.contextmanager
        def on_chunk(start: int, stop: int):
            job.emit("simulating", runs=stop - start, offset=start)
            with profiler.stage("simulate", run_start=start, run_stop=stop):
                yield
            if executor is not None:
                self._note_shard_retries(job, executor)
            if request.rule is None and cached is not None:
                # A fixed upgrade merges its one tail onto the prefix
                # right after this; grow returns when the merge is done.
                job.emit(
                    "merging", cached_runs=start, tail_runs=stop - start
                )
                merging.enter_context(profiler.stage("merge"))

        def on_snapshot(snapshot, decision) -> None:
            job.convergence = snapshot.to_dict()
            job.emit(
                "checkpoint",
                run=snapshot.run,
                decided=snapshot.decided(),
                max_rel_half_width=snapshot.max_rel_half_width(),
                stop=decision.stop,
            )
            self._record_convergence_gauges(snapshot)

        with merging:
            growth = BatchSimulator(
                spec, arch, impl,
                faults=faults,
                seed=seed,
                profiler=profiler,
                executor=executor,
            ).grow(
                runs, iterations, prefix=cached, rule=request.rule,
                monitor=request.monitor, on_chunk=on_chunk,
                on_snapshot=on_snapshot,
            )
        adaptive = growth.adaptive
        if adaptive is not None:
            if adaptive.runs_saved:
                self.metrics.add("adaptive_stops")
                self.metrics.add("adaptive_runs_saved", adaptive.runs_saved)
            job.emit(
                "stopping",
                run=adaptive.stopped_at,
                reason=adaptive.decision.reason,
                runs_saved=adaptive.runs_saved,
            )
        if not growth.simulated:
            outcome = "hit"
        elif cached is not None:
            outcome = "partial"
        else:
            outcome = "miss"
        self.metrics.add(_OUTCOME_COUNTERS[outcome])
        if growth.simulated:
            self.metrics.add("runs_simulated_total", growth.simulated)
            # The cache keeps the longest computed batch: any later
            # request with runs <= growth.batch.runs is a prefix hit.
            self.cache.store(key, growth.batch)
        result = growth.result
        with profiler.stage("persist"):
            entry = None
            if self.ledger is not None:
                entry = self.ledger.append(request.record(
                    spec, arch, impl, result, "batch", adaptive
                ))
                job.emit("ledger", entry=entry)
        averages = result.limit_averages()
        rates = {
            name: float(averages[name].mean())
            for name in sorted(averages)
        }
        return {
            "kind": "simulate",
            "spec_hash": key.spec_hash,
            "arch_hash": key.arch_hash,
            "impl_hash": key.impl_hash,
            "seed": seed,
            "runs": result.runs,
            "iterations": iterations,
            "executor": result.executor,
            "cache": outcome,
            "simulated_runs": growth.simulated,
            **({} if adaptive is None else {"adaptive": adaptive.to_dict()}),
            "rates": rates,
            "lrcs": dict(sorted(result.lrcs.items())),
            "satisfied": bool(result.satisfies_lrcs(slack=request.slack)),
            "monitor_events": len(result.monitor_events),
            "ledger_entry": entry,
        }

    def _record_convergence_gauges(self, snapshot) -> None:
        """Mirror one snapshot into the ``/metrics`` gauges.

        Labelled by communicator only (not by job) to keep label
        cardinality bounded; concurrent adaptive jobs overwrite each
        other last-writer-wins, which is the usual Prometheus gauge
        semantics for "most recent observation".
        """
        for diag in snapshot.diagnostics:
            labels = {"communicator": diag.communicator}
            self.metrics.set_gauge(
                "repro_service_convergence_half_width",
                diag.half_width,
                labels=labels,
                help="Clopper-Pearson interval half-width at the "
                "latest adaptive checkpoint.",
            )
            self.metrics.set_gauge(
                "repro_service_convergence_rel_half_width",
                diag.rel_half_width,
                labels=labels,
                help="Relative interval half-width at the latest "
                "adaptive checkpoint.",
            )
            self.metrics.set_gauge(
                "repro_service_convergence_margin",
                diag.margin,
                labels=labels,
                help="Empirical LRC margin at the latest adaptive "
                "checkpoint.",
            )
