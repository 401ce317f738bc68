"""Supervised shard execution: crash/hang detection and bounded retry.

:class:`SupervisedShardedExecutor` is the one sharded
:class:`~repro.runtime.executor.BatchExecutor`: it partitions a chunk
of a batch into contiguous shards
(:func:`~repro.runtime.executor.shard_slices`), executes them in
forked worker processes, and merges them back
(:func:`~repro.runtime.executor.merge_batch_results`).  Workers ship a
reduced picklable payload (count arrays + monitor events) back over a
pipe; the specification — which may hold unpicklable task lambdas —
never crosses the process boundary (workers inherit it via ``fork``).
Platforms without ``fork`` (or single-shard chunks) execute the shards
inline in the parent, through the identical slice/merge path.

A bare fork/merge would be fail-silent: a crashed worker aborts the
whole batch, and a hung worker blocks the parent forever.  The
executor therefore runs its shards in a supervision loop that

* detects worker *crash* (process death, pipe EOF), worker-reported
  *error*, and worker *hang* (a per-shard wall-clock deadline), and
* re-executes only the failed shard, with capped exponential backoff
  plus deterministic jitter, up to a bounded number of attempts.

Retried shards are **bit-identical** to their first execution by
construction: a shard's work is fully determined by its slice of the
``SeedSequence.spawn`` children, so replaying the slice replays the
exact same draws — supervision can never change a result, only rescue
it (asserted differentially in ``tests/test_supervision.py``).

Every retry surfaces as a typed :class:`ShardRetryEvent`, appended to
the attached :class:`~repro.telemetry.bus.TelemetryBus` (and kept on
``executor.retry_events``), so operators see *that* a fault happened
even though the answer is unchanged.

The module also defines the :class:`ChaosAction` / :class:`WorkerFaults`
fault-injection surface the :mod:`repro.chaos` harness drives: the
parent asks the plan for an action per ``(shard, attempt)`` and ships
it to the worker, which kills, hangs, or slows itself accordingly.
Production use simply leaves ``chaos=None``.

This module reads wall clocks (deadlines, backoff sleeps) and is on
the determinism-lint allowlist; clocks never reach simulation state.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, Sequence

import numpy as np

from repro.errors import RuntimeSimulationError
from repro.runtime.batch import BatchResult
from repro.runtime.executor import merge_batch_results, shard_slices
from repro.telemetry.profiler import SHARD_SPAN, span_record

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.monitor import MonitorConfig
    from repro.runtime.batch import BatchSimulator
    from repro.telemetry.bus import TelemetryBus

#: Sleep used by an injected "hang": far beyond any sane deadline, so
#: the supervisor's terminate is what ends the worker.
HANG_SLEEP_S = 3600.0


@dataclass(frozen=True)
class ShardRetryEvent:
    """One supervised re-execution of a failed shard.

    ``reason`` is ``"crash"`` (process died / pipe EOF), ``"hang"``
    (per-shard deadline exceeded, worker killed), or ``"error"`` (the
    worker reported an exception).  ``attempt`` is the 0-based attempt
    that failed; the retry that follows is attempt ``attempt + 1``.
    """

    shard: int
    attempt: int
    reason: str
    detail: str = ""
    delay_s: float = 0.0
    run_start: int = 0
    run_stop: int = 0
    #: Replay-order key parity with resilience events (no run index).
    run: "int | None" = field(default=None, kw_only=True)
    #: Epoch timestamp of the retry decision (distributed tracing);
    #: 0.0 means "unstamped" and is dropped from the dict form so the
    #: serialized shape is unchanged for pre-tracing consumers.
    noted_at: float = field(default=0.0, kw_only=True)

    kind = "shard-retry"

    def to_dict(self) -> dict:
        doc = {"kind": self.kind}
        doc.update(asdict(self))
        if doc["run"] is None:
            del doc["run"]
        if not doc["noted_at"]:
            del doc["noted_at"]
        return doc


@dataclass(frozen=True)
class ChaosAction:
    """A fault the chaos harness injects into one worker attempt.

    ``kind`` is ``"kill"`` (hard ``os._exit``), ``"hang"`` (sleep past
    any deadline until terminated), ``"slow"`` (sleep ``delay_s`` then
    run normally), or ``"error"`` (raise inside the worker).
    """

    kind: str
    delay_s: float = 0.0


class WorkerFaults(Protocol):
    """A chaos plan consulted once per ``(shard, attempt)`` launch."""

    def action(
        self, shard: int, attempt: int
    ) -> "ChaosAction | None":
        ...


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with capped exponential backoff and jitter.

    ``retries`` is the number of *re*-executions allowed per shard
    (``retries=2`` means at most 3 attempts).  Delays grow as
    ``base_delay_s * 2**(attempt-1)`` capped at ``max_delay_s``, then
    stretched by up to ``jitter`` (a fraction) of deterministic,
    shard/attempt-derived noise — reproducible, yet de-synchronised
    across shards.
    """

    retries: int = 2
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise RuntimeSimulationError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise RuntimeSimulationError("backoff delays must be >= 0")

    def delay(self, shard: int, attempt: int) -> float:
        """Backoff before retry number *attempt* (1-based) of *shard*."""
        if attempt < 1:
            return 0.0
        base = min(
            self.max_delay_s,
            self.base_delay_s * (2.0 ** (attempt - 1)),
        )
        return base * (1.0 + self.jitter * _unit_noise(shard, attempt))


def _unit_noise(shard: int, attempt: int) -> float:
    """Deterministic pseudo-uniform value in ``[0, 1)``.

    Hash-derived so backoff jitter needs no RNG state (and therefore
    cannot perturb any seeded simulation stream).
    """
    digest = hashlib.sha256(
        f"shard-backoff:{shard}:{attempt}".encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(2**64)


@dataclass
class _ShardPayload:
    """The picklable slice result a worker ships back to the parent.

    Deliberately *not* a :class:`BatchResult`: the specification may
    hold task lambdas that cannot cross a pipe.  Everything here is
    plain arrays, ints, and frozen event dataclasses.
    """

    runs: int
    reliable_counts: dict[str, np.ndarray]
    samples_per_run: dict[str, int]
    executor: str
    monitor_events: tuple
    #: The worker's span dicts: its kernel stage spans and its
    #: ``shard`` span.  They ride NEXT TO the batch data, never inside
    #: it, so merge — and therefore the bit-identity contract — is
    #: unaffected by them.
    spans: list


def _payload_of(result: BatchResult, spans: list) -> _ShardPayload:
    return _ShardPayload(
        runs=result.runs,
        reliable_counts=result.reliable_counts,
        samples_per_run=result.samples_per_run,
        executor=result.executor,
        monitor_events=result.monitor_events,
        spans=spans,
    )


def _result_of(payload: _ShardPayload, simulator: "BatchSimulator",
               iterations: int) -> BatchResult:
    return BatchResult(
        spec=simulator.spec,
        runs=payload.runs,
        iterations=iterations,
        reliable_counts=payload.reliable_counts,
        samples_per_run=payload.samples_per_run,
        executor=payload.executor,
        monitor_events=tuple(payload.monitor_events),
    )


def _fork_context() -> "Any | None":
    """The fork multiprocessing context, or ``None`` when unsupported."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def _run_shard(simulator, children, iterations, monitor, offset):
    """Run one shard's slice; return the result and its new spans.

    The spans are those ``simulator.profiler`` recorded during the
    slice plus one ``shard`` span around it.  The shard span is timed
    here rather than through ``simulator.profiler.stage``, so a
    profiler sees the slice's own stages and nothing wrapped around
    them.
    """
    profiler = simulator.profiler
    first = len(profiler.spans)
    started_at = time.time()
    result = simulator.run_slice(
        children, iterations, monitor, run_offset=offset,
    )
    spans = profiler.spans[first:]
    spans.append(
        span_record(
            SHARD_SPAN, started_at, time.time() - started_at,
            run_start=offset, run_stop=offset + len(children),
            worker_pid=os.getpid(),
        )
    )
    return result, spans


def _supervised_worker(
    simulator, children, iterations, monitor, offset, conn, action,
):
    """Entry point of one supervised shard worker.

    Applies the optional injected *action* before (or instead of) the
    real work.  A failed attempt ships no spans: only the attempt that
    succeeds does, so a retried shard still yields exactly one
    ``shard`` span and one set of stage spans.
    """
    try:
        if action is not None:
            if action.kind == "kill":
                conn.close()
                os._exit(17)
            if action.kind == "hang":
                time.sleep(
                    action.delay_s if action.delay_s > 0
                    else HANG_SLEEP_S
                )
            elif action.kind == "slow":
                time.sleep(action.delay_s)
            elif action.kind == "error":
                raise RuntimeSimulationError(
                    "chaos: injected worker error"
                )
        result, spans = _run_shard(
            simulator, children, iterations, monitor, offset
        )
        conn.send(("ok", _payload_of(result, spans)))
    except BaseException as error:  # ship the failure to the parent
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


class _ShardState:
    """Supervision bookkeeping of one shard across its attempts."""

    def __init__(
        self, index: int, start: int, stop: int, offset: int = 0
    ) -> None:
        self.index = index
        self.start = start
        self.stop = stop
        #: Global run index of the chunk's first run (nonzero for a
        #: cache-upgrade tail or a later adaptive chunk);
        #: ``offset + start`` is this shard's global first run.
        self.offset = offset
        self.attempt = 0
        self.process: Any = None
        self.conn: Any = None
        self.deadline_at: "float | None" = None
        self.result: "BatchResult | None" = None

    def stamp(self, spans: list) -> list:
        """*spans*, stamped with this shard and its current attempt.

        Workers don't know which attempt they are; stamping happens
        parent-side, so the surviving spans name the rescue attempt.
        """
        for span in spans:
            span["shard"] = self.index
            span["attempt"] = self.attempt
        return spans

    def kill(self) -> None:
        """Best-effort terminate of a live worker."""
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self.conn = None
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
            if self.process.is_alive():  # pragma: no cover - stuck
                self.process.kill()
                self.process.join(timeout=5.0)
        self.process = None


class SupervisedShardedExecutor:
    """Fan one batch chunk out over forked workers that survive crash,
    hang, and transient error.

    Parameters
    ----------
    jobs:
        Worker shard count (>= 1).  ``jobs=1`` degenerates to the
        serial path without forking.
    policy:
        :class:`RetryPolicy` bounding re-executions and backoff.
    deadline_s:
        Per-shard wall-clock deadline; a worker still silent past it
        is killed and retried.  ``None`` disables hang detection
        (crash/error supervision still applies).
    processes:
        ``False`` (or a platform without ``fork``) executes shards
        inline with the same retry loop around each slice.
    telemetry:
        Optional bus; :class:`ShardRetryEvent` instances are appended
        live, and the merged result's monitor events, in run order,
        go to it after completion, so subscribers observe the stream
        an unsharded run would have produced.
    chaos:
        Optional :class:`WorkerFaults` plan (testing/chaos only).

    Every shard's successful attempt adds its spans to
    ``simulator.profiler``, stamped with ``shard`` and ``attempt``:
    one ``shard`` span around the slice and, from a forked worker, the
    stage spans its copy of the profiler recorded.  Failed attempts
    ship nothing, so a kill/retry still leaves exactly one ``shard``
    span per shard.
    """

    name = "supervised"

    def __init__(
        self,
        jobs: int,
        policy: "RetryPolicy | None" = None,
        deadline_s: "float | None" = None,
        processes: bool = True,
        telemetry: "TelemetryBus | None" = None,
        chaos: "WorkerFaults | None" = None,
    ) -> None:
        if jobs < 1:
            raise RuntimeSimulationError(
                f"jobs must be >= 1, got {jobs}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise RuntimeSimulationError(
                f"deadline_s must be > 0, got {deadline_s}"
            )
        self.jobs = jobs
        self.policy = policy or RetryPolicy()
        self.deadline_s = deadline_s
        self.processes = processes
        self.telemetry = telemetry
        self.chaos = chaos
        #: Retry events of the most recent :meth:`execute` call.
        self.retry_events: list[ShardRetryEvent] = []

    # -- the BatchExecutor protocol -------------------------------------

    def execute(
        self,
        simulator: "BatchSimulator",
        children: "Sequence[np.random.SeedSequence]",
        iterations: int,
        monitor: "MonitorConfig | None" = None,
        *,
        run_offset: int = 0,
    ) -> BatchResult:
        self.retry_events = []
        slices = shard_slices(len(children), self.jobs)
        context = _fork_context() if self.processes else None
        if not slices:
            return simulator.run_slice(
                children, iterations, monitor, run_offset=run_offset
            )
        if len(slices) <= 1 or context is None:
            shards = [
                self._execute_inline(
                    simulator, children, iterations, monitor,
                    index, start, stop, run_offset,
                )
                for index, (start, stop) in enumerate(slices)
            ]
        else:
            shards = self._supervise(
                context, simulator, children, iterations, monitor,
                slices, run_offset,
            )
        merged = merge_batch_results(shards)
        if self.telemetry is not None:
            self.telemetry.extend(merged.monitor_events)
        return merged

    # -- retry bookkeeping ----------------------------------------------

    def _note_retry(
        self, state: _ShardState, reason: str, detail: str,
        delay: float,
    ) -> None:
        event = ShardRetryEvent(
            shard=state.index,
            attempt=state.attempt,
            reason=reason,
            detail=detail,
            delay_s=delay,
            run_start=state.offset + state.start,
            run_stop=state.offset + state.stop,
            noted_at=time.time(),
        )
        self.retry_events.append(event)
        if self.telemetry is not None:
            self.telemetry.append(event)

    def _give_up(self, state: _ShardState, detail: str) -> None:
        first = state.offset + state.start
        last = state.offset + state.stop - 1
        raise RuntimeSimulationError(
            f"shard {state.index} (runs {first}..{last})"
            f" failed after {state.attempt + 1} attempt(s): {detail}"
        )

    # -- inline path -----------------------------------------------------

    def _execute_inline(
        self, simulator, children, iterations, monitor,
        index, start, stop, run_offset=0,
    ) -> BatchResult:
        state = _ShardState(index, start, stop, offset=run_offset)
        while True:
            action = (
                self.chaos.action(state.index, state.attempt)
                if self.chaos is not None else None
            )
            try:
                if action is not None and action.kind in (
                    "kill", "hang", "error",
                ):
                    # Inline, every injected fault class degenerates
                    # to a raised error (there is no process to kill).
                    raise RuntimeSimulationError(
                        f"chaos: injected {action.kind}"
                    )
                if action is not None and action.kind == "slow":
                    time.sleep(action.delay_s)
                result, spans = _run_shard(
                    simulator, children[start:stop], iterations,
                    monitor, run_offset + start,
                )
                # The stage spans are already on the profiler; only
                # the shard span is new to it.
                simulator.profiler.extend(state.stamp(spans)[-1:])
                return result
            except RuntimeSimulationError as error:
                if state.attempt >= self.policy.retries:
                    self._give_up(state, str(error))
                delay = self.policy.delay(
                    state.index, state.attempt + 1
                )
                self._note_retry(state, "error", str(error), delay)
                if delay > 0:
                    time.sleep(delay)
                state.attempt += 1

    # -- process path ----------------------------------------------------

    def _launch(self, context, simulator, children, iterations,
                monitor, state: _ShardState) -> None:
        action = (
            self.chaos.action(state.index, state.attempt)
            if self.chaos is not None else None
        )
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_supervised_worker,
            args=(
                simulator, children[state.start:state.stop],
                iterations, monitor, state.offset + state.start,
                child_conn, action,
            ),
        )
        process.start()
        child_conn.close()
        state.process = process
        state.conn = parent_conn
        state.deadline_at = (
            None if self.deadline_s is None
            else time.monotonic() + self.deadline_s
        )

    def _supervise(
        self, context, simulator, children, iterations, monitor,
        slices, run_offset=0,
    ) -> list[BatchResult]:
        from multiprocessing.connection import wait as conn_wait

        states = [
            _ShardState(index, start, stop, offset=run_offset)
            for index, (start, stop) in enumerate(slices)
        ]
        try:
            for state in states:
                self._launch(
                    context, simulator, children, iterations, monitor,
                    state,
                )
            #: Shards sleeping out a backoff: (wake_at, state).
            parked: list[tuple[float, _ShardState]] = []
            while True:
                active = {
                    state.conn: state
                    for state in states
                    if state.conn is not None
                }
                if not active and not parked:
                    break
                now = time.monotonic()
                # Wake parked shards whose backoff elapsed.
                due = [s for wake, s in parked if wake <= now]
                parked = [
                    (wake, s) for wake, s in parked if wake > now
                ]
                for state in due:
                    self._launch(
                        context, simulator, children, iterations,
                        monitor, state,
                    )
                    active[state.conn] = state
                # Earliest thing worth waking for: a shard deadline
                # or a parked retry.
                horizons = [
                    state.deadline_at
                    for state in active.values()
                    if state.deadline_at is not None
                ] + [wake for wake, _ in parked]
                timeout = (
                    None if not horizons
                    else max(0.0, min(horizons) - now)
                )
                if active:
                    ready = conn_wait(
                        list(active), timeout=timeout
                    )
                elif timeout:  # all shards parked: sleep it out
                    time.sleep(timeout)
                    ready = []
                else:
                    ready = []
                for conn in ready:
                    state = active[conn]
                    try:
                        status, payload = conn.recv()
                    except EOFError:
                        self._retire(state, "crash",
                                     "worker died before replying",
                                     parked)
                        continue
                    if status == "ok":
                        state.result = _result_of(
                            payload, simulator, iterations
                        )
                        simulator.profiler.extend(
                            state.stamp(payload.spans)
                        )
                        conn.close()
                        state.conn = None
                        state.process.join()
                        state.process = None
                    else:
                        self._retire(state, "error", str(payload),
                                     parked)
                # Hang detection: anyone past their deadline?
                now = time.monotonic()
                for state in list(active.values()):
                    if (
                        state.conn is not None
                        and state.deadline_at is not None
                        and state.deadline_at <= now
                    ):
                        self._retire(
                            state, "hang",
                            f"no reply within {self.deadline_s}s "
                            f"deadline", parked,
                        )
        except BaseException:
            for state in states:
                state.kill()
            raise
        return [state.result for state in states]

    def _retire(
        self, state: _ShardState, reason: str, detail: str,
        parked: "list[tuple[float, _ShardState]]",
    ) -> None:
        """Kill a failed attempt and park the shard for retry."""
        state.kill()
        if state.attempt >= self.policy.retries:
            self._give_up(state, f"{reason}: {detail}")
        delay = self.policy.delay(state.index, state.attempt + 1)
        self._note_retry(state, reason, detail, delay)
        state.attempt += 1
        parked.append((time.monotonic() + delay, state))
