"""The traced run: split each job's wall time across the program's layers.

After the live timed phase, the benchmark replays the daemon's job
sequence, in the daemon's job order, through an in-process
``ReliabilityService`` (the daemon's own pipeline code) while its own
spans wrap the public functions of each layer.  Shard workers forked
by the supervised executor record their spans to a spill file that the
parent reads after each job; every other span stays in memory.

A job's wall time ``W`` (client ``submit`` to answer) then splits into

* ``server.http_s`` — ``W`` minus the daemon's job span,
* ``jobs.queue_wait_s`` — the daemon's ``queued`` span,
* the exclusive time of every replayed layer span, and
* ``job.residual_s`` — whatever of ``W`` no layer covers.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Iterator
from unittest import mock

import repro.htl.compiler
import repro.io
import repro.runtime.batch
import repro.runtime.executor
import repro.runtime.faults
import repro.service.supervision
import repro.telemetry
from repro.analysis import Verifier
from repro.service import ReliabilityService
from repro.service.cache import ResultCache
from repro.service.supervision import SupervisedShardedExecutor
from repro.telemetry.ledger import RunLedger
from repro.telemetry.profiler import StageProfiler

from breakdown import exclusive_times, layer_totals
from catalog import PER_LAYER

#: ``StageProfiler`` stage of ``BatchSimulator`` -> layer name.
STAGE_LAYERS = {
    "plan-compile": "plan.compile",
    "fault-precompute": "faults.precompute",
    "status-collapse": "batch.status_collapse",
    "propagate": "batch.propagate",
    "reduce": "batch.reduce",
    "monitor": "batch.monitor",
    "scalar-fallback": "batch.scalar_fallback",
}

#: Layers whose spans do the simulation kernel's work.
KERNEL_LAYERS = (
    "batch.status_collapse", "batch.propagate", "batch.reduce",
    "batch.monitor", "batch.scalar_fallback",
)

#: Layers whose exclusive time goes by another name in the breakdown.
#: What the supervised executor spends outside its shards and merge is
#: its overhead.
#: The root span's own time is the service's job pipeline itself:
#: validation, events, result assembly.
EXCLUSIVE_NAMES = {
    "job": "jobs.pipeline",
    "supervision.execute": "supervision.overhead",
}

class SpanRecorder:
    """Spans of the replay, kept in memory until :meth:`take`.

    Spans closed in a forked shard worker cannot reach the parent's
    memory, so they are appended, one JSON line each, to *spill*; the
    parent folds them in on :meth:`take`, after the workers ended.
    """

    def __init__(self, spill: Path) -> None:
        self.owner = os.getpid()
        self.spill = spill
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._serial = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        self._serial += 1
        record = {
            "id": f"{os.getpid()}:{self._serial}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "pid": os.getpid(),
            "start": time.perf_counter(),
        }
        self._stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if os.getpid() == self.owner:
                self.spans.append(record)
            else:
                line = (json.dumps(record) + "\n").encode()
                fd = os.open(
                    self.spill, os.O_WRONLY | os.O_APPEND | os.O_CREAT
                )
                try:
                    os.write(fd, line)
                finally:
                    os.close(fd)

    def annotate(self, **attrs: Any) -> None:
        """Attach *attrs* to the innermost open span."""
        if self.enabled and self._stack:
            self._stack[-1].update(attrs)

    def take(self) -> list[dict]:
        spans, self.spans = self.spans, []
        if self.spill.exists():
            with self.spill.open() as handle:
                spans.extend(json.loads(line) for line in handle)
            self.spill.unlink()
        return spans


class SpanProfiler(StageProfiler):
    """A ``StageProfiler`` whose stages become layer spans."""

    def __init__(self, recorder: SpanRecorder) -> None:
        super().__init__()
        self.recorder = recorder

    def stage(self, name: str):
        return self.recorder.span(STAGE_LAYERS.get(name, name))


def _wrap(recorder: SpanRecorder, layer: str, function: Callable):
    def traced(*args, **kwargs):
        with recorder.span(layer):
            return function(*args, **kwargs)

    return traced


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every layer's public entry points in spans of *recorder*."""
    targets = [
        (repro.io, "specification_from_dict", "jobs.design_load"),
        (repro.io, "architecture_from_dict", "jobs.design_load"),
        (repro.io, "implementation_from_dict", "jobs.design_load"),
        (repro.htl.compiler, "compile_program", "htl.compile"),
        (Verifier, "design_fingerprint", "jobs.fingerprint"),
        (Verifier, "verify", "analysis.verify"),
        (ResultCache, "plan", "cache.lookup"),
        (ResultCache, "get_verify", "cache.lookup"),
        (ResultCache, "store", "cache.store"),
        (ResultCache, "store_verify", "cache.store"),
        (repro.runtime.executor, "slice_batch_result", "cache.slice"),
        (repro.runtime.executor, "merge_batch_results", "executor.merge"),
        (repro.service.supervision, "merge_batch_results",
         "executor.merge"),
        (SupervisedShardedExecutor, "execute", "supervision.execute"),
        (repro.telemetry, "record_from_result", "ledger.append"),
        (RunLedger, "append", "ledger.append"),
    ]
    base_simulator = repro.runtime.batch.BatchSimulator
    base_faults = repro.runtime.faults.BernoulliFaults

    class TracedSimulator(base_simulator):
        def __init__(self, *args, **kwargs):
            kwargs["profiler"] = SpanProfiler(recorder)
            super().__init__(*args, **kwargs)

        def run_slice(self, *args, **kwargs):
            with recorder.span("batch.run_slice"):
                return super().run_slice(*args, **kwargs)

    class TracedFaults(base_faults):
        def precompute(self, *args, **kwargs):
            masks = super().precompute(*args, **kwargs)
            if masks is not None:
                recorder.annotate(
                    mask_bytes=sum(
                        mask.nbytes
                        for mask in masks.sensor_fail + masks.replica_fail
                    )
                )
            return masks

    with contextlib.ExitStack() as stack:
        for owner, name, layer in targets:
            raw = inspect.getattr_static(owner, name)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(_wrap(recorder, layer, raw.__func__))
            else:
                wrapped = _wrap(recorder, layer, raw)
            stack.enter_context(mock.patch.object(owner, name, wrapped))
        stack.enter_context(
            mock.patch.object(
                repro.runtime.batch, "BatchSimulator", TracedSimulator
            )
        )
        stack.enter_context(
            mock.patch.object(
                repro.runtime.faults, "BernoulliFaults", TracedFaults
            )
        )
        yield


def replay(jobs, traced_ids, functions, workdir: Path) -> dict:
    """Replay ``(Job, reply)`` pairs in daemon order; spans per traced id.

    Jobs outside *traced_ids* are replayed unrecorded so the replay's
    cache and ledger reach the daemon's state.  Raises when a replayed
    job fails or reports another cache outcome than the daemon's.
    """
    recorder = SpanRecorder(workdir / "shard-spans.jsonl")
    service = ReliabilityService(
        ledger=str(workdir / "replay-ledger"), functions=functions
    )
    ordered = sorted(
        jobs, key=lambda pair: int(pair[1]["id"].rsplit("-", 1)[1])
    )
    spans: dict[str, list[dict]] = {}
    with instrument(recorder):
        for job, reply in ordered:
            recorder.enabled = reply["id"] in traced_ids
            with recorder.span("job"):
                replayed = service.submit(job.doc)
                service.run_pending()
            recorder.enabled = False
            if replayed.state != "done":
                raise RuntimeError(
                    f"replay of {reply['id']} {replayed.state}: "
                    f"{replayed.error}"
                )
            if replayed.result["cache"] != job.outcome:
                raise RuntimeError(
                    f"replay of {reply['id']} was a cache "
                    f"{replayed.result['cache']}, not {job.outcome}"
                )
            if reply["id"] in traced_ids:
                spans[reply["id"]] = recorder.take()
    service.stop()
    return spans


def daemon_spans(trace: dict) -> tuple[float, float]:
    """(job span, queued span) seconds from a daemon job trace."""
    job = queued = None
    for event in trace["traceEvents"]:
        if event.get("ph") != "X":
            continue
        if event.get("cat") == "job":
            job = event["dur"] / 1e6
        elif event.get("name") == "queued":
            queued = event["dur"] / 1e6
    if job is None or queued is None:
        raise RuntimeError("daemon trace lacks its job or queued span")
    return job, queued


def job_rows(samples, spans_by_id, traces) -> list[tuple]:
    """``(sample, spans, row)`` per traced job; the row holds seconds.

    The row's entries are the exclusive seconds of every layer, HTTP,
    queue wait and residual, which sum to the job's wall time.
    """
    rows = []
    for sample in samples:
        job_id = sample.reply["id"]
        spans = spans_by_id[job_id]
        daemon_s, queued_s = daemon_spans(traces[job_id])
        totals = layer_totals(spans, exclusive_times(spans))
        row = {
            f"{EXCLUSIVE_NAMES.get(layer, layer)}_s": seconds
            for layer, seconds in totals.items()
        }
        row["server.http_s"] = sample.latency - daemon_s
        row["jobs.queue_wait_s"] = queued_s
        row["job.residual_s"] = daemon_s - queued_s - sum(totals.values())
        rows.append((sample, spans, row))
    return rows


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(rows, counters: dict, overhead: dict) -> dict:
    """Every per-layer metric of one traced run, as ``name -> value``.

    *counters* are the daemon's ``/metrics`` deltas over the timed
    phase plus ``jobs``, the jobs it ran; *overhead* holds the traced
    rounds' throughput loss and its untraced base.
    """
    count = len(rows)
    metrics = {
        name: sum(row.get(name, 0.0) for _, _, row in rows) / count
        for name in PER_LAYER
    }
    metrics["job.wall_s"] = sum(s.latency for s, _, _ in rows) / count
    executes, busy, skews = 0.0, 0.0, []
    compiles, mask_bytes, kernel_s, kernel_work = 0, 0, 0.0, 0
    for sample, spans, _ in rows:
        pids = {span["id"]: span["pid"] for span in spans}
        # A shard is a slice run in another process than its caller.
        shards = [
            span for span in spans
            if span["name"] == "batch.run_slice"
            and pids.get(span["parent"], span["pid"]) != span["pid"]
        ]
        busy += sum(_duration(span) for span in shards)
        for execute in spans:
            if execute["name"] != "supervision.execute":
                continue
            executes += _duration(execute)
            durations = [
                _duration(span) for span in shards
                if span["parent"] == execute["id"]
            ]
            if durations:
                skews.append(max(durations) * len(durations)
                             / sum(durations) - 1)
        compiles += sum(1 for s in spans if s["name"] == "plan.compile")
        mask_bytes += sum(s.get("mask_bytes", 0) for s in spans)
        kernel_s += sum(
            _duration(s) for s in spans if s["name"] in KERNEL_LAYERS
        )
        kernel_work += sample.job.simulated * sample.job.doc.get(
            "iterations", 0
        )
    simulate_jobs = max(
        1,
        counters["mc_cache_hits"] + counters["mc_cache_partial"]
        + counters["mc_cache_misses"],
    )
    metrics.update(
        {
            "supervision.execute_s": executes / count,
            "supervision.shard_busy_s": busy / count,
            "supervision.shard_skew": (
                sum(skews) / len(skews) if skews else 0.0
            ),
            "supervision.retries": counters["shard_retries"]
            / counters["jobs"],
            "plan.compiles_per_job": compiles / count,
            "faults.mask_mb": mask_bytes / count / 2**20,
            "batch.kernel_run_iters_per_s": (
                kernel_work / kernel_s if kernel_s else 0.0
            ),
            "cache.hit_frac": counters["mc_cache_hits"] / simulate_jobs,
            "cache.partial_frac": counters["mc_cache_partial"]
            / simulate_jobs,
            "cache.miss_frac": counters["mc_cache_misses"] / simulate_jobs,
            "cache.simulated_runs_per_job": counters["runs_simulated_total"]
            / simulate_jobs,
            "trace.overhead_frac": overhead["frac"],
            "trace.base_jobs_per_s": overhead["base_jobs_per_s"],
        }
    )
    return metrics


def render_table(workload: str, rows) -> str:
    """Mean seconds per job by layer; the rows sum to the job wall."""
    count = len(rows)
    totals: dict[str, float] = {}
    for _, _, row in rows:
        for name, seconds in row.items():
            totals[name] = totals.get(name, 0.0) + seconds
    wall = sum(sample.latency for sample, _, _ in rows) / count
    lines = [
        f"breakdown of {workload}: mean over {count} traced jobs",
        f"  {'layer':<28}{'s/job':>12}{'share':>8}  should move",
    ]
    for name, total in sorted(totals.items(), key=lambda kv: -kv[1]):
        mean = total / count
        moves = PER_LAYER.get(name, ("", ""))[1]
        lines.append(
            f"  {name:<28}{mean:>12.6f}{100 * mean / wall:>7.1f}%  {moves}"
        )
    lines.append(f"  {'sum of rows':<28}{sum(totals.values()) / count:>12.6f}")
    lines.append(f"  {'job.wall_s':<28}{wall:>12.6f}")
    return "\n".join(lines)
