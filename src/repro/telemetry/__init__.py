"""Unified telemetry: tracing, metrics, and profiling.

Three pillars over one subscriber protocol
(:class:`~repro.telemetry.sink.InstrumentationSink`):

* **Tracing** — :class:`~repro.telemetry.trace.Tracer` records
  hierarchical spans (run → iteration → task release) and instants
  (sensor updates, accesses, votes, broadcasts, resilience events)
  with both wall and logical clocks, exported as Chrome trace-event
  JSON (Perfetto) or JSONL; summarised offline by
  :mod:`repro.telemetry.summary`.
* **Metrics** — :class:`~repro.telemetry.metrics.MetricsRegistry`
  (counters/gauges/histograms) with snapshot and Prometheus text
  exposition, fed online by
  :class:`~repro.telemetry.metrics.MetricsSink` and offline by
  :func:`~repro.telemetry.metrics.record_batch_result` /
  :func:`~repro.telemetry.metrics.record_margins`.
* **Profiling** — :class:`~repro.telemetry.profiler.StageProfiler`
  is the one recorder of timed intervals: it records one epoch-stamped
  span per batch-kernel stage, supervised shard and service job
  phase (shard workers ship theirs home next to the result).  The CLI
  ``--profile`` table, the service's ``/metrics`` stage histogram and
  the job's Chrome trace
  (:func:`~repro.telemetry.distributed.build_job_trace`) all read that
  one span list; :data:`~repro.telemetry.profiler.NULL_PROFILER` is
  the free default.
* **Forensics** — :class:`~repro.telemetry.provenance.
  ProvenanceRecorder` keeps a bounded flight recorder and freezes a
  causal chain (fault source → replicas → vote → write → downstream)
  per unreliable write; :mod:`repro.telemetry.postmortem` aggregates
  chains into blame scores and answers counterfactual queries.
* **The run ledger** — :class:`~repro.telemetry.ledger.RunLedger`
  persists per-run empirical rates and LRC margins as append-only
  JSONL keyed by content hashes, powering
  ``repro runs list|show|diff|regress``.

Event streams are correlated across layers by the
:func:`~repro.telemetry.runid.derive_run_id` key and merged on the
:class:`~repro.telemetry.bus.TelemetryBus`.  The whole package is
zero-dependency and observer-only: attaching telemetry never changes
simulation draws (the PR 2 seed contract is regression-tested in
``tests/test_telemetry.py``).
"""

from repro.telemetry.bus import TelemetryBus
from repro.telemetry.convergence import (
    AdaptiveResult,
    CommunicatorDiagnostics,
    ConvergenceSnapshot,
    StopDecision,
    StoppingRule,
    checkpoint_schedule,
    snapshot_from_counts,
)
from repro.telemetry.distributed import (
    TRACE_ENV,
    TRACE_HEADER,
    build_job_trace,
    client_span_record,
    merge_client_events,
    mint_trace_id,
    tracing_enabled,
)
from repro.telemetry.ledger import (
    MarginDiff,
    Regression,
    RunLedger,
    RunRecord,
    check_regression,
    content_hash,
    diff_records,
    record_from_result,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSink,
    record_batch_result,
    record_margins,
)
from repro.telemetry.profiler import (
    NULL_PROFILER,
    NullProfiler,
    StageProfiler,
)
from repro.telemetry.postmortem import (
    BlameEntry,
    CounterfactualReport,
    PostmortemReport,
    blame_scores,
    counterfactual,
    load_forensics_file,
    postmortem_to_dict,
    render_postmortem,
)
from repro.telemetry.provenance import (
    CausalChain,
    FaultLink,
    InputStatus,
    IterationFrame,
    ProvenanceRecorder,
)
from repro.telemetry.runid import derive_run_id
from repro.telemetry.sink import (
    HOOK_NAMES,
    HookSinks,
    InstrumentationSink,
    NullSink,
    sinks_for_hook,
)
from repro.telemetry.summary import (
    TraceSummary,
    load_trace_file,
    render_summary,
    summarize_trace,
)
from repro.telemetry.trace import TraceEvent, Tracer

__all__ = [
    "AdaptiveResult",
    "BlameEntry",
    "CausalChain",
    "CommunicatorDiagnostics",
    "ConvergenceSnapshot",
    "Counter",
    "CounterfactualReport",
    "FaultLink",
    "Gauge",
    "HOOK_NAMES",
    "Histogram",
    "HookSinks",
    "InputStatus",
    "InstrumentationSink",
    "IterationFrame",
    "MarginDiff",
    "MetricsRegistry",
    "MetricsSink",
    "NULL_PROFILER",
    "NullProfiler",
    "NullSink",
    "PostmortemReport",
    "ProvenanceRecorder",
    "Regression",
    "RunLedger",
    "RunRecord",
    "StageProfiler",
    "StopDecision",
    "StoppingRule",
    "TRACE_ENV",
    "TRACE_HEADER",
    "TelemetryBus",
    "TraceEvent",
    "TraceSummary",
    "Tracer",
    "blame_scores",
    "build_job_trace",
    "check_regression",
    "checkpoint_schedule",
    "client_span_record",
    "content_hash",
    "counterfactual",
    "derive_run_id",
    "diff_records",
    "load_forensics_file",
    "load_trace_file",
    "merge_client_events",
    "mint_trace_id",
    "postmortem_to_dict",
    "record_batch_result",
    "record_from_result",
    "record_margins",
    "render_postmortem",
    "render_summary",
    "sinks_for_hook",
    "snapshot_from_counts",
    "summarize_trace",
    "tracing_enabled",
]
