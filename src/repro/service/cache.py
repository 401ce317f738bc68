"""Result memoization for the reliability service.

The cache is keyed by *content*, not by request text: the service
rebuilds the design objects from the submitted JSON and hashes their
canonical ``to_dict`` forms through the ledger's
:func:`~repro.telemetry.ledger.content_hash` — so two clients
submitting the same design with different key order or ``40.0`` vs
``40`` spellings share one cache line (guarded by the canonicalisation
tests in ``tests/test_ledger.py``).

Monte-Carlo entries store the *full* :class:`BatchResult` at the
largest ``runs`` ever computed for the key.  Because batch run ``k``
is seeded by ``SeedSequence(seed).spawn(runs)[k]`` and spawn keys are
prefix-stable, a smaller ``runs`` query is exactly a prefix slice of
the stored result, and a larger one only needs the missing tail of
children simulated and merged.  :meth:`ResultCache.plan` classifies a
query into ``hit`` / ``partial`` / ``miss`` accordingly.

Both kinds of entry — Monte-Carlo batches (``"mc"``) and verify
reports (``"verify"``) — go through one store path:

* **LRU bound** — each kind keeps its own in-memory LRU of at most
  ``max_entries`` entries (default :data:`CACHE_ENTRIES`); the
  least-recently-used ones are evicted
  (never the one just stored) and counted as
  ``<kind>_cache_evictions`` through the attached
  :class:`ServiceMetrics`.
* **Crash-safe persistence** — with a ``root`` directory, every
  stored entry is spilled to one file, ``<kind>-<key hash>.json``,
  written atomically (temp file + rename via
  :func:`~repro.telemetry.ledger.write_atomic`) as a sealed record
  (:func:`~repro.telemetry.ledger.seal`, the run ledger's line
  format).  A memory miss thaws the file (``<kind>_cache_disk_hits``);
  a truncated, garbled, unchecked or foreign file is quarantined to
  ``<name>.corrupt`` and treated as a cache miss — a half-written
  cache can cost a recomputation, never a wrong answer or a crash.
  Memory eviction keeps the disk copy, so a bounded memory cache
  still answers from disk.  An ``mc`` file holds the batch's LRCs,
  per-run counts and its monitor events as columns
  (``monitor_events``, :meth:`MonitorEvents.to_dict
  <repro.resilience.events.MonitorEvents.to_dict>`); a file of an
  older format (no ``lrcs``, or events as a list of event objects)
  fails to thaw once, is quarantined, and its entry is recomputed.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.telemetry.ledger import (
    content_hash,
    seal,
    unseal,
    write_atomic,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.batch import BatchResult

#: Default in-memory LRU bound per entry kind, matching the service's
#: ``FINISHED_JOBS_KEPT``: a long-lived daemon's cache stays bounded
#: unless its deployment sets another bound.
CACHE_ENTRIES = 256


@dataclass(frozen=True)
class McKey:
    """Everything that determines a Monte-Carlo batch bit-for-bit.

    Two queries with equal keys denote the same simulation, so any
    prefix of one is a prefix of the other — the invariant the
    hit/partial/miss logic rests on.  The fault model is the
    request's whole one: ``bernoulli`` and the sorted ``unplug``
    outages of :class:`~repro.request.SimulateRequest`.
    """

    spec_hash: str
    arch_hash: str
    impl_hash: "str | None"
    seed: int
    iterations: int
    bernoulli: bool
    monitor_window: "int | None"
    unplug: "tuple[tuple[str, int], ...]" = ()


#: Legacy flat counter name → (registry metric name, labels, help).
#: The flat names are the service's stable JSON contract (`/metrics`
#: default shape, chaos invariants, acceptance tests); the registry
#: names are what Prometheus scrapes see.  The flat shape is kept,
#: although Prometheus text is the source of truth, because
#: ``ServiceClient.metrics()`` and the service benchmark's
#: cache-outcome check (``perfbench/run.py``) read it.
_LEGACY_COUNTERS: dict[str, tuple[str, tuple, str]] = {
    **{
        f"jobs_{event}": (
            "repro_service_jobs_total",
            (("event", event),),
            "Jobs by lifecycle event.",
        )
        for event in (
            "submitted", "completed", "failed", "timed_out",
            "cancelled", "rejected",
        )
    },
    **{
        f"mc_cache_{legacy}": (
            "repro_service_cache_events_total",
            (("cache", "mc"), ("outcome", outcome)),
            "Cache lookups and evictions by outcome.",
        )
        for legacy, outcome in (
            ("hits", "hit"), ("partial", "partial"), ("misses", "miss"),
        )
    },
    "mc_cache_evictions": (
        "repro_service_cache_events_total",
        (("cache", "mc"), ("outcome", "eviction")),
        "Cache lookups and evictions by outcome.",
    ),
    "mc_cache_disk_hits": (
        "repro_service_cache_events_total",
        (("cache", "mc"), ("outcome", "disk_hit")),
        "Cache lookups and evictions by outcome.",
    ),
    "verify_cache_disk_hits": (
        "repro_service_cache_events_total",
        (("cache", "verify"), ("outcome", "disk_hit")),
        "Cache lookups and evictions by outcome.",
    ),
    "verify_cache_hits": (
        "repro_service_cache_events_total",
        (("cache", "verify"), ("outcome", "hit")),
        "Cache lookups and evictions by outcome.",
    ),
    "verify_cache_misses": (
        "repro_service_cache_events_total",
        (("cache", "verify"), ("outcome", "miss")),
        "Cache lookups and evictions by outcome.",
    ),
    "verify_cache_evictions": (
        "repro_service_cache_events_total",
        (("cache", "verify"), ("outcome", "eviction")),
        "Cache lookups and evictions by outcome.",
    ),
    "cache_corrupt_quarantined": (
        "repro_service_cache_corrupt_quarantined_total",
        (),
        "Corrupt cache files quarantined on load.",
    ),
    "shard_retries": (
        "repro_service_shard_retries_total",
        (),
        "Supervised shard worker retries.",
    ),
    "runs_simulated_total": (
        "repro_service_runs_simulated",
        (),
        "Monte-Carlo runs actually simulated (cache hits excluded).",
    ),
}


class ServiceMetrics:
    """Thread-safe service metrics over the PR 4 ``MetricsRegistry``.

    The PR 7/8 facade API is preserved exactly — ``add``/``get``/
    ``snapshot`` over the flat counter names the acceptance tests and
    chaos invariants read (a repeated identical job must bump
    ``mc_cache_hits`` while leaving ``runs_simulated_total`` unchanged;
    a runs upgrade must add only the delta) — but the storage is a
    :class:`~repro.telemetry.metrics.MetricsRegistry`, which adds
    labelled counters, latency histograms (per endpoint, per job
    stage, per job outcome), gauges, and Prometheus text exposition
    (:meth:`to_prometheus`) on top of the same numbers.

    The registry itself is not internally locked; every touch goes
    through ``self._lock``.
    """

    def __init__(self, registry: "Any | None" = None) -> None:
        import threading

        from repro.telemetry.metrics import MetricsRegistry

        self._lock = threading.Lock()
        self.registry = registry or MetricsRegistry()
        self._legacy: dict[str, Any] = {}
        for name, (metric, labels, help_text) in (
            _LEGACY_COUNTERS.items()
        ):
            self._legacy[name] = self.registry.counter(
                metric, labels=dict(labels), help=help_text
            )

    # -- the legacy flat-counter API ------------------------------------

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            counter = self._legacy.get(name)
            if counter is None:
                counter = self.registry.counter(
                    f"repro_service_{name}_total"
                )
                self._legacy[name] = counter
            counter.inc(amount)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                name: int(counter.value)
                for name, counter in self._legacy.items()
            }

    def get(self, name: str) -> int:
        with self._lock:
            counter = self._legacy.get(name)
            return 0 if counter is None else int(counter.value)

    # -- the labelled / histogram layer ---------------------------------

    def observe_request(
        self, endpoint: str, method: str, status: int, seconds: float
    ) -> None:
        """Record one HTTP request (counter + latency histogram)."""
        with self._lock:
            self.registry.counter(
                "repro_service_requests_total",
                labels={
                    "endpoint": endpoint,
                    "method": method,
                    "status": str(status),
                },
                help="HTTP requests by endpoint, method, and status.",
            ).inc()
            self.registry.histogram(
                "repro_service_request_seconds",
                labels={"endpoint": endpoint},
                help="HTTP request latency.",
                unit="seconds",
            ).observe(seconds)

    def observe_stage(self, stage: str, seconds: float) -> None:
        """Record one job-pipeline stage duration."""
        with self._lock:
            self.registry.histogram(
                "repro_service_job_stage_seconds",
                labels={"stage": stage},
                help="Job pipeline stage latency.",
                unit="seconds",
            ).observe(seconds)

    def observe_job(
        self, kind: str, outcome: str, seconds: float
    ) -> None:
        """Record one finished job's submit-to-terminal latency."""
        with self._lock:
            self.registry.histogram(
                "repro_service_job_seconds",
                labels={"kind": kind, "outcome": outcome},
                help="Whole-job latency from submit to terminal state.",
                unit="seconds",
            ).observe(seconds)

    def set_gauge(
        self,
        name: str,
        value: float,
        labels: "dict[str, str] | None" = None,
        help: str = "",
    ) -> None:
        with self._lock:
            self.registry.gauge(name, labels=labels, help=help).set(value)

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every registered metric."""
        with self._lock:
            return self.registry.to_prometheus()


def _estimate_bytes(result: "BatchResult") -> int:
    """In-memory footprint of one cached batch result.

    The arrays' ``nbytes`` — per-run counts and the monitor-event
    columns — plus a flat 512 B for the objects around them.
    """
    size = 512  # object + dict overhead
    for counts in result.reliable_counts.values():
        size += int(counts.nbytes)
    return size + result.monitor_events.nbytes


def _key_document(kind: str, key: Any) -> Any:
    """The JSON form of a cache key, as its spill file records it."""
    if kind == "verify":
        return list(key)
    return {**asdict(key), "unplug": [list(pair) for pair in key.unplug]}


def _freeze(kind: str, value: Any) -> dict:
    """The spill-file fields of one entry (besides ``kind``/``key``)."""
    if kind == "verify":
        return {"report": value}
    return {
        # Pairs, not an object: sealing sorts object keys, and the
        # LRCs keep specification order.
        "lrcs": [[name, lrc] for name, lrc in value.lrcs.items()],
        "runs": int(value.runs),
        "iterations": int(value.iterations),
        "executor": value.executor,
        "samples_per_run": {
            name: int(count)
            for name, count in value.samples_per_run.items()
        },
        "counts": {
            name: [int(v) for v in counts]
            for name, counts in value.reliable_counts.items()
        },
        "monitor_events": value.monitor_events.to_dict(),
    }


def _thaw(kind: str, doc: dict) -> Any:
    """Rebuild the entry :func:`_freeze` wrote; raises if it cannot."""
    if kind == "verify":
        if not isinstance(doc["report"], dict):
            raise ValueError("verify report is not an object")
        return doc["report"]
    from repro.resilience.events import MonitorEvents
    from repro.runtime.batch import BatchResult

    return BatchResult(
        lrcs=dict(doc["lrcs"]),
        runs=int(doc["runs"]),
        iterations=int(doc["iterations"]),
        reliable_counts={
            name: np.asarray(values, dtype=np.int64)
            for name, values in doc["counts"].items()
        },
        samples_per_run={
            name: int(count)
            for name, count in doc["samples_per_run"].items()
        },
        executor=str(doc["executor"]),
        monitor_events=MonitorEvents.from_dict(doc["monitor_events"]),
    )


class ResultCache:
    """Memo of Monte-Carlo batches and verification reports.

    Parameters
    ----------
    max_entries:
        LRU bound per entry kind on the in-memory store (``None``
        means :data:`CACHE_ENTRIES`); it also sizes the on-disk spill
        budget.
    root:
        Optional spill directory for crash-safe persistence.
    metrics:
        Optional :class:`ServiceMetrics` receiving eviction /
        quarantine / disk-hit counters.
    """

    def __init__(
        self,
        max_entries: "int | None" = None,
        root: "str | Path | None" = None,
        metrics: "ServiceMetrics | None" = None,
    ) -> None:
        import threading

        if max_entries is None:
            max_entries = CACHE_ENTRIES
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self.root = None if root is None else Path(root)
        self.metrics = metrics
        self._lock = threading.Lock()
        #: One LRU store per kind: ``"mc"`` maps :class:`McKey` to
        #: :class:`BatchResult`, ``"verify"`` a design fingerprint to
        #: its report document.
        self._stores: "dict[str, OrderedDict[Any, Any]]" = {
            "mc": OrderedDict(),
            "verify": OrderedDict(),
        }

    def _bump(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.add(name, amount)

    # -- Monte-Carlo entries -------------------------------------------

    def plan(
        self, key: McKey, runs: int
    ) -> "tuple[str, BatchResult | None]":
        """Classify a query: ``(kind, cached)``.

        ``("hit", cached)`` — ``cached.runs >= runs``; slice, don't
        simulate.  ``("partial", cached)`` — simulate only runs
        ``cached.runs..runs-1`` and merge.  ``("miss", None)`` —
        simulate everything.  A memory miss falls through to the
        spill directory (when configured).
        """
        cached = self._lookup("mc", key)
        if cached is None:
            return "miss", None
        if cached.runs >= runs:
            return "hit", cached
        return "partial", cached

    def store(self, key: McKey, result: "BatchResult") -> None:
        """Store *result* if it extends the cached entry."""
        with self._lock:
            cached = self._stores["mc"].get(key)
            extends = cached is None or result.runs > cached.runs
        if extends:
            self._admit("mc", key, result, spill=True)

    # -- verification reports ------------------------------------------

    def get_verify(self, key: Any) -> "dict | None":
        return self._lookup("verify", key)

    def store_verify(self, key: Any, report: dict) -> None:
        self._admit("verify", key, report, spill=True)

    # -- the one store path ---------------------------------------------

    def _lookup(self, kind: str, key: Any) -> Any:
        """Memory hit, else disk thaw (admitted, not re-spilled)."""
        store = self._stores[kind]
        with self._lock:
            cached = store.get(key)
            if cached is not None:
                store.move_to_end(key)
                return cached
        if self.root is None:
            return None
        cached = self._load(kind, key)
        if cached is not None:
            self._bump(f"{kind}_cache_disk_hits")
            self._admit(kind, key, cached, spill=False)
        return cached

    def _admit(self, kind: str, key: Any, value: Any, spill: bool) -> None:
        """Insert into the kind's LRU, evict over-limit tails, spill."""
        store = self._stores[kind]
        evicted = 0
        with self._lock:
            store[key] = value
            store.move_to_end(key)
            # max_entries >= 1 and the new entry is last: never evicted.
            while len(store) > self.max_entries:
                store.popitem(last=False)
                evicted += 1
        if evicted:
            self._bump(f"{kind}_cache_evictions", evicted)
        if spill and self.root is not None:
            write_atomic(
                self._path(kind, key),
                seal({
                    "kind": kind,
                    "key": _key_document(kind, key),
                    **_freeze(kind, value),
                }),
            )
            self._trim_disk()

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Occupancy snapshot for ``/healthz``."""
        with self._lock:
            batches = list(self._stores["mc"].values())
            verify_entries = len(self._stores["verify"])
        doc = {
            "mc_entries": len(batches),
            "mc_bytes": sum(_estimate_bytes(batch) for batch in batches),
            "verify_entries": verify_entries,
        }
        if self.root is not None:
            doc["disk_entries"] = (
                len(list(self.root.glob("*.json")))
                if self.root.is_dir() else 0
            )
        return doc

    def __len__(self) -> int:
        with self._lock:
            return sum(len(store) for store in self._stores.values())

    # -- the spill directory --------------------------------------------

    def _path(self, kind: str, key: Any) -> Path:
        assert self.root is not None
        return self.root / (
            f"{kind}-{content_hash(_key_document(kind, key))}.json"
        )

    def _load(self, kind: str, key: Any) -> Any:
        """Thaw one spill file; quarantine whatever does not rebuild."""
        path = self._path(kind, key)
        if not path.exists():
            return None
        try:
            doc = unseal(path.read_text(encoding="utf-8"))
            if (
                doc is None
                or doc.get("kind") != kind
                or doc.get("key") != _key_document(kind, key)
            ):
                raise ValueError("corrupt or foreign spill file")
            return _thaw(kind, doc)
        except Exception:
            # Unreadable, unsealed, another key's file (a hash
            # collision) or schema drift: all take the same path.
            self._quarantine(path)
            return None

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt spill file aside and count it."""
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:  # pragma: no cover - already gone
            pass
        self._bump("cache_corrupt_quarantined")

    def _trim_disk(self) -> None:
        """Bound the spill directory, oldest files first.

        Disk is the capacity-extending tier behind the in-memory LRU,
        so its budget is deliberately much larger than
        ``max_entries`` — an evicted entry must still thaw from disk.
        """
        if self.root is None:
            return
        budget = max(64, 8 * self.max_entries)
        files = sorted(
            self.root.glob("*.json"),
            key=lambda p: (p.stat().st_mtime, p.name),
        )
        while len(files) > budget:
            victim = files.pop(0)
            try:
                victim.unlink()
            except OSError:  # pragma: no cover - concurrent removal
                pass
