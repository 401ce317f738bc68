"""The chaos harness body: seeded schedule, storm driver, invariants.

The harness runs the *real* service stack — a
:class:`~http.server.ThreadingHTTPServer` bound to a
:class:`~repro.service.jobs.ReliabilityService`, driven through
:class:`~repro.service.client.ServiceClient` over loopback HTTP — and
injects faults from a :class:`ChaosSchedule` derived entirely from one
integer seed.  Draws are sha256-hash-based (no RNG object, no hidden
state), so a schedule is a pure function of ``(seed, site)`` and any
failure replays exactly.

This module reads wall clocks (phase timestamps in the event log,
overall safety deadlines) and is on the determinism-lint allowlist;
clocks never influence which faults are injected.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.service.client import ServiceClient
from repro.service.jobs import (
    FINISHED_JOBS_KEPT,
    TERMINAL_STATES,
    ReliabilityService,
)
from repro.service.server import make_server
from repro.service.supervision import (
    ChaosAction,
    RetryPolicy,
    SupervisedShardedExecutor,
)
from repro.service.top import parse_prometheus, scrape_metrics


def _draw(seed: int, *site: Any) -> float:
    """Deterministic pseudo-uniform in ``[0, 1)`` for one fault site."""
    tag = ":".join(str(part) for part in (seed, *site))
    digest = hashlib.sha256(tag.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") / float(2**64)


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos storm (all derived faults come from *seed*)."""

    seed: int = 0
    #: Unique simulate documents per wave (distinct seeds → misses).
    unique_jobs: int = 3
    #: Extra duplicate submissions per wave (cache hits under fire).
    duplicate_jobs: int = 2
    waves: int = 2
    runs: int = 4
    iterations: int = 8
    shards: int = 2
    workers: int = 2
    queue_limit: int = 3
    shard_retries: int = 2
    shard_deadline_s: float = 1.5
    #: Worker-fault probabilities on a shard's first attempt; later
    #: attempts use a quarter of these, and the final allowed attempt
    #: is never faulted, so supervised jobs always converge.
    kill_rate: float = 0.35
    hang_rate: float = 0.2
    slow_rate: float = 0.2
    error_rate: float = 0.15
    #: Hard ceiling on the whole storm (safety net, not a tuning knob).
    storm_timeout_s: float = 300.0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ReproError(f"seed must be >= 0, got {self.seed}")
        for name in (
            "unique_jobs", "waves", "runs", "iterations", "shards",
            "workers", "queue_limit",
        ):
            if getattr(self, name) < 1:
                raise ReproError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.duplicate_jobs < 0:
            raise ReproError(
                f"duplicate_jobs must be >= 0, "
                f"got {self.duplicate_jobs}"
            )
        if self.storm_jobs > FINISHED_JOBS_KEPT:
            # The post-storm tally looks up every job it submitted.
            raise ReproError(
                f"a storm of {self.storm_jobs} jobs exceeds the "
                f"{FINISHED_JOBS_KEPT} finished jobs the service keeps"
            )

    @property
    def storm_jobs(self) -> int:
        """Jobs one storm submits: every wave, its upgrades, 2 extras."""
        per_wave = self.unique_jobs + self.duplicate_jobs
        upgrades = (self.waves - 1) * self.unique_jobs
        return self.waves * per_wave + upgrades + 2


class ChaosSchedule:
    """Every injected fault, as a pure function of the config seed."""

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config

    def worker_action(
        self, salt: int, shard: int, attempt: int
    ) -> "ChaosAction | None":
        """Fault plan of one shard attempt (``salt`` varies per batch)."""
        config = self.config
        if attempt >= config.shard_retries:
            return None  # the last allowed attempt always succeeds
        scale = 1.0 if attempt == 0 else 0.25
        u = _draw(config.seed, "worker", salt, shard, attempt)
        edge = config.kill_rate * scale
        if u < edge:
            return ChaosAction("kill")
        edge += config.hang_rate * scale
        if u < edge:
            return ChaosAction("hang")
        edge += config.slow_rate * scale
        if u < edge:
            return ChaosAction(
                "slow",
                delay_s=0.05
                + 0.2 * _draw(config.seed, "slow", salt, shard),
            )
        edge += config.error_rate * scale
        if u < edge:
            return ChaosAction("error")
        return None

    def pick(self, site: str, index: int, count: int) -> int:
        """Deterministically choose one of ``count`` targets."""
        return int(_draw(self.config.seed, site, index) * count)


class ScheduledFaults:
    """Adapter binding one batch's salt to the schedule.

    The :class:`~repro.service.supervision.SupervisedShardedExecutor`
    chaos hook only sees ``(shard, attempt)``; the salt makes distinct
    batches draw distinct faults.
    """

    def __init__(self, schedule: ChaosSchedule, salt: int) -> None:
        self.schedule = schedule
        self.salt = salt

    def action(
        self, shard: int, attempt: int
    ) -> "ChaosAction | None":
        return self.schedule.worker_action(self.salt, shard, attempt)


class _EventLog:
    """Append-only JSONL log of everything the harness did and saw."""

    def __init__(self, path: "Path | None") -> None:
        self.path = path
        self.events: list[dict] = []
        self._lock = threading.Lock()
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("")

    def note(self, kind: str, **detail: Any) -> None:
        event = {"at": time.time(), "kind": kind, **detail}
        with self._lock:
            self.events.append(event)
            if self.path is not None:
                with self.path.open("a") as handle:
                    handle.write(json.dumps(event) + "\n")


@dataclass
class ChaosReport:
    """Outcome of one storm: counters plus the invariant verdicts."""

    seed: int
    jobs_submitted: int = 0
    states: dict = field(default_factory=dict)
    shard_retries: int = 0
    rejected_submissions: int = 0
    cache_files_corrupted: int = 0
    ledger_lines_injected: int = 0
    quarantined: dict = field(default_factory=dict)
    invariants: dict = field(default_factory=dict)
    event_log: "str | None" = None

    @property
    def ok(self) -> bool:
        return bool(self.invariants) and all(
            verdict["ok"] for verdict in self.invariants.values()
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}

    def summary(self) -> str:
        lines = [
            f"chaos storm (seed {self.seed}): "
            f"{self.jobs_submitted} jobs, "
            f"{self.shard_retries} shard retries, "
            f"{self.rejected_submissions} queue rejections, "
            f"{self.cache_files_corrupted} cache files corrupted, "
            f"{self.ledger_lines_injected} ledger lines injected",
            "states: " + ", ".join(
                f"{state}={count}"
                for state, count in sorted(self.states.items())
            ),
        ]
        for name, verdict in sorted(self.invariants.items()):
            flag = "PASS" if verdict["ok"] else "FAIL"
            detail = verdict.get("detail", "")
            lines.append(
                f"  [{flag}] {name}" + (f" — {detail}" if detail else "")
            )
        return "\n".join(lines)


def _design_documents() -> dict:
    from repro.experiments import (
        three_tank_architecture,
        three_tank_spec,
    )
    from repro.experiments.three_tank_system import (
        baseline_implementation,
    )
    from repro.io import (
        architecture_to_dict,
        implementation_to_dict,
        specification_to_dict,
    )

    spec = three_tank_spec(lrc_u=0.99, functions=_functions())
    return {
        "spec": specification_to_dict(spec),
        "arch": architecture_to_dict(three_tank_architecture()),
        "impl": implementation_to_dict(baseline_implementation()),
    }


def _functions() -> dict:
    from repro.experiments import bind_control_functions

    return bind_control_functions()


def _simulate_document(
    config: ChaosConfig, design: dict, seed: int, **extra: Any
) -> dict:
    return {
        "kind": "simulate",
        "runs": config.runs,
        "iterations": config.iterations,
        "seed": seed,
        "jobs": config.shards,
        **design,
        **extra,
    }


def _corrupt_cache_files(
    cache_dir: Path, schedule: ChaosSchedule, log: _EventLog
) -> int:
    """Truncate one spill file and garble another (if present)."""
    files = sorted(cache_dir.glob("*.json"))
    if not files:
        return 0
    corrupted = 0
    victim = files[schedule.pick("cache-truncate", 0, len(files))]
    data = victim.read_bytes()
    victim.write_bytes(data[: len(data) // 2])
    log.note("corrupt-cache", file=victim.name, mode="truncate")
    corrupted += 1
    rest = [f for f in files if f != victim]
    if rest:
        victim = rest[schedule.pick("cache-garble", 1, len(rest))]
        data = bytearray(victim.read_bytes())
        mid = len(data) // 2
        for offset in range(mid, min(mid + 16, len(data))):
            data[offset] ^= 0xFF
        victim.write_bytes(bytes(data))
        log.note("corrupt-cache", file=victim.name, mode="garble")
        corrupted += 1
    return corrupted


def _corrupt_ledger(
    ledger_dir: Path, log: _EventLog
) -> int:
    """Simulate crashed writers: a garbage line and a torn append."""
    path = ledger_dir / "ledger.jsonl"
    injected = 0
    with path.open("a") as handle:
        handle.write('{"run_id": "chaos-garbage", "broken": tru\n')
        injected += 1
        handle.write('{"run_id": "chaos-torn-append"')  # no newline
        injected += 1
    log.note("corrupt-ledger", lines=injected)
    return injected


def run_chaos(
    config: "ChaosConfig | None" = None,
    out_dir: "str | Path | None" = None,
) -> ChaosReport:
    """Run one seeded storm and check the fleet's guarantees.

    Starts a real HTTP service with chaos-wrapped supervised
    executors, floods it (unique + duplicate jobs, from the second
    wave on ``runs`` upgrades of the previous wave's seeds whose tails
    run sharded, a doomed-deadline job, a cancelled job), corrupts
    cache and ledger files between waves, waits for quiescence, and
    verifies:

    ``terminal-states``
        Every submitted job reached a terminal state.
    ``bit-identical-results``
        Every ``done`` job's rates equal the fault-free reference
        for its document (computed afterwards on a clean service).
    ``ledger-durability``
        The ledger still yields one intact record per persisted job;
        quarantine removed only the injected garbage.
    ``observability``
        A mid-storm ``/metrics`` scrape is valid Prometheus text
        whose ``repro_service_shard_retries_total`` agrees with the
        service's own counter, and a retried job yields one merged
        Chrome trace with spans under a single trace id.

    Writes ``chaos-events.jsonl``, ``chaos-report.json``,
    ``service-log.jsonl`` (the daemon's structured log),
    ``metrics.prom`` (the scraped exposition), and
    ``job-trace.json`` (the merged trace of a retried job) under
    *out_dir* when given.
    """
    config = config or ChaosConfig()
    out_path = None if out_dir is None else Path(out_dir)
    log = _EventLog(
        None if out_path is None
        else out_path / "chaos-events.jsonl"
    )
    schedule = ChaosSchedule(config)
    report = ChaosReport(seed=config.seed)
    if log.path is not None:
        report.event_log = str(log.path)

    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        scratch_path = Path(scratch)
        cache_dir = scratch_path / "cache"
        ledger_dir = scratch_path / "ledger"
        cache_dir.mkdir()
        ledger_dir.mkdir()

        batch_counter = {"next": 0}
        counter_lock = threading.Lock()

        def executor_factory(shards: int) -> SupervisedShardedExecutor:
            with counter_lock:
                salt = batch_counter["next"]
                batch_counter["next"] += 1
            return SupervisedShardedExecutor(
                shards,
                policy=RetryPolicy(
                    retries=config.shard_retries,
                    base_delay_s=0.02,
                    max_delay_s=0.2,
                ),
                deadline_s=config.shard_deadline_s,
                chaos=ScheduledFaults(schedule, salt),
            )

        service = ReliabilityService(
            workers=config.workers,
            ledger=str(ledger_dir),
            functions=_functions(),
            queue_limit=config.queue_limit,
            cache_dir=str(cache_dir),
            executor_factory=executor_factory,
            log=(
                None if out_path is None
                else str(out_path / "service-log.jsonl")
            ),
        ).start()
        server = make_server(service)
        server_thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        server_thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(
            host, port, retries=12, backoff_s=0.05
        )
        log.note(
            "storm-start", seed=config.seed, port=port,
            config=asdict(config),
        )

        design = _design_documents()
        job_ids: list[str] = []
        submit_errors: list[str] = []
        deadline = time.monotonic() + config.storm_timeout_s

        def submit(doc: dict) -> None:
            try:
                reply = client.submit(doc)
                job_ids.append(reply["id"])
                log.note(
                    "submitted", job=reply["id"],
                    trace=reply.get("trace_id"),
                    seed=doc.get("seed"),
                    timeout_s=doc.get("timeout_s"),
                )
            except ReproError as error:
                submit_errors.append(str(error))
                log.note("submit-failed", error=str(error))

        try:
            for wave in range(config.waves):
                log.note("wave-start", wave=wave)
                docs = []
                for k in range(config.unique_jobs):
                    docs.append(
                        _simulate_document(
                            config, design,
                            seed=100 * wave + k,
                        )
                    )
                for k in range(config.duplicate_jobs):
                    docs.append(
                        _simulate_document(
                            config, design,
                            seed=100 * wave
                            + schedule.pick(
                                "dup", wave * 10 + k,
                                config.unique_jobs,
                            ),
                        )
                    )
                if wave:
                    # Upgrade the previous wave's seeds: cache
                    # partials whose tails run sharded under fire.
                    for k in range(config.unique_jobs):
                        docs.append(
                            _simulate_document(
                                config, design,
                                seed=100 * (wave - 1) + k,
                                runs=2 * config.runs,
                            )
                        )
                # Flood concurrently so the bounded queue pushes back.
                threads = [
                    threading.Thread(target=submit, args=(doc,))
                    for doc in docs
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()

                if wave == 0:
                    # A job that cannot make its deadline ...
                    doomed = _simulate_document(
                        config, design, seed=7777,
                        runs=max(16, 4 * config.runs),
                        timeout_s=0.05,
                    )
                    submit(doomed)
                    # ... and one cancelled right after submission.
                    victim = _simulate_document(
                        config, design, seed=8888,
                    )
                    try:
                        reply = client.submit(victim)
                        job_ids.append(reply["id"])
                        client.cancel(reply["id"])
                        log.note("cancelled", job=reply["id"])
                    except ReproError as error:
                        submit_errors.append(str(error))

                # Let the wave land, then corrupt persistent state.
                _wait_quiescent(client, job_ids, deadline)
                report.cache_files_corrupted += _corrupt_cache_files(
                    cache_dir, schedule, log
                )
                report.ledger_lines_injected += _corrupt_ledger(
                    ledger_dir, log
                )

            _wait_quiescent(client, job_ids, deadline)

            # Scrape the live daemon's Prometheus exposition while
            # the storm's counters are still on the wire (the
            # ``observability`` invariant parses it below).
            scrape_error = ""
            scrape_type = ""
            scrape_body = ""
            try:
                status, scrape_type, scrape_body = scrape_metrics(
                    host, port
                )
                if status != 200:
                    scrape_error = f"/metrics replied HTTP {status}"
            except ReproError as error:
                scrape_error = str(error)
            log.note(
                "metrics-scraped",
                content_type=scrape_type,
                bytes=len(scrape_body),
                error=scrape_error or None,
            )
        finally:
            server.shutdown()
            server.server_close()
            service.stop()

        report.jobs_submitted = len(job_ids)
        jobs = {job_id: service.get(job_id) for job_id in job_ids}
        for job in jobs.values():
            report.states[job.state] = (
                report.states.get(job.state, 0) + 1
            )
            log.note(
                "job-terminal", job=job.id, state=job.state,
                error=job.error,
            )
        report.shard_retries = service.metrics.get("shard_retries")
        report.rejected_submissions = service.metrics.get(
            "jobs_rejected"
        )
        report.quarantined = {
            "cache": service.metrics.get("cache_corrupt_quarantined"),
            "submit_errors": len(submit_errors),
        }

        # -- invariant 1: every job terminated --------------------------
        stuck = [
            job.id for job in jobs.values()
            if job.state not in TERMINAL_STATES
        ]
        report.invariants["terminal-states"] = {
            "ok": not stuck,
            "detail": (
                f"all {len(jobs)} jobs terminal" if not stuck
                else f"non-terminal jobs: {stuck}"
            ),
        }

        # -- invariant 2: surviving results are bit-identical ------------
        reference = ReliabilityService(
            workers=1, functions=_functions()
        )
        mismatches = []
        checked = 0
        for job in jobs.values():
            if job.state != "done":
                continue
            doc = dict(job.document)
            doc.pop("timeout_s", None)
            ref_job = reference.submit(doc)
            reference.run_pending()
            if ref_job.state != "done":  # pragma: no cover - setup bug
                mismatches.append(
                    f"{job.id}: reference failed ({ref_job.error})"
                )
                continue
            checked += 1
            if ref_job.result["rates"] != job.result["rates"]:
                mismatches.append(
                    f"{job.id}: rates diverge from fault-free run"
                )
        report.invariants["bit-identical-results"] = {
            "ok": not mismatches,
            "detail": (
                f"{checked} completed jobs match the fault-free "
                f"reference" if not mismatches
                else "; ".join(mismatches)
            ),
        }

        # -- invariant 3: the ledger kept every committed record ---------
        from repro.telemetry import RunLedger

        ledger = RunLedger(str(ledger_dir))
        records = ledger.records()
        committed = [
            job for job in jobs.values()
            if job.state == "done"
            and job.result.get("ledger_entry") is not None
        ]
        run_ids = {record.run_id for record in records}
        missing = [
            job.id for job in committed
            if f"s{job.document['seed']}" not in run_ids
        ]
        problems = []
        if len(records) < len(committed):
            problems.append(
                f"{len(committed)} committed but only "
                f"{len(records)} intact records"
            )
        if missing:
            problems.append(f"records missing for: {missing}")
        if any(
            record.run_id.startswith("chaos-") for record in records
        ):  # pragma: no cover - would be a parser bug
            problems.append("injected garbage surfaced as a record")
        report.invariants["ledger-durability"] = {
            "ok": not problems,
            "detail": (
                f"{len(records)} intact records cover all "
                f"{len(committed)} committed jobs "
                f"({ledger.quarantined} quarantined)"
                if not problems else "; ".join(problems)
            ),
        }
        report.quarantined["ledger"] = ledger.quarantined

        # -- invariant 4: the storm stayed observable --------------------
        problems = []
        exposition: dict = {}
        if scrape_error:
            problems.append(scrape_error)
        elif "text/plain" not in scrape_type:
            problems.append(
                f"/metrics Content-Type not Prometheus text: "
                f"{scrape_type!r}"
            )
        else:
            try:
                exposition = parse_prometheus(scrape_body)
            except ReproError as error:
                problems.append(f"exposition unparseable: {error}")
        if exposition:
            scraped_retries = sum(
                value for _, value in exposition.get(
                    "repro_service_shard_retries_total", []
                )
            )
            if int(scraped_retries) != report.shard_retries:
                problems.append(
                    f"scraped shard_retries_total "
                    f"{scraped_retries:.0f} != service counter "
                    f"{report.shard_retries}"
                )
        # One merged Chrome trace for a job that survived a retry
        # (falling back to any completed job on a fault-free seed).
        traced = next(
            (
                job for job in jobs.values()
                if job.state == "done" and any(
                    event.get("state") == "shard-retry"
                    for event in job.events
                )
            ),
            next(
                (
                    job for job in jobs.values()
                    if job.state == "done"
                ),
                None,
            ),
        )
        trace_doc: "dict | None" = None
        if traced is None:
            problems.append("no completed job to trace")
        else:
            trace_doc = service.job_trace(traced.id)
            trace_ids = {
                event.get("args", {}).get("trace_id")
                for event in trace_doc.get("traceEvents", [])
                if event.get("ph") != "M"
            }
            if not trace_doc.get("traceEvents"):
                problems.append(f"job {traced.id} trace is empty")
            elif trace_ids != {traced.trace_id}:
                problems.append(
                    f"trace of {traced.id} mixes trace ids: "
                    f"{sorted(str(t) for t in trace_ids)}"
                )
        report.invariants["observability"] = {
            "ok": not problems,
            "detail": (
                f"exposition parsed ({len(exposition)} metrics), "
                f"retry counter consistent, traced job "
                f"{traced.id if traced else '?'}"
                if not problems else "; ".join(problems)
            ),
        }

    log.note("storm-end", ok=report.ok)
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        if scrape_body:
            (out_path / "metrics.prom").write_text(scrape_body)
        if trace_doc is not None:
            (out_path / "job-trace.json").write_text(
                json.dumps(trace_doc, indent=2, sort_keys=True)
                + "\n"
            )
        (out_path / "chaos-report.json").write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True)
            + "\n"
        )
    return report


def _wait_quiescent(
    client: ServiceClient, job_ids: list[str], deadline: float
) -> None:
    """Poll until every known job is terminal (or the storm times out)."""
    while time.monotonic() < deadline:
        jobs = {job["id"]: job for job in client.jobs()}
        pending = [
            job_id for job_id in job_ids
            if jobs.get(job_id, {}).get("state")
            not in TERMINAL_STATES
        ]
        if not pending:
            return
        time.sleep(0.1)
