"""The reliability service: cache semantics, persistence, HTTP API.

The acceptance contract: a repeated identical simulate job answers
from cache *without simulating* (asserted via the
``runs_simulated_total`` counter), a ``runs`` upgrade simulates only
the delta and replies bit-identically to a fresh full batch, and
every completed simulate job lands in the run ledger.  The HTTP tests
drive the whole loop — submit, follow events, read results — over a
real ``ThreadingHTTPServer`` on an ephemeral port.
"""

import json
import pathlib
import threading

import numpy as np
import pytest

from repro.errors import ReproError
from repro.experiments import (
    bind_control_functions,
    three_tank_architecture,
    three_tank_spec,
)
from repro.experiments.htl_sources import three_tank_htl
from repro.experiments.three_tank_system import baseline_implementation
from repro.io import (
    architecture_to_dict,
    implementation_to_dict,
    specification_to_dict,
)
from repro.resilience import MonitorConfig
from repro.runtime import BatchSimulator, BernoulliFaults
from repro.service import ReliabilityService
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.jobs import ServiceError
from repro.service.server import make_server
from repro.service.supervision import (
    ChaosAction,
    RetryPolicy,
    SupervisedShardedExecutor,
)
from repro.telemetry import RunLedger

FUNCTIONS = bind_control_functions()


def design_documents():
    spec = three_tank_spec(lrc_u=0.99, functions=FUNCTIONS)
    return {
        "spec": specification_to_dict(spec),
        "arch": architecture_to_dict(three_tank_architecture()),
        "impl": implementation_to_dict(baseline_implementation()),
    }


def simulate_document(runs=10, iterations=20, seed=5, **extra):
    document = {
        "kind": "simulate",
        "runs": runs,
        "iterations": iterations,
        "seed": seed,
        **design_documents(),
        **extra,
    }
    return document


def make_service(**kwargs):
    kwargs.setdefault("functions", FUNCTIONS)
    return ReliabilityService(**kwargs)


def run_job(service, document):
    job = service.submit(document)
    service.run_pending()
    assert job.state == "done", job.error
    return job


# ----------------------------------------------------------------------
# Submission validation.
# ----------------------------------------------------------------------


def test_submit_rejects_malformed_documents():
    service = make_service()
    with pytest.raises(ServiceError):
        service.submit({"kind": "nonsense", **design_documents()})
    with pytest.raises(ServiceError):
        service.submit({"kind": "simulate", "arch": {}})
    with pytest.raises(ServiceError):
        service.submit(simulate_document(runs=0))
    with pytest.raises(ServiceError):
        service.submit(simulate_document(iterations=-1))
    with pytest.raises(ServiceError):
        service.submit(simulate_document(jobs=0))
    with pytest.raises(ServiceError):
        service.submit(simulate_document(seed="abc"))
    document = simulate_document()
    del document["impl"]
    with pytest.raises(ServiceError):
        service.submit(document)
    with pytest.raises(ServiceError, match="JSON object"):
        service.submit(["not", "a", "document"])
    # JSON booleans and integers are typed strictly: "false" is not
    # false (bool() would make it true), and a window or slack that
    # does not parse is rejected here instead of failing the job later.
    for bad in (
        {"bernoulli": "false"},
        {"bernoulli": "0"},
        {"bernoulli": 0},
        {"runs": True},
        {"seed": -1},
        {"monitor_window": 0},
        {"monitor_window": "x"},
        {"slack": "abc"},
        {"slack": float("nan")},
        {"timeout_s": float("nan")},  # would never time out
        # Adaptive-only fields without "adaptive": true.
        {"min_runs": 8},
        {"sequential": "x"},
        {"stop_confidence": 7},
        # Unknown fields, never dropped (and never cached as if absent).
        {"iteration": 5},
        {"unplugged": [["h2", 0]]},
        # Outages are [host, time] pairs with an integer time >= 0.
        {"unplug": "h2:0"},
        {"unplug": [["h2", "0"]]},
        {"unplug": [["h2", -1]]},
    ):
        with pytest.raises(ServiceError):
            service.submit(simulate_document(**bad))
    assert service.metrics.get("jobs_submitted") == 0


@pytest.mark.parametrize(
    "setting",
    [
        {"shard_deadline_s": -1.0},
        {"default_timeout_s": -5.0},
        {"cache_entries": 0},
    ],
    ids=lambda setting: next(iter(setting)),
)
def test_service_rejects_settings_that_break_every_later_job(setting):
    (name,) = setting
    with pytest.raises(ServiceError, match=name):
        make_service(**setting)


def test_unknown_job_lookup_raises():
    with pytest.raises(ServiceError):
        make_service().get("job-999")


# ----------------------------------------------------------------------
# Cache semantics (the acceptance criteria).
# ----------------------------------------------------------------------


def test_repeated_job_answers_from_cache_without_simulating():
    service = make_service()
    first = run_job(service, simulate_document(runs=10))
    assert first.result["cache"] == "miss"
    assert service.metrics.get("runs_simulated_total") == 10

    second = run_job(service, simulate_document(runs=10))
    assert second.result["cache"] == "hit"
    assert second.result["simulated_runs"] == 0
    # The counter proves no new simulation happened.
    assert service.metrics.get("runs_simulated_total") == 10
    assert service.metrics.get("mc_cache_hits") == 1
    assert second.result["rates"] == first.result["rates"]


def test_runs_upgrade_simulates_only_the_delta():
    service = make_service()
    run_job(service, simulate_document(runs=8))
    assert service.metrics.get("runs_simulated_total") == 8
    upgraded = run_job(service, simulate_document(runs=20))
    assert upgraded.result["cache"] == "partial"
    assert upgraded.result["simulated_runs"] == 12
    assert service.metrics.get("runs_simulated_total") == 20
    assert service.metrics.get("mc_cache_partial") == 1


def test_runs_upgrade_is_bit_identical_to_fresh_full_batch():
    service = make_service()
    run_job(
        service, simulate_document(runs=6, monitor_window=5)
    )
    upgraded = run_job(
        service, simulate_document(runs=17, monitor_window=5)
    )
    spec = three_tank_spec(lrc_u=0.99, functions=FUNCTIONS)
    arch = three_tank_architecture()
    fresh = BatchSimulator(
        spec, arch, baseline_implementation(),
        faults=BernoulliFaults(arch), seed=5,
    ).run_batch(17, 20, monitor=MonitorConfig(window=5))
    averages = fresh.limit_averages()
    assert upgraded.result["rates"] == {
        name: float(averages[name].mean()) for name in sorted(averages)
    }
    # The cached merged result is the fresh result, bit for bit.
    (cached,) = service.cache._stores["mc"].values()
    for name in fresh.reliable_counts:
        assert np.array_equal(
            cached.reliable_counts[name], fresh.reliable_counts[name]
        )
    assert cached.monitor_events == fresh.monitor_events


def test_unplug_outages_are_part_of_the_cache_key(tmp_path):
    # One entry in memory, so every revisit below thaws from disk.
    service = make_service(
        cache_entries=1, cache_dir=str(tmp_path / "spill")
    )
    plain = run_job(service, simulate_document(runs=4))
    outages = [["h2", 0], ["h1", 100]]
    unplugged = run_job(service, simulate_document(runs=4, unplug=outages))
    assert unplugged.result["cache"] == "miss"
    assert unplugged.result["rates"] != plain.result["rates"]
    again = run_job(service, simulate_document(runs=4))
    assert again.result["cache"] == "hit"
    assert again.result["rates"] == plain.result["rates"]
    # Two orderings of the same outages are one request.
    reordered = run_job(
        service, simulate_document(runs=4, unplug=outages[::-1])
    )
    assert reordered.result["cache"] == "hit"
    assert reordered.result["rates"] == unplugged.result["rates"]
    assert service.metrics.get("mc_cache_disk_hits") == 2
    assert service.metrics.get("cache_corrupt_quarantined") == 0
    assert service.metrics.get("runs_simulated_total") == 8


def test_unplug_of_a_host_not_in_the_architecture_fails_the_job():
    service = make_service()
    job = service.submit(simulate_document(unplug=[["h9", 0]]))
    service.run_pending()
    assert job.state == "failed"
    assert "'h9' is not in the architecture" in job.error


class KillShardZeroOnce:
    """Chaos plan: kill shard 0's first attempt, then behave."""

    def action(self, shard, attempt):
        if shard == 0 and attempt == 0:
            return ChaosAction("kill")
        return None


def test_sharded_upgrade_tail_is_supervised_and_traced():
    service = make_service(
        executor_factory=lambda shards: SupervisedShardedExecutor(
            shards,
            policy=RetryPolicy(
                retries=2, base_delay_s=0.01, max_delay_s=0.05
            ),
            chaos=KillShardZeroOnce(),
        ),
    )
    run_job(service, simulate_document(runs=6))
    upgraded = run_job(service, simulate_document(runs=17, jobs=2))
    assert upgraded.result["cache"] == "partial"
    assert upgraded.result["simulated_runs"] == 11

    # The tail [6, 17) ran sharded: one span per shard, tiling it.
    trace = service.job_trace(upgraded.id)
    shard_spans = sorted(
        (event["args"]["run_start"], event["args"]["run_stop"])
        for event in trace["traceEvents"]
        if event.get("cat") == "shard"
    )
    assert shard_spans == [(6, 12), (12, 17)]
    # ... and supervised: the killed shard was retried exactly once.
    retries = [
        event for event in upgraded.events
        if event["state"] == "shard-retry"
    ]
    assert [(e["shard"], e["reason"]) for e in retries] == [(0, "crash")]
    assert service.metrics.get("shard_retries") == 1

    spec = three_tank_spec(lrc_u=0.99, functions=FUNCTIONS)
    arch = three_tank_architecture()
    fresh = BatchSimulator(
        spec, arch, baseline_implementation(),
        faults=BernoulliFaults(arch), seed=5,
    ).run_batch(17, 20)
    averages = fresh.limit_averages()
    assert upgraded.result["rates"] == {
        name: float(averages[name].mean()) for name in sorted(averages)
    }


def test_runs_downgrade_is_served_from_cache():
    service = make_service()
    run_job(service, simulate_document(runs=15))
    smaller = run_job(service, simulate_document(runs=4))
    assert smaller.result["cache"] == "hit"
    assert smaller.result["runs"] == 4
    assert service.metrics.get("runs_simulated_total") == 15
    spec = three_tank_spec(lrc_u=0.99, functions=FUNCTIONS)
    arch = three_tank_architecture()
    fresh = BatchSimulator(
        spec, arch, baseline_implementation(),
        faults=BernoulliFaults(arch), seed=5,
    ).run_batch(4, 20)
    averages = fresh.limit_averages()
    assert smaller.result["rates"] == {
        name: float(averages[name].mean()) for name in sorted(averages)
    }


def test_different_seed_or_design_misses_the_cache():
    service = make_service()
    run_job(service, simulate_document(seed=5))
    other_seed = run_job(service, simulate_document(seed=6))
    assert other_seed.result["cache"] == "miss"
    bumped = simulate_document(seed=5)
    bumped["spec"]["communicators"][0]["lrc"] = 0.42
    other_design = run_job(service, bumped)
    assert other_design.result["cache"] == "miss"
    assert service.metrics.get("mc_cache_misses") == 3


def test_cache_key_survives_json_formatting_differences():
    # A client shipping the same design with reversed dict-key order
    # (and a JSON round trip) must land on the same cache line: the
    # service hashes the *reconstructed* design via the canonicalised
    # content_hash, not the request text.
    service = make_service()
    run_job(service, simulate_document(runs=10))

    def reorder(value):
        if isinstance(value, dict):
            return {
                key: reorder(value[key]) for key in reversed(value)
            }
        if isinstance(value, list):
            return [reorder(item) for item in value]
        return value

    document = simulate_document(runs=10)
    document["spec"] = reorder(json.loads(json.dumps(document["spec"])))
    document["arch"] = reorder(document["arch"])
    document["impl"] = reorder(document["impl"])
    repeated = run_job(service, document)
    assert repeated.result["cache"] == "hit"


def test_verify_jobs_are_memoized():
    service = make_service()
    document = {"kind": "verify", **design_documents()}
    first = run_job(service, document)
    assert first.result["feasible"] is True
    assert service.metrics.get("verify_cache_misses") == 1
    second = run_job(service, document)
    assert service.metrics.get("verify_cache_hits") == 1
    assert second.result["report"] == first.result["report"]
    assert first.result["cache"] == "miss"
    assert second.result["cache"] == "hit"


def test_sharded_job_matches_serial_job_rates():
    serial = run_job(make_service(), simulate_document(runs=12))
    sharded = run_job(
        make_service(), simulate_document(runs=12, jobs=3)
    )
    assert sharded.result["rates"] == serial.result["rates"]


# ----------------------------------------------------------------------
# Adaptive stopping on the service.
# ----------------------------------------------------------------------


def adaptive_document(**extra):
    """An adaptive job on a workload the sequential test can decide.

    ``lrc_s`` is relaxed to 0.99: the default 0.999 equals the sensor
    reliability, where the indifference region straddles the true
    rate and the sequential test cannot converge.
    """
    document = simulate_document(
        runs=320, iterations=40, seed=7,
        adaptive=True, min_runs=8, **extra,
    )
    spec = three_tank_spec(
        lrc_u=0.99, lrc_s=0.99, functions=FUNCTIONS
    )
    document["spec"] = specification_to_dict(spec)
    return document


def test_adaptive_job_stops_early_with_convergence_telemetry():
    service = make_service()
    job = run_job(service, adaptive_document())
    result = job.result
    adaptive = result["adaptive"]
    assert result["runs"] == adaptive["stopped_at"] < 320
    assert adaptive["reason"] == "converged"
    assert adaptive["savings_factor"] >= 5.0
    assert result["satisfied"] is True
    # The convergence snapshot rides on the job document and every
    # checkpoint landed on the event stream before the stop notice.
    assert job.convergence is not None
    assert job.convergence["decided"] is True
    assert job.to_dict()["convergence"] == job.convergence
    checkpoints = [
        event["run"] for event in job.events
        if event["state"] == "checkpoint"
    ]
    assert checkpoints == list(
        adaptive["schedule"][:adaptive["checkpoints"]]
    )
    stops = [
        event for event in job.events if event["state"] == "stopping"
    ]
    assert [e["run"] for e in stops] == [adaptive["stopped_at"]]
    assert service.metrics.get("adaptive_stops") == 1
    assert (
        service.metrics.get("adaptive_runs_saved")
        == 320 - adaptive["stopped_at"]
    )
    exposition = service.metrics_exposition()
    assert "repro_service_convergence_rel_half_width" in exposition
    # Each checkpoint also lands as an instant in the merged trace.
    trace = service.job_trace(job.id)
    instants = [
        event["args"]["run"]
        for event in trace["traceEvents"]
        if event.get("ph") == "i" and event["name"] == "checkpoint"
    ]
    assert instants == checkpoints


def test_adaptive_result_equals_fixed_run_truncation():
    service = make_service()
    job = run_job(service, adaptive_document())
    stopped = job.result["runs"]
    # Satellite contract: a later fixed-run request at (or below) the
    # adaptive stop point is a prefix hit — no new simulation.
    document = adaptive_document()
    for key in ("adaptive", "min_runs"):
        document.pop(key)
    document["runs"] = stopped
    fixed = run_job(service, document)
    assert fixed.result["cache"] == "hit"
    assert fixed.result["simulated_runs"] == 0
    assert fixed.result["rates"] == job.result["rates"]
    smaller = dict(document, runs=stopped // 2)
    assert run_job(service, smaller).result["cache"] == "hit"


def test_adaptive_replay_on_warm_cache_is_a_pure_hit():
    service = make_service()
    cold = run_job(service, adaptive_document())
    simulated = service.metrics.get("runs_simulated_total")
    warm = run_job(service, adaptive_document())
    # Deterministic replay over the cached batch: same stop point,
    # same rates, not one new simulated run.
    assert warm.result["cache"] == "hit"
    assert warm.result["simulated_runs"] == 0
    assert warm.result["runs"] == cold.result["runs"]
    assert warm.result["rates"] == cold.result["rates"]
    assert service.metrics.get("runs_simulated_total") == simulated


def test_adaptive_sharded_job_stops_at_the_serial_point():
    serial = run_job(make_service(), adaptive_document())
    sharded = run_job(
        make_service(), adaptive_document(jobs=3)
    )
    assert sharded.result["runs"] == serial.result["runs"]
    assert sharded.result["rates"] == serial.result["rates"]


def test_adaptive_validation_rejects_nonsense():
    service = make_service()
    for bad in (
        {"adaptive": "yes"},
        {"adaptive": True, "target_rel_half_width": 0.0},
        {"adaptive": True, "target_rel_half_width": True},
        {"adaptive": True, "min_runs": 0},
        {"adaptive": True, "stop_confidence": 1.0},
        {"adaptive": True, "indifference": -0.1},
        {"adaptive": True, "sequential": "always"},
        {"adaptive": True, "sequential": False},  # no criterion left
        {"adaptive": True, "min_runs": 8.5},
        {"adaptive": True, "stop_confidence": "high"},
    ):
        with pytest.raises(ServiceError):
            service.submit(simulate_document(**bad))
    with pytest.raises(ServiceError):
        service.submit(
            {"kind": "verify", "adaptive": True, **design_documents()}
        )


# ----------------------------------------------------------------------
# Ledger persistence and failure reporting.
# ----------------------------------------------------------------------


def test_completed_jobs_persist_to_ledger(tmp_path):
    service = make_service(ledger=str(tmp_path / "runs"))
    job = run_job(service, simulate_document(runs=10))
    assert job.result["ledger_entry"] == 0
    records = RunLedger(tmp_path / "runs").records()
    assert len(records) == 1
    assert records[0].runs == 10
    assert records[0].rates == job.result["rates"]
    # A cache hit is still a completed job: it appends too.
    hit = run_job(service, simulate_document(runs=10))
    assert hit.result["ledger_entry"] == 1
    assert len(RunLedger(tmp_path / "runs").records()) == 2


def test_failed_job_reports_error_event():
    service = make_service()
    document = simulate_document()
    document["arch"] = {"hosts": "not-a-list"}  # fails in the worker
    job = service.submit(document)
    service.run_pending()
    assert job.state == "failed"
    assert job.error
    states = [event["state"] for event in job.events]
    assert states[0] == "queued"
    assert states[-1] == "failed"
    assert service.metrics.get("jobs_failed") == 1


def test_finished_jobs_are_evicted_oldest_first(monkeypatch):
    from repro.service import jobs as service_jobs

    monkeypatch.setattr(service_jobs, "FINISHED_JOBS_KEPT", 2)
    service = make_service()  # not started: transitions are driven here
    first, second, third = (
        service.submit(simulate_document(seed=seed)) for seed in (1, 2, 3)
    )
    running = service.submit(simulate_document(seed=4))
    assert running.start_running()
    first.finish("done", result={})
    second.finish("failed", error="boom")
    third.finish("cancelled", error="cancelled by client")

    fourth = service.submit(simulate_document(seed=5))
    assert [job.id for job in service.jobs()] == [
        second.id, third.id, running.id, fourth.id
    ]
    fourth.finish("timed_out", error="deadline")
    fifth = service.submit(simulate_document(seed=6))
    # The oldest terminal job goes first; the running one never does.
    assert [job.id for job in service.jobs()] == [
        third.id, running.id, fourth.id, fifth.id
    ]
    assert running.state == "running"
    with pytest.raises(ServiceError, match="unknown job"):
        service.get(second.id)

    # Over HTTP an evicted id is a 404, like an id never submitted.
    import urllib.error
    import urllib.request

    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]

    def get(job_id):
        url = f"http://{host}:{port}/jobs/{job_id}"
        try:
            with urllib.request.urlopen(url, timeout=30) as response:
                return response.status, json.load(response)
        except urllib.error.HTTPError as error:
            with error:
                return error.code, json.load(error)

    try:
        assert get(first.id) == (404, {"error": f"unknown job {first.id!r}"})
        assert get("job-999") == (404, {"error": "unknown job 'job-999'"})
        status, kept = get(third.id)
        assert status == 200 and kept["state"] == "cancelled"
    finally:
        server.shutdown()
        server.server_close()


def test_serve_without_bindings_answers_a_cycle_job(tmp_path):
    # A communicator cycle with memory runs in the vectorized kernel,
    # which evaluates no task functions: no --bindings needed.
    import os
    import re
    import select
    import signal
    import subprocess
    import sys

    from repro.arch import Architecture, ExecutionMetrics, Host, Sensor
    from repro.experiments import cyclic_specification_with_input
    from repro.mapping import Implementation

    spec = specification_to_dict(cyclic_specification_with_input())
    spec["tasks"][0]["function"] = "integrate"
    arch = Architecture(
        hosts=[Host("h1", 0.995)],
        sensors=[Sensor("s1", 0.8)],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )
    document = {
        "kind": "simulate",
        "spec": spec,
        "arch": architecture_to_dict(arch),
        "impl": implementation_to_dict(
            Implementation({"integrate": {"h1"}}, {"ext": {"s1"}})
        ),
        "runs": 6,
        "iterations": 300,
        "seed": 2,
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(__file__).parents[1] / "src"),
         env.get("PYTHONPATH", "")]
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--ledger", str(tmp_path / "runs")],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        ready, _, _ = select.select([server.stdout], [], [], 30)
        assert ready, "no banner within 30 s"
        match = re.search(
            r"listening on http://[^:]+:(\d+)", server.stdout.readline()
        )
        assert match
        reply = ServiceClient(port=int(match.group(1))).submit(
            document, wait=True
        )
        assert reply["state"] == "done", reply.get("error")
        assert reply["result"]["executor"] == "vectorized"
        assert 0.9 < reply["result"]["rates"]["acc"] < 1.0
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=60) == 0
    finally:
        if server.poll() is None:
            server.kill()
        server.stdout.close()


def test_worker_threads_drain_the_queue():
    service = make_service(workers=2)
    with service:
        jobs = [
            service.submit(simulate_document(runs=3, seed=seed))
            for seed in range(4)
        ]
        for job in jobs:
            assert job.wait(timeout=120)
    assert all(job.state == "done" for job in jobs)
    assert service.metrics.get("jobs_completed") == 4


# ----------------------------------------------------------------------
# The HTTP daemon, end to end.
# ----------------------------------------------------------------------


@pytest.fixture()
def http_service(tmp_path):
    service = make_service(
        workers=2, ledger=str(tmp_path / "runs")
    ).start()
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(
        target=server.serve_forever, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(host, port), service
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def test_http_submit_and_follow(http_service):
    client, service = http_service
    health = client.health()
    assert health["status"] == "ok"
    assert health["queue_depth"] == 0
    assert health["workers_alive"] == health["workers"]
    assert "mc_entries" in health["cache"]

    reply = client.submit(simulate_document(runs=8))
    assert reply["id"] == "job-1"
    events = [event["state"] for event in client.iter_events("job-1")]
    assert events[0] == "queued"
    assert events[-1] == "done"
    job = client.job("job-1")
    assert job["state"] == "done"
    assert job["result"]["cache"] == "miss"
    assert job["result"]["runs"] == 8

    # Repeat with wait=1: synchronous reply, answered from cache.
    repeated = client.submit(simulate_document(runs=8), wait=True)
    assert repeated["state"] == "done"
    assert repeated["result"]["cache"] == "hit"
    assert client.metrics()["runs_simulated_total"] == 8

    listed = client.jobs()
    assert [job["id"] for job in listed] == ["job-1", "job-2"]


def test_http_verify_and_errors(http_service):
    client, service = http_service
    verdict = client.submit(
        {"kind": "verify", **design_documents()}, wait=True
    )
    assert verdict["result"]["feasible"] is True

    with pytest.raises(ServiceClientError, match="runs must be"):
        client.submit(simulate_document(runs=0))
    with pytest.raises(ServiceClientError, match="unknown job"):
        client.job("job-999")
    with pytest.raises(ServiceClientError, match="no such endpoint"):
        client._request("GET", "/nope")


def test_http_events_long_poll_and_since(http_service):
    client, service = http_service
    client.submit(simulate_document(runs=5), wait=True)
    reply = client.events("job-1", since=0)
    assert reply["done"] is True
    seqs = [event["seq"] for event in reply["events"]]
    assert seqs == list(range(len(seqs)))
    tail = client.events("job-1", since=len(seqs) - 1)
    assert [event["seq"] for event in tail["events"]] == [len(seqs) - 1]


def test_http_events_rejects_a_malformed_since(http_service):
    client, service = http_service
    client.submit(simulate_document(runs=2), wait=True)
    for since in ("abc", "-1", "1.5"):
        with pytest.raises(ServiceClientError, match="since must be"):
            client.events("job-1", since=since)


def test_client_error_when_daemon_unreachable():
    client = ServiceClient("127.0.0.1", 1, timeout=2.0)
    with pytest.raises(ServiceClientError, match="cannot reach"):
        client.health()


# ----------------------------------------------------------------------
# Robustness: deadlines, cancellation, backpressure, drain (PR 8).
# ----------------------------------------------------------------------


def test_job_timeout_while_queued_is_terminal():
    import time as _time

    service = make_service()  # not started: the job stays queued
    job = service.submit(simulate_document(timeout_s=0.01))
    _time.sleep(0.05)
    service.run_pending()
    assert job.state == "timed_out"
    assert "deadline" in job.error
    assert service.metrics.get("jobs_timed_out") == 1
    assert job.events[-1]["state"] == "timed_out"


class SlowExecutor:
    """Inline executor that dawdles before simulating (tests only)."""

    name = "slow"

    def __init__(self, delay_s):
        self.delay_s = delay_s

    def execute(
        self, simulator, children, iterations, monitor=None, *,
        run_offset=0,
    ):
        import time as _time

        _time.sleep(self.delay_s)
        return simulator.run_slice(
            children, iterations, monitor, run_offset=run_offset
        )


def test_running_job_times_out_and_late_result_is_discarded():
    service = make_service(
        workers=1,
        executor_factory=lambda shards: SlowExecutor(0.5),
    ).start()
    try:
        job = service.submit(
            simulate_document(seed=901, jobs=2, timeout_s=0.05)
        )
        assert job.wait(timeout=60)
        assert job.state == "timed_out"
    finally:
        service.stop()  # joins the worker: the late result arrived
    assert job.state == "timed_out"  # ... and was discarded
    assert job.result is None
    assert service.metrics.get("jobs_timed_out") == 1
    assert service.metrics.get("jobs_completed") == 0


def test_finish_is_idempotent_first_transition_wins():
    from repro.service.jobs import Job

    job = Job("job-x", {"kind": "simulate"})
    assert job.finish("done", result={"rates": {}})
    assert not job.finish("timed_out", error="too late")
    assert job.state == "done"
    assert job.error is None
    with pytest.raises(ServiceError, match="not a terminal state"):
        job.finish("running")


def test_invalid_timeout_rejected():
    service = make_service()
    for bad in (0, -1.5, "soon", True):
        with pytest.raises(ServiceError, match="timeout_s"):
            service.submit(simulate_document(timeout_s=bad))


def test_cancel_queued_job_never_runs():
    service = make_service()
    job = service.submit(simulate_document(seed=902))
    service.cancel(job.id)
    assert job.state == "cancelled"
    service.run_pending()  # must skip the cancelled job
    assert job.state == "cancelled"
    assert job.result is None
    assert service.metrics.get("jobs_cancelled") == 1
    assert service.metrics.get("jobs_completed") == 0


def test_queue_limit_rejects_with_retry_hint():
    from repro.service.jobs import ServiceQueueFull

    service = make_service(queue_limit=1)
    service.submit(simulate_document(seed=903))
    with pytest.raises(ServiceQueueFull) as excinfo:
        service.submit(simulate_document(seed=904))
    assert excinfo.value.retry_after_s > 0
    assert service.metrics.get("jobs_rejected") == 1
    # Draining the queue frees capacity again.
    service.run_pending()
    service.submit(simulate_document(seed=904))


def test_http_429_retry_after_and_client_backoff(tmp_path):
    from repro.service.client import ServiceBusyError

    service = make_service(queue_limit=1)  # no workers started
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        impatient = ServiceClient(host, port, retries=0)
        impatient.submit(simulate_document(seed=905))
        with pytest.raises(ServiceBusyError, match="queue is full"):
            impatient.submit(simulate_document(seed=906))

        # A retrying client succeeds once capacity frees up: its
        # sleep hook drains the queue, standing in for the passage
        # of time, and must observe the server's Retry-After >= 1s.
        delays = []

        def unblock(delay):
            delays.append(delay)
            service.run_pending()

        patient = ServiceClient(
            host, port, retries=3, backoff_s=0.01, sleep=unblock
        )
        reply = patient.submit(simulate_document(seed=907))
        assert reply["state"] == "queued"
        assert delays and delays[0] >= 1.0
    finally:
        server.shutdown()
        server.server_close()


def test_http_cancel_endpoint(http_service):
    client, service = http_service
    reply = client.submit(simulate_document(runs=40, seed=908))
    cancelled = client.cancel(reply["id"])
    assert cancelled["state"] in ("cancelled", "done")
    final = client.job(reply["id"])
    assert final["state"] in ("cancelled", "done")


def test_drain_finishes_accepted_work_and_rejects_new():
    from repro.service.jobs import ServiceDraining

    service = make_service(workers=2).start()
    jobs = [
        service.submit(simulate_document(runs=3, seed=910 + k))
        for k in range(3)
    ]
    service.begin_drain()
    with pytest.raises(ServiceDraining):
        service.submit(simulate_document(seed=999))
    assert service.drain(timeout=120)
    assert all(job.state == "done" for job in jobs)
    assert service.health()["status"] == "draining"


def test_stop_cancels_queued_jobs_and_wakes_waiters():
    import time as _time

    service = make_service(
        workers=1,
        executor_factory=lambda shards: SlowExecutor(1.0),
    ).start()
    slow = service.submit(simulate_document(seed=920, jobs=2))
    queued = service.submit(simulate_document(seed=921, jobs=2))
    woke_after = {}

    def waiter():
        start = _time.monotonic()
        queued.wait(timeout=120)
        woke_after["s"] = _time.monotonic() - start

    thread = threading.Thread(target=waiter)
    thread.start()
    _time.sleep(0.2)
    service.stop()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert queued.state == "cancelled"
    assert woke_after["s"] < 60  # woke on cancel, not on timeout
    assert slow.state in ("done", "cancelled")


def test_healthz_reports_liveness_and_depth():
    service = make_service(queue_limit=5)
    service.submit(simulate_document(seed=930))
    health = service.health()
    assert health["queue_depth"] == 1
    assert health["queue_limit"] == 5
    assert health["workers"] == 1
    assert "mc_entries" in health["cache"]


# ----------------------------------------------------------------------
# Cache bounds, disk spill, and corruption quarantine (PR 8).
# ----------------------------------------------------------------------


def test_lru_eviction_is_counted_and_bounded(tmp_path):
    service = make_service(cache_entries=1)
    run_job(service, simulate_document(runs=4, seed=940))
    run_job(service, simulate_document(runs=4, seed=941))
    assert service.cache.stats()["mc_entries"] == 1
    assert service.metrics.get("mc_cache_evictions") == 1
    # The evicted entry is gone: re-running it simulates again.
    run_job(service, simulate_document(runs=4, seed=940))
    assert service.metrics.get("runs_simulated_total") == 12


def test_cache_is_bounded_by_default(monkeypatch):
    from repro.service import cache as service_cache

    monkeypatch.setattr(service_cache, "CACHE_ENTRIES", 2)
    service = make_service()
    for seed in (950, 951, 952):
        run_job(service, simulate_document(runs=2, seed=seed))
    assert service.cache.stats()["mc_entries"] == 2
    assert service.metrics.get("mc_cache_evictions") == 1


def test_evicted_entry_thaws_from_disk_bit_identically(tmp_path):
    service = make_service(
        cache_entries=1, cache_dir=str(tmp_path / "spill")
    )
    first = run_job(service, simulate_document(runs=4, seed=950))
    run_job(service, simulate_document(runs=4, seed=951))  # evicts
    assert service.metrics.get("mc_cache_evictions") == 1
    again = run_job(service, simulate_document(runs=4, seed=950))
    assert again.result["cache"] == "hit"
    assert service.metrics.get("mc_cache_disk_hits") == 1
    # The spill file carries the LRCs: the thawed batch needs no
    # specification to answer with the same rates and verdict.
    assert {
        **again.result, "cache": "miss", "simulated_runs": 4,
    } == first.result
    # No extra simulation happened for the disk-served answer.
    assert service.metrics.get("runs_simulated_total") == 8


def test_spill_file_without_lrcs_is_quarantined_once(tmp_path):
    from repro.telemetry.ledger import seal, unseal

    spill = tmp_path / "spill"
    service = make_service(cache_entries=1, cache_dir=str(spill))
    first = run_job(service, simulate_document(runs=4, seed=970))
    run_job(service, simulate_document(runs=4, seed=971))  # evicts
    # Rewrite every spill file as a well-sealed record of the older
    # format, which had no "lrcs" field.
    for path in spill.glob("mc-*.json"):
        doc = unseal(path.read_text())
        del doc["lrcs"]
        path.write_text(seal(doc))
    again = run_job(service, simulate_document(runs=4, seed=970))
    assert again.result["cache"] == "miss"
    assert again.result["rates"] == first.result["rates"]
    assert service.metrics.get("cache_corrupt_quarantined") == 1
    # The other older file is quarantined on its first thaw too.
    other = run_job(service, simulate_document(runs=4, seed=971))
    assert other.result["cache"] == "miss"
    assert service.metrics.get("cache_corrupt_quarantined") == 2
    # Recomputed and spilled in the new format: a disk hit now.
    third = run_job(service, simulate_document(runs=4, seed=970))
    assert third.result["cache"] == "hit"
    assert service.metrics.get("mc_cache_disk_hits") == 1
    assert service.metrics.get("cache_corrupt_quarantined") == 2


def test_spill_file_with_event_objects_is_quarantined_once(tmp_path):
    from repro.telemetry.ledger import seal, unseal

    spill = tmp_path / "spill"
    service = make_service(cache_entries=1, cache_dir=str(spill))
    monitored = simulate_document(runs=4, iterations=200, seed=972,
                                  monitor_window=10)
    first = run_job(service, monitored)
    assert first.result["monitor_events"] > 0
    run_job(service, simulate_document(runs=4, seed=973))  # evicts
    # Rewrite the spill file in the older format, which listed every
    # monitor event as an object instead of the columns.
    (path,) = [
        path for path in spill.glob("mc-*.json")
        if unseal(path.read_text())["key"]["seed"] == 972
    ]
    doc = unseal(path.read_text())
    columns = doc.pop("monitor_events")
    doc["events"] = [
        {"kind": "lrc-clear" if clear else "lrc-alarm", "run": run}
        for clear, run in zip(columns["clear"], columns["run"])
    ]
    path.write_text(seal(doc))
    again = run_job(service, monitored)
    assert again.result["cache"] == "miss"
    assert again.result == {**first.result, "cache": "miss"}
    assert service.metrics.get("cache_corrupt_quarantined") == 1
    assert path.with_name(path.name + ".corrupt").exists()
    # Recomputed and spilled as columns: the next thaw is a disk hit
    # (the second one: the evicting job's batch thawed from disk too).
    run_job(service, simulate_document(runs=4, seed=973))  # evicts
    third = run_job(service, monitored)
    assert third.result["cache"] == "hit"
    assert third.result["monitor_events"] == first.result["monitor_events"]
    assert service.metrics.get("mc_cache_disk_hits") == 2
    assert service.metrics.get("cache_corrupt_quarantined") == 1


def verify_document(lrc_u):
    return {
        "kind": "verify",
        "htl": three_tank_htl(lrc_u=lrc_u),
        "arch": architecture_to_dict(three_tank_architecture()),
    }


def test_evicted_verify_report_thaws_from_disk(tmp_path):
    service = make_service(
        cache_entries=1, cache_dir=str(tmp_path / "spill")
    )
    first = run_job(service, verify_document(0.99))
    run_job(service, verify_document(0.98))  # evicts the first report
    assert service.cache.stats()["verify_entries"] == 1
    assert service.metrics.get("verify_cache_evictions") == 1
    again = run_job(service, verify_document(0.99))
    assert again.result["cache"] == "hit"
    assert service.metrics.get("verify_cache_disk_hits") == 1
    assert service.metrics.get("verify_cache_misses") == 2
    assert {**again.result, "cache": "miss"} == first.result


def test_corrupt_spill_file_is_quarantined_and_recomputed(tmp_path):
    spill = tmp_path / "spill"
    service = make_service(cache_entries=1, cache_dir=str(spill))
    first = run_job(service, simulate_document(runs=4, seed=960))
    run_job(service, simulate_document(runs=4, seed=961))  # evicts
    # Garble every spill file: the disk copies are now lies.
    for path in spill.glob("*.json"):
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
    again = run_job(service, simulate_document(runs=4, seed=960))
    assert again.result["cache"] == "miss"
    assert again.result["rates"] == first.result["rates"]
    assert service.metrics.get("cache_corrupt_quarantined") >= 1
    assert list(spill.glob("*.corrupt"))


def test_metrics_expose_robustness_counters(http_service):
    client, service = http_service
    snapshot = client.metrics()
    for counter in (
        "jobs_timed_out", "jobs_cancelled", "jobs_rejected",
        "mc_cache_evictions", "mc_cache_disk_hits",
        "verify_cache_evictions", "verify_cache_disk_hits",
        "cache_corrupt_quarantined", "shard_retries",
    ):
        assert counter in snapshot
