"""Service benchmark of repro: a closed-loop load generator.

Starts a real ``repro serve`` daemon from the checkout's sources,
drives it through ``ServiceClient``, checks every answer against an
in-process reference, and prints one JSON result as its last line::

    python3 perfbench/run.py --workload warm-sweep --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same workload, traces every other round, replays the job sequence
under the benchmark's layer spans, prints a per-layer breakdown table
and reports the per-layer metrics.  Workloads are described in
``workloads.py``; the layer spans in ``layers.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from catalog import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Daemon starts per run; ``setup_s`` is the median of their set-ups.
STARTS = 3

#: (job kind, cache outcome) -> the ``/metrics`` counter it bumps.
OUTCOME_COUNTERS = {
    ("simulate", "hit"): "mc_cache_hits",
    ("simulate", "partial"): "mc_cache_partial",
    ("simulate", "miss"): "mc_cache_misses",
    ("verify", "hit"): "verify_cache_hits",
    ("verify", "miss"): "verify_cache_misses",
}

#: ``/metrics`` counters the cache-outcome check and the layers read.
COUNTERS = (
    *OUTCOME_COUNTERS.values(), "runs_simulated_total", "shard_retries",
)


def expected_counters(samples) -> dict:
    """The cache-outcome counter deltas the jobs of *samples* imply."""
    expected = dict.fromkeys(OUTCOME_COUNTERS.values(), 0)
    expected["runs_simulated_total"] = 0
    for sample in samples:
        job = sample.job
        expected[OUTCOME_COUNTERS[job.kind, job.outcome]] += 1
        expected["runs_simulated_total"] += job.simulated
    return expected


def measure(workload, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set the daemon up STARTS times, time the last one, check it all."""
    from checks import check_answers
    from daemon import Daemon
    from loadgen import drive, run_jobs

    setups = []
    for start in range(STARTS):
        with Daemon(
            SRC, workdir / f"ledger-{start}", HERE / "bindings.py",
            workload.workers, workload.options,
        ) as daemon:
            port = daemon.client.port
            warm = run_jobs(port, workload.warmup())
            setups.append(time.perf_counter() - daemon.started)
            refused = [r for _, r in warm if r.get("state") != "done"]
            if refused:
                raise RuntimeError(f"warm-up job failed: {refused[0]}")
            if start < STARTS - 1:
                continue
            before = daemon.client.metrics()
            cpu_before = daemon.cpu_seconds()
            phase = drive(port, workload, seconds, trace)
            cpu_after = daemon.cpu_seconds()
            after = daemon.client.metrics()
    counters = {
        name: after.get(name, 0) - before.get(name, 0) for name in COUNTERS
    }
    expected = expected_counters(phase.samples)
    drift = [
        f"{name}: /metrics says {counters[name]}, sequence implies "
        f"{value}"
        for name, value in expected.items() if counters[name] != value
    ]
    answered = [(sample.job, sample.reply) for sample in phase.samples]
    failures = check_answers(answered)
    return {
        "setups": setups,
        "phase": phase,
        "warm": warm,
        "counters": counters,
        "drift": drift,
        "failures": failures,
        "cpu_s": cpu_after - cpu_before,
        "peak_rss_mb": daemon.peak_rss_mb(),
    }


def end_to_end(run: dict) -> dict:
    from breakdown import TAIL_BEYOND, latency_summary

    phase = run["phase"]
    attempted = len(phase.samples)
    latency = latency_summary([s.latency for s in phase.samples])
    print(
        f"latency_tail_s is p{latency['tail_pct']:.1f} of "
        f"{latency['samples']} samples ({TAIL_BEYOND} beyond it)"
    )
    return {
        "setup_s": statistics.median(run["setups"]),
        "jobs_per_s": (attempted - len(run["failures"])) / phase.wall_s,
        "latency_p50_s": latency["p50"],
        "latency_tail_s": latency["tail"],
        "cpu_s_per_job": run["cpu_s"] / attempted,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(workload, run: dict, workdir: Path) -> dict:
    from bindings import FUNCTIONS
    from layers import job_rows, layer_metrics, render_table, replay

    phase = run["phase"]
    answered = run["warm"] + [(s.job, s.reply) for s in phase.samples]
    if any(reply["state"] != "done" for _, reply in answered):
        raise RuntimeError("a job failed, so its layers cannot be replayed")
    traced = [
        sample for sample in phase.samples
        if sample.traced and sample.reply["id"] in phase.traces
    ]
    if not traced:
        raise RuntimeError("the traced rounds recorded no job")
    spans = replay(
        answered,
        {sample.reply["id"] for sample in traced},
        FUNCTIONS,
        workdir,
    )
    rows = job_rows(traced, spans, phase.traces)
    print(render_table(workload.name, rows))
    (untraced_jobs, untraced_s), (traced_jobs, traced_s) = (
        phase.untraced, phase.traced
    )
    base = untraced_jobs / untraced_s
    counters = dict(run["counters"], jobs=len(phase.samples))
    overhead = {
        "frac": 1.0 - (traced_jobs / traced_s) / base,
        "base_jobs_per_s": base * workload.clients,
    }
    return layer_metrics(rows, counters, overhead)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro sources under {SRC}; run the benchmark "
            f"from the root of a repro checkout",
            file=sys.stderr,
        )
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"--workload must be one of {', '.join(sorted(WORKLOADS))}"
        )
    workload = WORKLOADS[args.workload](args.seed)
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = measure(workload, args.seconds, bool(args.trace), workdir)
        if args.trace:
            metrics = per_layer(workload, run, workdir)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            metrics = end_to_end(run)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()
    for message in run["drift"] + run["failures"][:5]:
        print(f"check failed: {message}")
    result = {
        "correct": not run["drift"] and not run["failures"],
        "attempted": len(run["phase"].samples),
        "failed": len(run["failures"]),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
