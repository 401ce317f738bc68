"""Every metric the benchmark reports, with its unit.

``BENCHMARK.json`` declares the same names and units; a unit test keeps
the two in step.  Each per-layer metric also names the end-to-end
metric, on the workload where its layer does the work, that a change
to the layer should move; the breakdown table prints it.
"""

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
}

_WARM_P50 = "latency_p50_s @ warm-sweep"
_WARM_JOBS = "jobs_per_s @ warm-sweep"
_WARM_CPU = "cpu_s_per_job @ warm-sweep"
_COLD_JOBS = "jobs_per_s @ cold-sharded"
_COLD_SHARDS = "latency_p50_s, cpu_s_per_job @ cold-sharded"
_HEALTH = "none (health of the breakdown)"

#: Per-layer metric -> (unit, what it should move).  A ``_s`` metric is
#: the mean exclusive wall seconds per traced job; ``ledger.append_s``
#: covers building the ledger record as well as the fsynced append.
PER_LAYER = {
    "server.http_s": ("s", _WARM_P50),
    "jobs.queue_wait_s": ("s", "latency_tail_s @ warm-sweep"),
    "jobs.pipeline_s": ("s", _WARM_P50),
    "jobs.design_load_s": ("s", _WARM_P50),
    "htl.compile_s": ("s", _WARM_P50),
    "jobs.fingerprint_s": ("s", _WARM_P50),
    "analysis.verify_s": ("s", _WARM_P50),
    "cache.lookup_s": ("s", _WARM_JOBS),
    "cache.slice_s": ("s", _WARM_JOBS),
    "cache.store_s": ("s", _WARM_JOBS),
    "cache.hit_frac": ("ratio", _WARM_CPU),
    "cache.partial_frac": ("ratio", _WARM_CPU),
    "cache.miss_frac": ("ratio", _WARM_CPU),
    "cache.simulated_runs_per_job": ("runs/job", _WARM_CPU),
    "plan.compile_s": ("s", _WARM_P50),
    "plan.compiles_per_job": ("count/job", _WARM_P50),
    "faults.precompute_s": ("s", "jobs_per_s, peak_rss_mb @ cold-sharded"),
    "faults.mask_mb": ("MB", "jobs_per_s, peak_rss_mb @ cold-sharded"),
    "batch.status_collapse_s": ("s", _COLD_JOBS),
    "batch.propagate_s": ("s", _COLD_JOBS),
    "batch.reduce_s": ("s", _COLD_JOBS),
    "batch.monitor_s": ("s", _COLD_JOBS),
    "batch.scalar_fallback_s": ("s", "jobs_per_s @ cycle-fallback"),
    "batch.run_slice_s": ("s", _COLD_JOBS),
    "batch.kernel_run_iters_per_s": ("1/s", "jobs_per_s @ cycle-fallback"),
    "supervision.execute_s": ("s", _COLD_SHARDS),
    "supervision.shard_busy_s": ("s", _COLD_SHARDS),
    "supervision.shard_skew": ("ratio", _COLD_SHARDS),
    "supervision.overhead_s": ("s", _COLD_SHARDS),
    "supervision.retries": ("count/job", _COLD_SHARDS),
    "executor.merge_s": (
        "s", "latency_p50_s @ cold-sharded and warm-sweep"
    ),
    "ledger.append_s": ("s", _WARM_P50),
    "job.wall_s": ("s", "latency_p50_s @ every workload"),
    "job.residual_s": ("s", _HEALTH),
    "trace.overhead_frac": ("ratio", _HEALTH),
    "trace.base_jobs_per_s": ("1/s", _HEALTH),
}
