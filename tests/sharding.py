"""An in-process sharder for the slice/merge differential suites."""

from __future__ import annotations

from repro.runtime import merge_batch_results, shard_slices


class InProcessSharder:
    """A :class:`~repro.runtime.executor.BatchExecutor` fake that
    shards a chunk without processes.

    It runs the sharded executor's arithmetic (``shard_slices`` →
    ``run_slice`` → ``merge_batch_results``) in this process, so a
    Hypothesis suite can check the merge on every example without
    forking a worker per shard.
    """

    name = "in-process-sharder"

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs

    def execute(
        self, simulator, children, iterations, monitor=None, *,
        run_offset=0,
    ):
        return merge_batch_results([
            simulator.run_slice(
                children[start:stop], iterations, monitor,
                run_offset=run_offset + start,
            )
            for start, stop in shard_slices(len(children), self.jobs)
        ])
