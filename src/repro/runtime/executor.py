"""Batch executors: the serial reference and the shard/merge algebra.

:meth:`~repro.runtime.batch.BatchSimulator.grow` builds the spawn-key
children of each chunk of a batch and hands them to a
:class:`BatchExecutor`; the executor decides how (and where) the
per-run work happens.

* :class:`SerialExecutor` is the in-process reference: one
  :meth:`~repro.runtime.batch.BatchSimulator.run_slice` call over the
  whole child list.
* :class:`~repro.service.supervision.SupervisedShardedExecutor`
  partitions the children into contiguous per-worker shards
  (:func:`shard_slices`), executes them in forked worker processes
  that are retried on crash, hang, or error, and reassembles them with
  :func:`merge_batch_results`.  The ``SeedSequence.spawn`` contract
  makes this safe: spawn keys partition deterministically, every
  injector's ``precompute`` consumes randomness strictly per run, and
  every count/monitor derivation in the vectorized kernel is per-run
  along axis 0 — so a shard computes exactly its slice of the
  unsharded tensors, and the merge is the bit-identical whole (per-run
  arrays in run order, monitor-event tables re-sequenced by run
  index).  The differential suite in ``tests/test_executor.py`` holds
  sharded output to exact equality with serial output over
  Hypothesis-generated systems.

:func:`slice_batch_result` is the inverse of a merge: the first ``n``
runs of a batch are exactly a batch of ``n`` runs, which is how a
cached prefix answers a smaller query without simulating.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import RuntimeSimulationError
from repro.runtime.batch import BatchResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.monitor import MonitorConfig
    from repro.runtime.batch import BatchSimulator


@runtime_checkable
class BatchExecutor(Protocol):
    """Strategy that executes one contiguous chunk of a batch.

    *children* are the spawn-key children of global runs
    ``run_offset``, ``run_offset + 1``, ...; the executor owns how (and
    where) the per-run work happens but must return exactly the result
    of ``simulator.run_slice(children, iterations, monitor,
    run_offset=run_offset)`` — the bit-identity contract every
    implementation is tested against.
    :meth:`~repro.runtime.batch.BatchSimulator.grow` is the one caller.
    """

    def execute(
        self,
        simulator: "BatchSimulator",
        children: "Sequence[np.random.SeedSequence]",
        iterations: int,
        monitor: "MonitorConfig | None" = None,
        *,
        run_offset: int = 0,
    ) -> BatchResult:
        ...


def shard_slices(runs: int, jobs: int) -> list[tuple[int, int]]:
    """Partition ``range(runs)`` into at most *jobs* contiguous slices.

    Balanced partition: the first ``runs % jobs`` shards get one extra
    run.  Never emits an empty slice — with ``jobs > runs`` the excess
    workers simply get nothing.
    """
    if runs < 0:
        raise RuntimeSimulationError(f"runs must be >= 0, got {runs}")
    if jobs < 1:
        raise RuntimeSimulationError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, runs)
    slices: list[tuple[int, int]] = []
    start = 0
    for shard in range(jobs):
        size = runs // jobs + (1 if shard < runs % jobs else 0)
        slices.append((start, start + size))
        start += size
    return slices


def merge_batch_results(
    shards: "Sequence[BatchResult]",
) -> BatchResult:
    """Merge disjoint batch slices back into one result.

    *shards* must be the slices of one batch in run order, each
    produced by :meth:`~repro.runtime.batch.BatchSimulator.run_slice`
    with its global ``run_offset`` (so monitor events already carry
    global run indices).  Per-run count arrays are concatenated in
    run order, pooled statistics follow from them, and the shards'
    monitor-event tables are concatenated and re-sequenced by run
    index with one stable argsort (within a run, shard emission order
    — the scalar emission order — is preserved); no event object is
    built.  Zero-run shards are legal and contribute nothing.
    """
    from repro.resilience.events import MonitorEvents

    if not shards:
        raise RuntimeSimulationError("cannot merge zero batch results")
    alive = [shard for shard in shards if shard.runs]
    if not alive:
        first = shards[0]
        return slice_batch_result(first, 0)
    first = alive[0]
    for shard in alive[1:]:
        if shard.iterations != first.iterations:
            raise RuntimeSimulationError(
                f"cannot merge shards of {shard.iterations} and "
                f"{first.iterations} iterations"
            )
        if set(shard.reliable_counts) != set(first.reliable_counts):
            raise RuntimeSimulationError(
                "cannot merge shards over different communicators"
            )
        if shard.samples_per_run != first.samples_per_run:
            raise RuntimeSimulationError(
                "cannot merge shards with different per-run sample "
                "counts"
            )
        if shard.executor != first.executor:
            raise RuntimeSimulationError(
                f"cannot merge {shard.executor!r} and "
                f"{first.executor!r} shards"
            )
    counts = {
        name: np.concatenate(
            [shard.reliable_counts[name] for shard in alive]
        )
        for name in first.reliable_counts
    }
    events = MonitorEvents.concat(
        [shard.monitor_events for shard in alive]
    )
    # Stable sort by run index: shards arrive in run order so this is
    # usually the identity, but it makes the re-sequencing contract
    # (run index monotone, per-run emission order preserved)
    # unconditional.
    events = events.select(np.argsort(events.run, kind="stable"))
    return BatchResult(
        lrcs=first.lrcs,
        runs=sum(shard.runs for shard in alive),
        iterations=first.iterations,
        reliable_counts=counts,
        samples_per_run=dict(first.samples_per_run),
        executor=first.executor,
        monitor_events=events,
    )


def slice_batch_result(result: BatchResult, runs: int) -> BatchResult:
    """Prefix-slice a batch result down to its first *runs* runs.

    Under the spawn contract the first *runs* children of a larger
    batch are exactly the children of a ``runs``-sized batch, so the
    slice is bit-identical to re-simulating at the smaller size —
    which is what lets the service answer shrunk ``runs`` queries
    from cache without simulating.  The monitor events are the table's
    rows with ``run < runs``, selected by one mask.
    """
    if runs < 0 or runs > result.runs:
        raise RuntimeSimulationError(
            f"cannot slice {result.runs} runs down to {runs}"
        )
    if runs == result.runs:
        return result
    return BatchResult(
        lrcs=result.lrcs,
        runs=runs,
        iterations=result.iterations,
        reliable_counts={
            name: counts[:runs]
            for name, counts in result.reliable_counts.items()
        },
        samples_per_run=dict(result.samples_per_run),
        executor=result.executor,
        monitor_events=result.monitor_events.select(
            result.monitor_events.run < runs
        ),
    )


class SerialExecutor:
    """The in-process reference executor (the pre-refactor loop)."""

    name = "serial"

    def execute(
        self,
        simulator: "BatchSimulator",
        children: "Sequence[np.random.SeedSequence]",
        iterations: int,
        monitor: "MonitorConfig | None" = None,
        *,
        run_offset: int = 0,
    ) -> BatchResult:
        return simulator.run_slice(
            children, iterations, monitor, run_offset=run_offset
        )
