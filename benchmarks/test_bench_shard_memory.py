"""Memory guard for one forked shard of the batch kernel.

Every cold ``simulate`` job of the service forks shard workers, and
each worker runs :meth:`~repro.runtime.batch.BatchSimulator.run_slice`
on its contiguous slice of the batch.  A fresh fork pays a page fault
for every page of new memory it touches, so what a shard allocates is
part of its cost.  The kernel walks a slice in run blocks whose
per-block arrays fit a fixed byte budget (about 1 MB), so a shard's
resident set grows by a bounded amount whatever its slice size.

This bench runs one cold-sharded-sized shard — 384 runs x 4000
iterations of the 3TS baseline under Bernoulli faults — in a forked
child and guards the growth of the child's peak resident set
(``ru_maxrss``) at 16 MB.  Whole-slice ``(runs, slots, iterations)``
masks and ``(runs, iterations)`` status arrays grew it by about 41 MB;
the blocked kernel grows it by about 7 MB.

The sizes are those of a real shard, so the bench ignores
``REPRO_BENCH_SCALE``.  It skips where the platform cannot ``fork``.
"""

import multiprocessing
import resource
import sys

import numpy as np
import pytest

from repro.experiments import (
    baseline_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.runtime import BatchSimulator, BernoulliFaults

RUNS = 384
ITERATIONS = 4000
GROWTH_CEILING_MB = 16.0
TIMEOUT_S = 120.0

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _shard(simulator, children, connection) -> None:
    before = _peak_rss_mb()
    result = simulator.run_slice(children, ITERATIONS)
    connection.send((_peak_rss_mb() - before, result.runs))
    connection.close()


def _shard_growth_mb() -> tuple[float, int]:
    arch = three_tank_architecture()
    simulator = BatchSimulator(
        three_tank_spec(), arch, baseline_implementation(),
        faults=BernoulliFaults(arch),
    )
    children = np.random.SeedSequence(1).spawn(RUNS)
    # Warm the kernel's code paths in the parent with a tiny slice, so
    # the child measures the slice's arrays and not lazy set-up.
    simulator.run_slice(children[:2], 10)
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(
        target=_shard, args=(simulator, children, sender)
    )
    child.start()
    sender.close()
    try:
        if not receiver.poll(TIMEOUT_S):
            raise AssertionError(
                f"shard child sent nothing within {TIMEOUT_S} s"
            )
        growth, runs = receiver.recv()
    finally:
        receiver.close()
        child.join(TIMEOUT_S)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    return growth, runs


def test_bench_shard_memory(benchmark, report):
    growth, runs = benchmark.pedantic(
        _shard_growth_mb, rounds=1, iterations=1
    )
    report(
        "forked shard memory (3TS, Bernoulli)",
        [
            ("shard size", "-", f"{RUNS} runs x {ITERATIONS} iterations"),
            (
                "peak RSS growth",
                f"<= {GROWTH_CEILING_MB:.0f} MB",
                f"{growth:.1f} MB",
            ),
        ],
    )
    assert runs == RUNS
    assert growth <= GROWTH_CEILING_MB, (
        f"a forked {RUNS}-run shard grew its peak RSS by "
        f"{growth:.1f} MB (ceiling {GROWTH_CEILING_MB:.0f} MB)"
    )
