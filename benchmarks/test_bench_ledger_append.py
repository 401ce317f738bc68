"""Flat append cost of the run ledger.

Every simulate job the service answers appends one sealed record to
the run ledger, so an append that re-reads the history would make a
long-lived daemon slower with every job it has answered.  A
:class:`~repro.telemetry.ledger.RunLedger` remembers the file's
identity and intact-record count from its own last append, so an
append to a file nobody else touched reads no bytes: one ``stat``,
one write and one ``fsync``, whatever the ledger's length.

This bench seeds two ledgers, of 10 and 10 000 sealed lines, by
writing them directly, then appends through one instance per ledger,
alternating between the two so both see the same disk.  The first
append of each instance scans the file (it knows nothing yet) and is
reported apart.  It asserts that the median append costs at most
3x more at 10 000 records than at 10; an append that rescans the file
costs about two orders of magnitude more there.

The ledger sizes are the point of the bench, so it ignores
``REPRO_BENCH_SCALE``.
"""

import statistics
import time

from repro.telemetry import RunRecord
from repro.telemetry.ledger import RunLedger, seal

SIZES = (10, 10_000)
APPENDS = 40
RATIO_CEILING = 3.0


def _record(run_id: str) -> RunRecord:
    return RunRecord(
        run_id=run_id,
        command="batch",
        seed=1,
        runs=64,
        iterations=1000,
        spec_hash="aaaaaaaaaaaa",
        arch_hash="bbbbbbbbbbbb",
        impl_hash="cccccccccccc",
        rates={f"c{index}": 0.999 for index in range(8)},
        lrcs={f"c{index}": 0.99 for index in range(8)},
        recorded_at=1000.0,
        executor="serial",
    )


def _seeded(root, size: int) -> RunLedger:
    ledger = RunLedger(root)
    ledger.root.mkdir(parents=True)
    line = seal(_record("seed").to_dict()) + "\n"
    ledger.path.write_text(line * size, encoding="utf-8")
    return ledger


def _timed_append(ledger: RunLedger, run_id: str) -> "tuple[float, int]":
    started = time.perf_counter()
    index = ledger.append(_record(run_id))
    return time.perf_counter() - started, index


def _append_costs(tmp_path) -> dict:
    ledgers = {size: _seeded(tmp_path / str(size), size) for size in SIZES}
    first = {}
    for size, ledger in ledgers.items():
        first[size], index = _timed_append(ledger, "first")
        assert index == size
    costs: dict = {size: [] for size in SIZES}
    for turn in range(APPENDS):
        order = SIZES if turn % 2 == 0 else SIZES[::-1]
        for size in order:
            cost, index = _timed_append(ledgers[size], f"a{turn}")
            assert index == size + 1 + turn
            costs[size].append(cost)
    for size, ledger in ledgers.items():
        assert len(ledger.records(strict=True)) == size + 1 + APPENDS
    return {
        "first": first,
        "median": {
            size: statistics.median(values)
            for size, values in costs.items()
        },
    }


def test_bench_ledger_append_is_flat(benchmark, report, tmp_path):
    measured = benchmark.pedantic(
        _append_costs, args=(tmp_path,), rounds=1, iterations=1
    )
    small, large = (measured["median"][size] for size in SIZES)
    ratio = large / small
    report(
        "run ledger append cost",
        [
            *(
                (
                    f"first append, {size} records (scans)",
                    "-",
                    f"{measured['first'][size] * 1e3:.2f} ms",
                )
                for size in SIZES
            ),
            *(
                (
                    f"median append, {size} records",
                    "-",
                    f"{measured['median'][size] * 1e3:.3f} ms",
                )
                for size in SIZES
            ),
            (
                f"cost ratio {SIZES[1]} / {SIZES[0]}",
                f"<= {RATIO_CEILING:.0f}x",
                f"{ratio:.2f}x",
            ),
        ],
    )
    assert ratio <= RATIO_CEILING, (
        f"a ledger append costs {ratio:.1f}x more at {SIZES[1]} records "
        f"than at {SIZES[0]} (ceiling {RATIO_CEILING:.0f}x)"
    )
