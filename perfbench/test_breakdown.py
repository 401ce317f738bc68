"""Unit tests of the benchmark's arithmetic.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
from pathlib import Path

import pytest

from breakdown import exclusive_times, latency_summary, layer_totals, tail_rank
from catalog import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent


def span(sid, parent, start, end, name=None):
    return {
        "id": sid, "parent": parent, "start": start, "end": end,
        "name": name or sid,
    }


def test_tail_leaves_ten_samples_beyond_it():
    assert tail_rank(11) == 1
    assert tail_rank(100) == 90
    assert tail_rank(1000) == 990


def test_tail_needs_more_samples_than_it_leaves_beyond():
    with pytest.raises(ValueError):
        tail_rank(10)


def test_latency_summary_names_the_tail_percentile():
    summary = latency_summary([float(k) for k in range(40, 0, -1)])
    assert summary["tail"] == 30.0
    assert summary["tail_pct"] == 75.0
    assert summary["samples"] == 40
    assert summary["p50"] == 20.5


def test_self_time_is_duration_minus_children():
    spans = [
        span("job", None, 0.0, 10.0),
        span("load", "job", 1.0, 3.0),
        span("compile", "load", 1.5, 2.0),
        span("ledger", "job", 6.0, 9.0),
    ]
    owned = exclusive_times(spans)
    assert owned == pytest.approx(
        {"job": 5.0, "load": 1.5, "compile": 0.5, "ledger": 3.0}
    )
    assert sum(owned.values()) == pytest.approx(10.0)


def test_parallel_children_share_the_instant():
    # Two shard workers overlap on [2, 6]; the executor owns the gaps.
    spans = [
        span("job", None, 0.0, 10.0),
        span("execute", "job", 1.0, 9.0),
        span("shard0", "execute", 2.0, 6.0, "shard"),
        span("shard1", "execute", 2.0, 8.0, "shard"),
    ]
    owned = exclusive_times(spans)
    assert owned["execute"] == pytest.approx(2.0)
    assert owned["shard0"] == pytest.approx(2.0)
    assert owned["shard1"] == pytest.approx(4.0)
    totals = layer_totals(spans, owned)
    assert totals["shard"] == pytest.approx(6.0)
    assert sum(totals.values()) == pytest.approx(10.0)


def test_children_are_clipped_to_their_parent():
    spans = [
        span("job", None, 0.0, 4.0),
        span("late", "job", 3.0, 7.0),
    ]
    owned = exclusive_times(spans)
    assert owned == pytest.approx({"job": 3.0, "late": 1.0})


def test_a_tree_has_exactly_one_root():
    with pytest.raises(ValueError):
        exclusive_times([span("a", None, 0, 1), span("b", None, 1, 2)])


def test_metric_names_and_units_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == (
        END_TO_END
    )
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (unit, _) in PER_LAYER.items()
    }
