"""The perf-trajectory recorder's perfbench mode.

``tools/bench_record.py --perfbench`` shells out to ``perfbench/run.py``
per workload and seed and summarizes every end-to-end metric by its
median and quartiles.  These tests replace the subprocess with canned
benchmark output, so they check the parsing and the arithmetic without
running the benchmark.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "bench_record.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_record", module)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


def _fake_run(values, correct=True):
    """A subprocess.run stand-in printing one perfbench result per call."""
    calls = []

    def run(command, **kwargs):
        calls.append(command)
        value = values[len(calls) - 1]
        result = {
            "correct": correct,
            "attempted": 10,
            "failed": 0,
            "metrics": {
                "jobs_per_s": {"value": value, "unit": "1/s"},
                "peak_rss_mb": {"value": 2 * value, "unit": "MB"},
            },
        }
        stdout = "breakdown table\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(command, 0, stdout=stdout)

    return run, calls


def test_perfbench_mode_records_runs_medians_and_quartiles(monkeypatch):
    run, calls = _fake_run([1.0, 2.0, 3.0, 4.0, 10.0])
    monkeypatch.setattr(tool.subprocess, "run", run)
    document = tool.record_perfbench(["cold-sharded"], [1, 2, 3, 4, 5], 15.0)

    assert document["exit_status"] == 0
    assert calls[0][-8:] == [
        "--workload", "cold-sharded", "--seed", "1",
        "--seconds", "15.0", "--trace", "0",
    ]
    workload = document["workloads"]["cold-sharded"]
    assert [r["seed"] for r in workload["runs"]] == [1, 2, 3, 4, 5]
    assert workload["runs"][4]["metrics"] == {
        "jobs_per_s": 10.0, "peak_rss_mb": 20.0,
    }
    assert workload["metrics"]["jobs_per_s"] == {
        "unit": "1/s", "median": 3.0, "q1": 2.0, "q3": 4.0,
        "iqr": 2.0, "n": 5,
    }
    assert workload["metrics"]["peak_rss_mb"]["median"] == 6.0


def test_perfbench_mode_fails_on_a_wrong_answer(monkeypatch):
    run, _ = _fake_run([1.0], correct=False)
    monkeypatch.setattr(tool.subprocess, "run", run)
    document = tool.record_perfbench(["warm-sweep"], [1], 5.0)
    assert document["exit_status"] == 1
    assert document["workloads"]["warm-sweep"]["metrics"][
        "jobs_per_s"
    ]["iqr"] == 0.0


def test_parent_mode_runs_alternating_pairs_and_counts_wins(
    monkeypatch, tmp_path
):
    # Calls alternate parent/change per seed, the parent first on
    # seeds 1 and 3: the values are the parent's 2.0 and the change's
    # 3.0 on seed 1, and so on.
    run, calls = _fake_run([2.0, 3.0, 5.0, 4.0, 2.0, 6.0])
    monkeypatch.setattr(tool.subprocess, "run", run)
    document = tool.record_perfbench(
        ["cold-sharded"], [1, 2, 3], 15.0, parent=tmp_path
    )

    roots = [pathlib.Path(command[1]).parents[1] for command in calls]
    assert roots == [
        tmp_path, REPO_ROOT, REPO_ROOT, tmp_path, tmp_path, REPO_ROOT,
    ]
    workload = document["workloads"]["cold-sharded"]
    assert [r["metrics"]["jobs_per_s"] for r in workload["runs"]] == [
        3.0, 5.0, 6.0,
    ]
    parent = workload["parent"]
    assert [r["metrics"]["jobs_per_s"] for r in parent["runs"]] == [
        2.0, 4.0, 2.0,
    ]
    assert parent["metrics"]["jobs_per_s"]["median"] == 2.0
    assert workload["metrics"]["jobs_per_s"]["median"] == 5.0
    # jobs_per_s is better higher: the change won all three pairs;
    # peak_rss_mb (twice the value) is better lower: it lost them all.
    assert workload["pairs"] == {
        "jobs_per_s": {
            "better": "higher", "won": 3, "of": 3, "ties": 0, "p": 0.25,
            "claim_met": True,
        },
        "peak_rss_mb": {
            "better": "lower", "won": 0, "of": 3, "ties": 0, "p": 0.25,
            "claim_met": False,
        },
    }
    assert document["exit_status"] == 0


def test_unpaired_document_has_no_parent_side(monkeypatch):
    run, _ = _fake_run([1.0])
    monkeypatch.setattr(tool.subprocess, "run", run)
    workload = tool.record_perfbench(["warm-sweep"], [1], 5.0)[
        "workloads"
    ]["warm-sweep"]
    assert set(workload) == {"runs", "metrics"}


def _runs(values):
    return [{"metrics": {"jobs_per_s": value}} for value in values]


def test_sign_test_p_is_exact_and_two_sided():
    assert tool.sign_test_p(0, 0) == 1.0
    assert tool.sign_test_p(3, 0) == 0.25
    assert tool.sign_test_p(0, 3) == 0.25
    # 9 of 10: 2 * (C(10,0) + C(10,1)) / 2**10 = 22 / 1024.
    assert tool.sign_test_p(9, 1) == 22 / 1024
    assert tool.sign_test_p(5, 5) == 1.0


def test_ties_leave_the_sign_test_and_win_for_neither_side():
    # Nine wins and one tie: the sign test sees 9 of 9 decided pairs,
    # the claim 9 wins in 10 pairs.
    parent = _runs([10.0] * 10)
    change = _runs([12.0] * 9 + [10.0])
    entry = tool.pairs_won(parent, change, {"jobs_per_s": "higher"})[
        "jobs_per_s"
    ]
    assert entry == {
        "better": "higher", "won": 9, "of": 10, "ties": 1,
        "p": 2 / 2**9, "claim_met": True,
    }
    # Eight wins and two ties: 8 of 8 decided, but only 8 in 10 won.
    change = _runs([12.0] * 8 + [10.0] * 2)
    entry = tool.pairs_won(parent, change, {"jobs_per_s": "higher"})[
        "jobs_per_s"
    ]
    assert (entry["won"], entry["ties"], entry["p"]) == (8, 2, 2 / 2**8)
    assert not entry["claim_met"]


def test_claim_needs_nine_in_ten_pairs_won():
    parent = _runs([10.0] * 10)
    change = _runs([12.0] * 8 + [9.0] * 2)
    entry = tool.pairs_won(parent, change, {"jobs_per_s": "higher"})[
        "jobs_per_s"
    ]
    assert (entry["won"], entry["ties"]) == (8, 0)
    assert entry["p"] == 2 * (1 + 10 + 45) / 2**10
    assert not entry["claim_met"]


def test_claim_needs_a_median_gain_beyond_the_parent_iqr():
    # Every pair is won by 0.5, but the parent's runs spread by 2.
    parent = _runs([8.0, 9.0, 10.0, 11.0, 12.0] * 2)
    change = _runs([8.5, 9.5, 10.5, 11.5, 12.5] * 2)
    entry = tool.pairs_won(parent, change, {"jobs_per_s": "higher"})[
        "jobs_per_s"
    ]
    assert entry["won"] == 10 and not entry["claim_met"]
    wide = _runs([11.0, 12.0, 13.0, 14.0, 15.0] * 2)
    assert tool.pairs_won(parent, wide, {"jobs_per_s": "higher"})[
        "jobs_per_s"
    ]["claim_met"]


def test_claim_follows_the_metric_direction():
    parent = [{"metrics": {"latency_p50_s": 1.0}} for _ in range(10)]
    change = [{"metrics": {"latency_p50_s": 0.5}} for _ in range(10)]
    entry = tool.pairs_won(parent, change, {"latency_p50_s": "lower"})[
        "latency_p50_s"
    ]
    assert entry["won"] == 10 and entry["claim_met"]
    worse = tool.pairs_won(change, parent, {"latency_p50_s": "lower"})[
        "latency_p50_s"
    ]
    assert worse["won"] == 0 and not worse["claim_met"]
