"""The chaos harness: the seeded storm proves the fleet's guarantees.

``test_chaos_storm_invariants`` is the acceptance demo: a real HTTP
service under worker kills/hangs, file corruption, and a queue flood
must terminate every job, answer bit-identically to a fault-free run,
and never lose a committed ledger record.  The unit tests pin the
schedule's determinism and the CLI validation contract.
"""

import json

import pytest

from repro.chaos import ChaosConfig, ChaosSchedule, run_chaos
from repro.chaos.harness import ScheduledFaults, _draw
from repro.cli import main
from repro.errors import ReproError


# ----------------------------------------------------------------------
# Schedule determinism.
# ----------------------------------------------------------------------


def test_draws_are_deterministic_and_uniformish():
    assert _draw(1, "worker", 0, 0) == _draw(1, "worker", 0, 0)
    assert _draw(1, "worker", 0, 0) != _draw(2, "worker", 0, 0)
    draws = [_draw(7, "x", k) for k in range(200)]
    assert all(0.0 <= value < 1.0 for value in draws)
    assert 0.3 < sum(draws) / len(draws) < 0.7


def test_schedule_replays_identically_for_equal_seeds():
    config = ChaosConfig(seed=13)
    left = ChaosSchedule(config)
    right = ChaosSchedule(ChaosConfig(seed=13))
    for salt in range(4):
        for shard in range(3):
            for attempt in range(3):
                assert (
                    left.worker_action(salt, shard, attempt)
                    == right.worker_action(salt, shard, attempt)
                )


def test_schedule_never_faults_the_final_attempt():
    schedule = ChaosSchedule(ChaosConfig(seed=5, shard_retries=2))
    for salt in range(20):
        for shard in range(4):
            assert schedule.worker_action(salt, shard, 2) is None


def test_scheduled_faults_vary_by_salt():
    schedule = ChaosSchedule(
        ChaosConfig(seed=11, kill_rate=0.5, hang_rate=0.3)
    )
    actions = {
        str(ScheduledFaults(schedule, salt).action(0, 0))
        for salt in range(32)
    }
    assert len(actions) > 1  # distinct batches draw distinct faults


def test_config_validation():
    with pytest.raises(ReproError, match="seed"):
        ChaosConfig(seed=-1)
    with pytest.raises(ReproError, match="waves"):
        ChaosConfig(waves=0)
    with pytest.raises(ReproError, match="duplicate_jobs"):
        ChaosConfig(duplicate_jobs=-1)
    # The post-storm tally looks up every job, so a storm may not
    # outgrow the finished jobs the service keeps.
    assert ChaosConfig().storm_jobs == 15  # 2 x (3 + 2) + 3 + 2
    with pytest.raises(ReproError, match="finished jobs"):
        ChaosConfig(unique_jobs=100, waves=2)


# ----------------------------------------------------------------------
# The storm itself (the PR acceptance demo).
# ----------------------------------------------------------------------


def test_chaos_storm_invariants(tmp_path):
    config = ChaosConfig(
        seed=3,
        waves=1,
        unique_jobs=2,
        duplicate_jobs=1,
        runs=4,
        iterations=8,
    )
    report = run_chaos(config, out_dir=str(tmp_path))
    assert report.ok, report.summary()
    assert report.invariants["terminal-states"]["ok"]
    assert report.invariants["bit-identical-results"]["ok"]
    assert report.invariants["ledger-durability"]["ok"]
    assert report.jobs_submitted >= 5  # 3 wave jobs + doomed + victim
    assert report.states.get("done", 0) >= 2
    assert report.ledger_lines_injected == 2
    assert report.cache_files_corrupted >= 1

    # The artifacts a CI failure would be debugged from exist.
    events = [
        json.loads(line)
        for line in (tmp_path / "chaos-events.jsonl")
        .read_text().splitlines()
    ]
    kinds = {event["kind"] for event in events}
    assert {"storm-start", "submitted", "corrupt-ledger",
            "job-terminal", "storm-end"} <= kinds
    written = json.loads(
        (tmp_path / "chaos-report.json").read_text()
    )
    assert written["ok"] is True
    assert written["seed"] == 3


# ----------------------------------------------------------------------
# CLI contract.
# ----------------------------------------------------------------------


def test_chaos_cli_validates_arguments(capsys):
    assert main(["chaos", "--waves", "0"]) == 2
    assert "error: --waves must be >= 1" in capsys.readouterr().err
    assert main(["chaos", "--seed", "-3"]) == 2
    assert "error: --seed must be >= 0" in capsys.readouterr().err
    assert main(["chaos", "--shards", "0"]) == 2
    assert "--shards must be >= 1" in capsys.readouterr().err
