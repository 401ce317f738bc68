"""Tests for the persistent run ledger (ISSUE 5 tentpole):
content hashes, the append-only JSONL store, diff, and regression
checking."""

import json

import pytest

from repro.errors import ReproError
from repro.experiments import (
    ACTUATORS,
    baseline_implementation,
    bind_control_functions,
    scenario1_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.experiments.three_tank_system import ThreeTankEnvironment
from repro.runtime import BatchSimulator, BernoulliFaults, Simulator
from repro.telemetry import (
    RunLedger,
    RunRecord,
    check_regression,
    content_hash,
    derive_run_id,
    diff_records,
    record_from_result,
)
from repro.telemetry.ledger import (
    render_diff,
    render_listing,
    render_record,
    seal,
    unseal,
)


def make_record(run_id="s1", rates=None, lrcs=None, **overrides):
    kwargs = dict(
        run_id=run_id,
        command="scalar",
        seed=1,
        runs=1,
        iterations=10,
        spec_hash="aaa",
        arch_hash="bbb",
        impl_hash="ccc",
        rates=rates if rates is not None else {"u1": 0.999, "u2": 0.995},
        lrcs=lrcs if lrcs is not None else {"u1": 0.99, "u2": 0.99},
        recorded_at=1000.0,
    )
    kwargs.update(overrides)
    return RunRecord(**kwargs)


# ----------------------------------------------------------------------
# Content hashing and record round-trips.
# ----------------------------------------------------------------------


def test_content_hash_is_canonical_and_sensitive():
    assert content_hash({"a": 1, "b": 2}) == content_hash(
        {"b": 2, "a": 1}
    )
    assert content_hash({"a": 1}) != content_hash({"a": 2})
    assert len(content_hash({"a": 1})) == 12


def test_content_hash_normalizes_int_vs_float():
    # A design's cache key must not depend on whether a client ships
    # "period": 40 or "period": 40.0 — the service memo keys on it.
    assert content_hash({"period": 40}) == content_hash(
        {"period": 40.0}
    )
    assert content_hash([1, 2.0, {"x": 3.0}]) == content_hash(
        [1.0, 2, {"x": 3}]
    )
    # Nested inside realistic design documents, with key reordering.
    left = {
        "communicators": [
            {"name": "u1", "period": 500, "lrc": 0.99, "init": 0.0}
        ],
        "metrics": {"default_wcet": 1.0},
    }
    right = {
        "metrics": {"default_wcet": 1},
        "communicators": [
            {"lrc": 0.99, "init": 0, "period": 500.0, "name": "u1"}
        ],
    }
    assert content_hash(left) == content_hash(right)
    # But genuinely different numbers still differ...
    assert content_hash({"lrc": 0.99}) != content_hash({"lrc": 0.999})
    # ...and bools keep their identity apart from 0/1.
    assert content_hash({"x": True}) != content_hash({"x": 1})
    assert content_hash({"x": False}) != content_hash({"x": 0})


def test_run_record_round_trips():
    record = make_record(metrics={"counter:x": 3})
    restored = RunRecord.from_dict(
        json.loads(json.dumps(record.to_dict()))
    )
    assert restored == record


def test_malformed_record_raises():
    with pytest.raises(ReproError, match="malformed ledger record"):
        RunRecord.from_dict({"command": "scalar"})  # no run_id
    with pytest.raises(ReproError, match="malformed ledger record"):
        RunRecord.from_dict({"run_id": "s1", "rates": {"u1": "nan?x"}})


def test_margins_and_min_margin():
    record = make_record(
        rates={"u1": 0.999, "u2": 0.985}, lrcs={"u1": 0.99, "u2": 0.99}
    )
    margins = record.margins()
    assert margins["u1"] == pytest.approx(0.009)
    assert margins["u2"] == pytest.approx(-0.005)
    name, value = record.min_margin()
    assert name == "u2" and value == pytest.approx(-0.005)
    assert make_record(rates={}, lrcs={}).min_margin() is None


# ----------------------------------------------------------------------
# The append-only store.
# ----------------------------------------------------------------------


def test_ledger_append_and_records(tmp_path):
    ledger = RunLedger(tmp_path / "runs")
    assert ledger.records() == []
    assert ledger.append(make_record("s1")) == 0
    assert ledger.append(make_record("s2")) == 1
    records = ledger.records()
    assert [r.run_id for r in records] == ["s1", "s2"]
    assert [r.entry for r in records] == [0, 1]
    # One JSON document per line, append-only.
    lines = (tmp_path / "runs" / "ledger.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["run_id"] == "s1"


def _append_worker(root, worker, count):
    ledger = RunLedger(root)
    for index in range(count):
        ledger.append(make_record(f"w{worker}-{index}"))


def test_ledger_concurrent_appends_do_not_interleave(tmp_path):
    # PR 7 satellite: the advisory file lock must keep concurrent
    # daemon jobs and CLI runs from interleaving JSONL lines.
    import multiprocessing

    context = multiprocessing.get_context("fork")
    workers, per_worker = 4, 12
    processes = [
        context.Process(
            target=_append_worker, args=(tmp_path / "runs", w, per_worker)
        )
        for w in range(workers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join()
        assert process.exitcode == 0
    lines = (
        (tmp_path / "runs" / "ledger.jsonl").read_text().splitlines()
    )
    assert len(lines) == workers * per_worker
    # Every line is whole, valid JSON — no torn or interleaved writes.
    run_ids = [json.loads(line)["run_id"] for line in lines]
    assert sorted(run_ids) == sorted(
        f"w{w}-{i}" for w in range(workers) for i in range(per_worker)
    )
    # And the reader assigns dense, unique entry indices.
    records = RunLedger(tmp_path / "runs").records()
    assert [record.entry for record in records] == list(
        range(workers * per_worker)
    )


def test_ledger_resolve_addressing(tmp_path):
    ledger = RunLedger(tmp_path)
    for run_id in ("s1", "s2", "s1"):
        ledger.append(make_record(run_id))
    assert ledger.resolve("latest").entry == 2
    assert ledger.resolve("#0").run_id == "s1"
    assert ledger.resolve("1").run_id == "s2"
    assert ledger.resolve("-1").entry == 2
    # A bare run id resolves to its latest matching entry.
    assert ledger.resolve("s1").entry == 2
    with pytest.raises(ReproError, match="out of range"):
        ledger.resolve("#9")
    with pytest.raises(ReproError, match="no ledger entry matches"):
        ledger.resolve("nope")


def test_ledger_resolve_on_empty_ledger(tmp_path):
    with pytest.raises(ReproError, match="is empty"):
        RunLedger(tmp_path / "void").resolve("latest")


def test_ledger_quarantines_corrupt_lines(tmp_path):
    ledger = RunLedger(tmp_path)
    ledger.append(make_record("s1"))
    ledger.append(make_record("s2"))
    with ledger.path.open("a") as handle:
        handle.write("{not json\n")
    # strict mode still refuses to silently skip damage ...
    with pytest.raises(ReproError, match="corrupt line"):
        ledger.records(strict=True)
    # ... the default quarantines it and keeps the intact records.
    records = ledger.records()
    assert [record.run_id for record in records] == ["s1", "s2"]
    assert ledger.quarantined == 1
    assert "{not json" in ledger.corrupt_path.read_text()
    # The rewritten ledger is clean: appends keep dense indices.
    index = ledger.append(make_record("s3"))
    assert index == 2
    assert len(ledger.records(strict=True)) == 3


def test_unchecked_ledger_line_is_quarantined(tmp_path):
    # Valid JSON without a ``check`` field is not a sealed record.
    ledger = RunLedger(tmp_path)
    ledger.append(make_record("s1"))
    with ledger.path.open("a") as handle:
        handle.write(json.dumps(make_record("s2").to_dict()) + "\n")
    assert ledger.append(make_record("s3")) == 1
    records = ledger.records()
    assert [record.run_id for record in records] == ["s1", "s3"]
    assert [record.entry for record in records] == [0, 1]
    assert ledger.quarantined == 1
    assert '"run_id": "s2"' in ledger.corrupt_path.read_text()


def test_append_counts_a_torn_tail_that_is_a_whole_record(tmp_path):
    # A writer that crashed after the JSON but before its newline left
    # a whole record: the append that completes it must count it, or
    # the new record's index points at its predecessor.
    ledger = RunLedger(tmp_path)
    ledger.append(make_record("s0"))
    ledger.append(make_record("s1"))
    ledger.path.write_text(ledger.path.read_text()[:-1])
    # Unlocked, the torn tail may be an append in flight: corrupt.
    with pytest.raises(ReproError, match="corrupt line"):
        ledger.records(strict=True)
    assert ledger.append(make_record("s2")) == 2
    records = ledger.records(strict=True)
    assert [(r.run_id, r.entry) for r in records] == [
        ("s0", 0), ("s1", 1), ("s2", 2)
    ]


def test_read_keeps_a_torn_tail_that_is_a_whole_record(tmp_path):
    ledger = RunLedger(tmp_path)
    ledger.append(make_record("s0"))
    ledger.path.write_text(ledger.path.read_text()[:-1])
    # The quarantine pass runs under the lock and keeps the record,
    # so a read numbers it as the next append will.
    assert [r.run_id for r in RunLedger(tmp_path).records()] == ["s0"]
    assert ledger.append(make_record("s1")) == 1


def test_read_repairs_a_torn_tail_that_is_a_whole_record(
    tmp_path, monkeypatch
):
    ledger = RunLedger(tmp_path)
    ledger.append(make_record("s0"))
    ledger.append(make_record("s1"))
    ledger.path.write_text(ledger.path.read_text()[:-1])
    passes = []
    quarantine = RunLedger._quarantine

    def counted(self):
        passes.append(1)
        return quarantine(self)

    monkeypatch.setattr(RunLedger, "_quarantine", counted)
    reader = RunLedger(tmp_path)
    assert [r.run_id for r in reader.records()] == ["s0", "s1"]
    assert len(passes) == 1
    # The locked pass sealed the line off: the file is whole again, so
    # the next read takes no lock and rewrites nothing.
    assert ledger.path.read_text().endswith("\n")
    assert [r.run_id for r in reader.records(strict=True)] == ["s0", "s1"]
    assert len(passes) == 1
    assert reader.quarantined == 0
    index = ledger.append(make_record("s2"))
    records = reader.records(strict=True)
    assert records[index].run_id == "s2"
    assert [r.entry for r in records] == [0, 1, 2]


# ----------------------------------------------------------------------
# The cached tail state: appends read nothing unless the file changed.
# ----------------------------------------------------------------------


def _assert_indices_match(ledger, returned):
    """Each of our surviving records sits at the index append returned;
    returns every surviving run id in entry order."""
    records = ledger.records()
    assert [record.entry for record in records] == list(range(len(records)))
    for record in records:
        if record.run_id in returned:
            assert returned[record.run_id] == record.entry, record.run_id
    return [record.run_id for record in records]


def test_append_to_unchanged_file_reads_nothing(tmp_path, monkeypatch):
    import repro.telemetry.ledger as ledger_module

    ledger = RunLedger(tmp_path)
    returned = {"s0": ledger.append(make_record("s0"))}
    calls = {"scan": 0, "unseal": 0}
    scan, unseal_ = RunLedger._scan, ledger_module.unseal

    def counted_scan(self, *args, **kwargs):
        calls["scan"] += 1
        return scan(self, *args, **kwargs)

    def counted_unseal(text):
        calls["unseal"] += 1
        return unseal_(text)

    monkeypatch.setattr(RunLedger, "_scan", counted_scan)
    monkeypatch.setattr(ledger_module, "unseal", counted_unseal)
    for index in range(1, 6):
        returned[f"s{index}"] = ledger.append(make_record(f"s{index}"))
    assert calls == {"scan": 0, "unseal": 0}
    assert returned == {f"s{index}": index for index in range(6)}
    # A second instance knows nothing yet: its first append scans once,
    # its next one reads nothing again.
    other = RunLedger(tmp_path)
    returned["o0"] = other.append(make_record("o0"))
    assert calls["scan"] == 1
    returned["o1"] = other.append(make_record("o1"))
    assert calls["scan"] == 1
    monkeypatch.undo()
    _assert_indices_match(ledger, returned)


def _fork_append(root, run_id):
    RunLedger(root).append(make_record(run_id))


def _other_instance_appends(ledger):
    RunLedger(ledger.root).append(make_record("other"))
    return {"other"}


def _forked_process_appends(ledger):
    import multiprocessing

    context = multiprocessing.get_context("fork")
    process = context.Process(
        target=_fork_append, args=(ledger.root, "forked")
    )
    process.start()
    process.join(timeout=60)
    assert not process.is_alive()
    assert process.exitcode == 0
    return {"forked"}


def _garbage_and_torn_line(ledger):
    # The two lines the chaos harness injects: a crashed writer's
    # garbage, and a torn append that does not unseal.
    with ledger.path.open("a") as handle:
        handle.write('{"run_id": "chaos-garbage", "broken": tru\n')
        handle.write('{"run_id": "chaos-torn-append"')
    return set()


def _other_reader_quarantines(ledger):
    _other_instance_appends(ledger)
    _garbage_and_torn_line(ledger)
    reader = RunLedger(ledger.root)
    reader.records()
    assert reader.quarantined == 2
    return {"other"}


def _file_deleted(ledger):
    ledger.path.unlink()
    return None  # nothing before the deletion survives


@pytest.mark.parametrize(
    "change",
    [
        _other_instance_appends,
        _forked_process_appends,
        _garbage_and_torn_line,
        _other_reader_quarantines,
        _file_deleted,
    ],
)
def test_append_rescans_a_file_changed_by_someone_else(tmp_path, change):
    ledger = RunLedger(tmp_path)
    returned = {
        run_id: ledger.append(make_record(run_id)) for run_id in ("a", "b")
    }
    foreign = change(ledger)
    returned["c"] = ledger.append(make_record("c"))
    returned["d"] = ledger.append(make_record("d"))
    survivors = _assert_indices_match(ledger, returned)
    if foreign is None:
        assert survivors == ["c", "d"]
    else:
        assert survivors == ["a", "b", *sorted(foreign), "c", "d"]


def test_one_ledger_shared_by_threads_gets_dense_indices(tmp_path):
    import sys
    import threading

    ledger = RunLedger(tmp_path)
    workers, per_worker = 4, 12
    returned: dict[str, int] = {}
    guard = threading.Lock()

    def work(worker):
        for index in range(per_worker):
            run_id = f"t{worker}-{index}"
            entry = ledger.append(make_record(run_id))
            with guard:
                returned[run_id] = entry

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=work, args=(w,)) for w in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(returned.values()) == list(range(workers * per_worker))
    assert len(_assert_indices_match(ledger, returned)) == (
        workers * per_worker
    )


#: ``make_record("s1")`` as a sealed ledger line, byte for byte; ledgers
#: and cache spill directories already on disk hold this format.
SEALED_S1 = (
    '{"arch_hash": "bbb", "check": "6b8b7e8e76d1", "command": "scalar", '
    '"events": 0, "executor": "", "impl_hash": "ccc", "iterations": 10, '
    '"lrcs": {"u1": 0.99, "u2": 0.99}, "rates": {"u1": 0.999, '
    '"u2": 0.995}, "recorded_at": 1000.0, "run_id": "s1", "runs": 1, '
    '"seed": 1, "spec_hash": "aaa"}'
)


def test_sealed_record_format_is_stable():
    document = make_record("s1").to_dict()
    assert seal(document) == SEALED_S1
    assert unseal(SEALED_S1) == document
    # The wall-clock timestamp is outside the checksum; all else is in.
    assert unseal(SEALED_S1.replace("1000.0", "2000.0")) is not None
    assert unseal(SEALED_S1.replace('"s1"', '"s2"')) is None
    unchecked = json.dumps(document)
    assert unseal(unchecked) is None
    assert unseal("[1, 2]") is None
    assert unseal(SEALED_S1[:-1]) is None


# ----------------------------------------------------------------------
# Diff and regression.
# ----------------------------------------------------------------------


def test_diff_records_sorted_worst_first():
    baseline = make_record(
        rates={"u1": 0.999, "u2": 0.999}, lrcs={"u1": 0.99, "u2": 0.99}
    )
    candidate = make_record(
        rates={"u1": 0.9995, "u2": 0.95}, lrcs={"u1": 0.99, "u2": 0.99}
    )
    rows = diff_records(baseline, candidate)
    assert [row.communicator for row in rows] == ["u2", "u1"]
    assert rows[0].delta == pytest.approx(-0.049)
    assert rows[1].delta == pytest.approx(0.0005)


def test_diff_handles_disjoint_communicators():
    baseline = make_record(rates={"u1": 0.999}, lrcs={"u1": 0.99})
    candidate = make_record(rates={"w9": 0.9}, lrcs={"w9": 0.8})
    rows = {r.communicator: r for r in diff_records(baseline, candidate)}
    assert rows["u1"].delta is None
    assert rows["w9"].delta is None


def test_check_regression_thresholds():
    baseline = make_record(
        rates={"u1": 0.999, "u2": 0.999}, lrcs={"u1": 0.99, "u2": 0.99}
    )
    ok = make_record(
        rates={"u1": 0.9985, "u2": 0.9995},
        lrcs={"u1": 0.99, "u2": 0.99},
    )
    assert check_regression(baseline, ok, threshold=0.001) == []
    bad = make_record(
        rates={"u1": 0.98, "u2": 0.999}, lrcs={"u1": 0.99, "u2": 0.99}
    )
    regressions = check_regression(baseline, bad, threshold=0.001)
    assert [r.communicator for r in regressions] == ["u1"]
    assert regressions[0].drop == pytest.approx(0.019)
    # A looser threshold tolerates the same drop.
    assert check_regression(baseline, bad, threshold=0.05) == []


# ----------------------------------------------------------------------
# Building records from simulation results.
# ----------------------------------------------------------------------


def scalar_result(implementation=None, seed=11, iterations=20):
    spec = three_tank_spec(
        lrc_u=0.99, functions=bind_control_functions()
    )
    return spec, Simulator(
        spec,
        three_tank_architecture(),
        implementation or baseline_implementation(),
        environment=ThreeTankEnvironment(),
        faults=BernoulliFaults(three_tank_architecture()),
        actuator_communicators=ACTUATORS,
        seed=seed,
    ).run(iterations)


def test_record_from_scalar_result():
    spec, result = scalar_result()
    record = record_from_result(
        spec,
        three_tank_architecture(),
        baseline_implementation(),
        result,
        run_id=derive_run_id(11),
        command="scalar",
        seed=11,
    )
    assert record.iterations == 20 and record.runs == 1
    assert record.rates == {
        name: pytest.approx(value)
        for name, value in result.limit_averages().items()
    }
    # Ledger margins agree with the result's own empirical margins.
    margins = result.empirical_margins()
    for name, value in record.margins().items():
        assert value == pytest.approx(margins[name])
    for digest in (record.spec_hash, record.arch_hash, record.impl_hash):
        assert len(digest) == 12


def test_record_from_batch_result_pools_rates():
    spec = three_tank_spec(lrc_u=0.99)
    batch = BatchSimulator(
        spec,
        three_tank_architecture(),
        baseline_implementation(),
        faults=BernoulliFaults(three_tank_architecture()),
        seed=5,
    )
    result = batch.run_batch(4, 10)
    record = record_from_result(
        spec,
        three_tank_architecture(),
        baseline_implementation(),
        result,
        run_id=derive_run_id(5),
        command="batch",
        seed=5,
        runs=4,
    )
    assert record.executor == result.executor
    margins = result.empirical_margins()
    for name, value in record.margins().items():
        assert value == pytest.approx(margins[name])


def test_implementation_change_changes_hash():
    spec, result = scalar_result()
    common = dict(run_id="s11", command="scalar", seed=11)
    arch = three_tank_architecture()
    a = record_from_result(
        spec, arch, baseline_implementation(), result, **common
    )
    b = record_from_result(
        spec, arch, scenario1_implementation(), result, **common
    )
    assert a.impl_hash != b.impl_hash
    assert a.spec_hash == b.spec_hash
    assert a.arch_hash == b.arch_hash


# ----------------------------------------------------------------------
# Rendering.
# ----------------------------------------------------------------------


def test_render_record_marks_low_margins():
    record = make_record(
        rates={"u1": 0.999, "u2": 0.985}, lrcs={"u1": 0.99, "u2": 0.99}
    )
    record.entry = 0
    text = render_record(record)
    assert "[ok ] u1" in text
    assert "[LOW] u2" in text
    assert "margin -0.005000" in text


def test_render_listing_and_diff(tmp_path):
    ledger = RunLedger(tmp_path)
    ledger.append(
        make_record("s1", rates={"u1": 0.999}, lrcs={"u1": 0.99})
    )
    ledger.append(
        make_record(
            "s2",
            rates={"u1": 0.95},
            lrcs={"u1": 0.99},
            impl_hash="ddd",
        )
    )
    records = ledger.records()
    listing = render_listing(records)
    assert "#0" in listing and "#1" in listing
    assert "min margin" in listing
    assert render_listing([]) == "ledger is empty"
    diff = render_diff(records[0], records[1])
    assert "#0 (s1) -> #1 (s2)" in diff
    assert "note: implementation changed" in diff
    assert "[-0.049000]" in diff
