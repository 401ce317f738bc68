"""Tests for the command-line front-end."""

import json
import re

import pytest

from repro.cli import main
from repro.experiments import (
    BRAKE_BY_WIRE_HTL,
    THREE_TANK_HTL,
    brake_by_wire_architecture,
    baseline_implementation,
    scenario1_implementation,
    three_tank_architecture,
    three_tank_htl,
)
from repro.io import (
    architecture_to_dict,
    implementation_from_dict,
    implementation_to_dict,
)

BINDINGS = """
def _hold(level):
    return 0.0

FUNCTIONS = {
    "read1": lambda s: s,
    "read2": lambda s: s,
    "t1": lambda l: 0.0001,
    "t2": lambda l: 0.0001,
    "estimate1": lambda l, u: 0.0,
    "estimate2": lambda l, u: 0.0,
    "t1_hold": _hold,
    "t2_hold": _hold,
}
CONDITIONS = {}
"""


@pytest.fixture
def workspace(tmp_path):
    htl = tmp_path / "three_tank.htl"
    htl.write_text(THREE_TANK_HTL)
    strict_htl = tmp_path / "three_tank_strict.htl"
    strict_htl.write_text(three_tank_htl(lrc_u=0.9975))
    arch = tmp_path / "arch.json"
    arch.write_text(
        json.dumps(architecture_to_dict(three_tank_architecture()))
    )
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(implementation_to_dict(baseline_implementation()))
    )
    scenario1 = tmp_path / "scenario1.json"
    scenario1.write_text(
        json.dumps(implementation_to_dict(scenario1_implementation()))
    )
    bindings = tmp_path / "bindings.py"
    bindings.write_text(BINDINGS)
    return tmp_path


def test_check_command(workspace, capsys):
    status = main(["check", "--htl", str(workspace / "three_tank.htl")])
    assert status == 0
    out = capsys.readouterr().out
    assert "6 tasks" in out
    assert "t1: LET [200, 400]" in out


def test_analyze_valid(workspace, capsys):
    status = main([
        "analyze",
        "--htl", str(workspace / "three_tank.htl"),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "baseline.json"),
    ])
    assert status == 0
    assert "VALID" in capsys.readouterr().out


def test_analyze_invalid_returns_nonzero(workspace, capsys):
    status = main([
        "analyze",
        "--htl", str(workspace / "three_tank_strict.htl"),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "baseline.json"),
    ])
    assert status == 1
    assert "INVALID" in capsys.readouterr().out


def test_synthesize_writes_mapping(workspace, capsys):
    output = workspace / "synth.json"
    status = main([
        "synthesize",
        "--htl", str(workspace / "three_tank_strict.htl"),
        "--arch", str(workspace / "arch.json"),
        "-o", str(output),
    ])
    assert status == 0
    implementation = implementation_from_dict(
        json.loads(output.read_text())
    )
    # The synthesiser rediscovers scenario 2: duplicated sensors.
    assert len(implementation.sensors_of("s1")) >= 2
    out = capsys.readouterr().out
    assert "synthesised" in out


def test_ecode_command(workspace, capsys):
    status = main([
        "ecode",
        "--htl", str(workspace / "three_tank.htl"),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "scenario1.json"),
    ])
    assert status == 0
    out = capsys.readouterr().out
    assert "e-code (period 500)" in out
    assert "RELEASE t1" in out
    assert "distributed timeline" in out


def test_report_command(workspace, capsys):
    status = main([
        "report",
        "--htl", str(workspace / "three_tank_strict.htl"),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "baseline.json"),
    ])
    assert status == 1  # strict requirement, baseline mapping: invalid
    out = capsys.readouterr().out
    assert "design report" in out
    assert "single-component upgrades" in out


def test_simulate_with_bindings(workspace, capsys):
    status = main([
        "simulate",
        "--htl", str(workspace / "three_tank.htl"),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "scenario1.json"),
        "--bindings", str(workspace / "bindings.py"),
        "--iterations", "300",
        "--bernoulli",
        "--slack", "0.05",
    ])
    assert status == 0
    out = capsys.readouterr().out
    assert "observed vs analytic SRG" in out


def test_simulate_unplug(workspace, capsys):
    status = main([
        "simulate",
        "--htl", str(workspace / "three_tank.htl"),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "baseline.json"),
        "--bindings", str(workspace / "bindings.py"),
        "--iterations", "100",
        "--unplug", "h2:5000",
    ])
    # u2 dies at t=5000 -> the LRC check fails -> exit status 1.
    assert status == 1
    out = capsys.readouterr().out
    assert "u2" in out


def test_simulate_bad_unplug_syntax(workspace, capsys):
    status = main([
        "simulate",
        "--htl", str(workspace / "three_tank.htl"),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "baseline.json"),
        "--bindings", str(workspace / "bindings.py"),
        "--unplug", "h2",
    ])
    assert status == 2
    assert "HOST:TIME" in capsys.readouterr().err


def test_simulate_unbound_cycle_batch(tmp_path, capsys):
    # A communicator cycle with memory has no SRG, but simulates: the
    # vectorized kernel steps it without any task function bound.
    from repro.arch import Architecture, ExecutionMetrics, Host, Sensor
    from repro.experiments import cyclic_specification_with_input
    from repro.io import specification_to_dict
    from repro.mapping import Implementation

    spec = specification_to_dict(cyclic_specification_with_input())
    spec["tasks"][0]["function"] = "integrate"
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "arch.json").write_text(json.dumps(architecture_to_dict(
        Architecture(
            hosts=[Host("h1", 0.995)],
            sensors=[Sensor("s1", 0.8)],
            metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
        )
    )))
    (tmp_path / "impl.json").write_text(json.dumps(implementation_to_dict(
        Implementation({"integrate": {"h1"}}, {"ext": {"s1"}})
    )))
    status = main([
        "simulate",
        "--spec", str(tmp_path / "spec.json"),
        "--arch", str(tmp_path / "arch.json"),
        "--impl", str(tmp_path / "impl.json"),
        "--runs", "4", "--iterations", "200", "--bernoulli",
        "--monitor",
    ])
    out = capsys.readouterr().out
    assert status == 0, out
    assert "(vectorized)" in out
    assert "SRG undefined (communicator cycle with memory)" in out


def test_missing_spec_is_an_error(workspace, capsys):
    status = main(["check"])
    assert status == 2
    assert "provide a specification" in capsys.readouterr().err


def test_check_with_spec_json(workspace, tmp_path, capsys):
    from repro.experiments import three_tank_spec
    from repro.io import specification_to_dict

    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        json.dumps(specification_to_dict(three_tank_spec()))
    )
    status = main(["check", "--spec", str(spec_file)])
    assert status == 0
    assert "6 tasks" in capsys.readouterr().out


def test_analyze_with_spec_json(workspace, tmp_path, capsys):
    from repro.experiments import three_tank_spec
    from repro.io import specification_to_dict

    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        json.dumps(specification_to_dict(three_tank_spec()))
    )
    status = main([
        "analyze",
        "--spec", str(spec_file),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "baseline.json"),
    ])
    assert status == 0
    assert "VALID" in capsys.readouterr().out


def test_dot_dataflow(workspace, capsys):
    status = main([
        "dot",
        "--htl", str(workspace / "three_tank.htl"),
        "--view", "dataflow",
    ])
    assert status == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph dataflow {")
    assert '"l1" -> "u1"' in out


def test_dot_mapping(workspace, capsys):
    status = main([
        "dot",
        "--htl", str(workspace / "three_tank.htl"),
        "--view", "mapping",
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "baseline.json"),
    ])
    assert status == 0
    assert "cluster_" in capsys.readouterr().out


def test_dot_mapping_requires_arch(workspace, capsys):
    status = main([
        "dot",
        "--htl", str(workspace / "three_tank.htl"),
        "--view", "mapping",
    ])
    assert status == 2
    assert "needs --arch" in capsys.readouterr().err


def test_normalize(workspace, capsys):
    status = main([
        "normalize", "--htl", str(workspace / "three_tank.htl"),
    ])
    assert status == 0
    out = capsys.readouterr().out
    assert out.startswith("program ThreeTankSystem {")
    # Canonical output re-normalises to itself.
    from repro.htl.pretty import normalise

    assert normalise(out) == out


def test_module_entry_point():
    import subprocess
    import sys

    completed = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True, text=True,
    )
    assert completed.returncode == 0
    assert "synthesize" in completed.stdout


def test_check_format_json(workspace, capsys):
    status = main([
        "check",
        "--htl", str(workspace / "three_tank.htl"),
        "--format", "json",
    ])
    assert status == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["period"] == 500
    assert data["tasks"]["t1"]["let"] == [200, 400]


def test_analyze_format_json(workspace, capsys):
    status = main([
        "analyze",
        "--htl", str(workspace / "three_tank.htl"),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "baseline.json"),
        "--format", "json",
    ])
    assert status == 0
    data = json.loads(capsys.readouterr().out)
    assert data["valid"] is True
    assert data["schedulable"] is True
    names = [entry["communicator"] for entry in data["communicators"]]
    assert names == sorted(names)


def test_analyze_format_json_invalid(workspace, capsys):
    status = main([
        "analyze",
        "--htl", str(workspace / "three_tank_strict.htl"),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "baseline.json"),
        "--format", "json",
    ])
    assert status == 1
    data = json.loads(capsys.readouterr().out)
    assert data["valid"] is False
    violated = [
        entry for entry in data["communicators"]
        if not entry["satisfied"]
    ]
    assert violated


# -- lint exit status ------------------------------------------------------


RACY_HTL = """\
program racy {
  communicator a : float period 10 init 0.0 lrc 0.5 ;
  communicator b : float period 10 init 0.0 lrc 0.9 ;
  communicator c : float period 10 init 0.0 lrc 0.9 ;
  module M {
    task t1 input (a[0]) output (b[1]) ;
    task t2 input (b[0]) output (c[1]) ;
    task t3 input (c[0]) output (b[1]) ;
    mode m period 10 { invoke t1 ; invoke t2 ; invoke t3 ; }
  }
}
"""


def test_lint_exits_nonzero_on_lrt_errors(tmp_path, capsys):
    racy = tmp_path / "racy.htl"
    racy.write_text(RACY_HTL)
    status = main(["lint", "--htl", str(racy)])
    assert status == 1
    out = capsys.readouterr().out
    assert "LRT001" in out


def test_lint_exits_zero_on_clean_program(workspace, capsys):
    status = main(["lint", "--htl", str(workspace / "three_tank.htl")])
    assert status == 0


def test_lint_smoke_via_subprocess(tmp_path):
    # The CI smoke contract: `repro lint` exits non-zero on a spec
    # with an LRT error, through the real console entry point.
    import os
    import subprocess
    import sys

    racy = tmp_path / "racy.htl"
    racy.write_text(RACY_HTL)
    env = dict(os.environ)
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--htl", str(racy)],
        capture_output=True, text=True, env=env,
    )
    assert completed.returncode == 1
    assert "error" in completed.stdout


# -- verify ---------------------------------------------------------------


@pytest.fixture
def verify_workspace(tmp_path):
    (tmp_path / "three_tank.htl").write_text(three_tank_htl(lrc_u=0.99))
    (tmp_path / "three_tank_tight.htl").write_text(three_tank_htl(lrc_u=1.0))
    (tmp_path / "three_tank.arch.json").write_text(
        json.dumps(architecture_to_dict(three_tank_architecture()))
    )
    (tmp_path / "brake_by_wire.htl").write_text(BRAKE_BY_WIRE_HTL)
    (tmp_path / "brake_by_wire.arch.json").write_text(
        json.dumps(architecture_to_dict(brake_by_wire_architecture()))
    )
    return tmp_path


@pytest.mark.parametrize("command", ["lint", "verify"])
def test_sarif_into_a_closed_pipe_exits_without_traceback(
    verify_workspace, command
):
    # `repro lint ... --format sarif | head -1`: the reader is gone
    # before the output is written.  Closing the read end first makes
    # the broken pipe certain rather than a race with the reader.
    import os
    import subprocess
    import sys

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", command,
                "--htl", str(verify_workspace / "three_tank.htl"),
                "--arch", str(verify_workspace / "three_tank.arch.json"),
                "--format", "sarif",
            ],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in completed.stderr
    assert completed.returncode == 1


def _verify(workspace, design, *extra):
    arch = "brake_by_wire" if design.startswith("brake") else "three_tank"
    return main([
        "verify",
        "--htl", str(workspace / f"{design}.htl"),
        "--arch", str(workspace / f"{arch}.arch.json"),
        *extra,
    ])


def test_verify_text_feasible(verify_workspace, capsys):
    assert _verify(verify_workspace, "three_tank") == 0
    out = capsys.readouterr().out
    assert "overall:" in out
    assert "INFEASIBLE" not in out


def test_verify_json_brake_by_wire(verify_workspace, capsys):
    assert _verify(
        verify_workspace, "brake_by_wire", "--format", "json"
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["feasible"] is True
    assert len(data["selections"]) == 4


def test_verify_sarif_parses(verify_workspace, capsys):
    assert _verify(verify_workspace, "three_tank", "--format", "sarif") == 0
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    assert len(log["runs"]) == 1


def test_verify_explain_one_block_per_selection(verify_workspace, capsys):
    assert _verify(verify_workspace, "three_tank", "--format", "json") == 0
    selections = len(json.loads(capsys.readouterr().out)["selections"])
    assert _verify(verify_workspace, "three_tank", "--explain", "u1") == 0
    out = capsys.readouterr().out
    assert out.count("u1 in selection") == selections
    assert "certified bounds" in out


def test_verify_infeasible_exits_1(verify_workspace, capsys):
    assert _verify(verify_workspace, "three_tank_tight") == 1
    assert "overall: INFEASIBLE" in capsys.readouterr().out


def test_verify_explain_unknown_communicator_exits_2(
    verify_workspace, capsys
):
    assert _verify(verify_workspace, "three_tank", "--explain", "nope") == 2
    assert "nope" in capsys.readouterr().err


def test_verify_syntax_error_names_file_line_column(
    verify_workspace, capsys
):
    bad = verify_workspace / "bad.htl"
    bad.write_text("program p { x\n")
    assert _verify(verify_workspace, "bad") == 2
    assert f"{bad}:1:13" in capsys.readouterr().err


def test_verify_runs_without_scipy(verify_workspace):
    # scipy is optional (only the statistical LRC tests need it): the
    # CLI must import and verify with scipy unimportable.
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    blocker = verify_workspace / "no_scipy"
    blocker.mkdir()
    (blocker / "sitecustomize.py").write_text(
        "import sys\nsys.modules['scipy'] = None\n"
    )
    source_root = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(blocker), str(source_root), env.get("PYTHONPATH", "")]
    )
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro", "verify",
            "--htl", str(verify_workspace / "three_tank.htl"),
            "--arch", str(verify_workspace / "three_tank.arch.json"),
        ],
        capture_output=True, text=True, env=env,
    )
    assert completed.returncode == 0, completed.stderr
    assert "overall:" in completed.stdout


# -- online monitoring and recovery ---------------------------------------


def test_simulate_monitor_writes_events(workspace, tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    status = main([
        "simulate",
        "--htl", str(workspace / "three_tank.htl"),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "baseline.json"),
        "--bindings", str(workspace / "bindings.py"),
        "--iterations", "100",
        "--unplug", "h2:5000",
        "--monitor",
        "--events", str(events),
    ])
    # The unplug drives u2 below its LRC: alarm events + exit 1.
    assert status == 1
    out = capsys.readouterr().out
    assert "lrc-alarm" in out
    lines = [
        json.loads(line)
        for line in events.read_text().splitlines() if line
    ]
    assert any(
        e["kind"] == "lrc-alarm" and e["communicator"] == "u2"
        for e in lines
    )


def test_simulate_recover_re_replicate(workspace, capsys):
    status = main([
        "simulate",
        "--htl", str(workspace / "three_tank.htl"),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "scenario1.json"),
        "--bindings", str(workspace / "bindings.py"),
        "--iterations", "60",
        "--unplug", "h2:5000",
        "--recover", "re-replicate",
    ])
    assert status == 0
    out = capsys.readouterr().out
    assert "recovery-committed" in out


def test_simulate_recover_degrade_needs_impl(workspace, capsys):
    status = main([
        "simulate",
        "--htl", str(workspace / "three_tank.htl"),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "baseline.json"),
        "--bindings", str(workspace / "bindings.py"),
        "--recover", "degrade",
    ])
    assert status == 2
    assert "--degrade-impl" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Telemetry: --trace / --metrics / --profile and the trace command.
# ----------------------------------------------------------------------


def _simulate(workspace, *extra):
    return main([
        "simulate",
        "--htl", str(workspace / "three_tank.htl"),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "baseline.json"),
        "--bindings", str(workspace / "bindings.py"),
        *extra,
    ])


def test_simulate_trace_writes_chrome_json(workspace, tmp_path, capsys):
    trace = tmp_path / "trace.json"
    status = _simulate(
        workspace, "--iterations", "20", "--bernoulli",
        "--trace", str(trace),
    )
    assert status == 0
    assert "trace events" in capsys.readouterr().out
    doc = json.loads(trace.read_text())
    events = doc["traceEvents"]
    assert isinstance(events, list) and events
    assert doc["otherData"]["run_id"] == "s0"
    for event in events:
        assert {"name", "cat", "ph", "ts", "pid", "tid"} <= set(event)
        if event["ph"] == "X":
            assert "dur" in event
        elif event["ph"] == "i":
            assert event["s"] == "t"
    assert any(e["cat"] == "iteration" for e in events)


def test_simulate_trace_jsonl_extension(workspace, tmp_path):
    trace = tmp_path / "trace.jsonl"
    assert _simulate(
        workspace, "--iterations", "5", "--trace", str(trace),
    ) == 0
    docs = [
        json.loads(line)
        for line in trace.read_text().splitlines() if line
    ]
    assert docs and all("ph" in d for d in docs)


def test_simulate_metrics_and_profile(workspace, tmp_path, capsys):
    metrics = tmp_path / "metrics.prom"
    status = _simulate(
        workspace, "--iterations", "20", "--bernoulli",
        "--metrics", str(metrics), "--profile",
    )
    assert status == 0
    out = capsys.readouterr().out
    assert "metrics dashboard" in out
    assert "stage profile" in out
    text = metrics.read_text()
    assert "# TYPE repro_iterations_total counter" in text
    assert "repro_srg_lrc_margin" in text


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_batch_metrics_and_profile(
    workspace, tmp_path, capsys, jobs
):
    metrics = tmp_path / "metrics.prom"
    status = _simulate(
        workspace, "--iterations", "20", "--runs", "4",
        "--bernoulli", "--metrics", str(metrics), "--profile",
        "--jobs", jobs,
    )
    assert status == 0
    out = capsys.readouterr().out
    assert "repro_batch_runs" in metrics.read_text()
    # Sharded, the kernel stages run in the workers and still count.
    for stage in ("fault-precompute", "status-collapse", "propagate",
                  "reduce"):
        assert stage in out


def test_simulate_batch_trace_is_an_error(workspace, tmp_path, capsys):
    status = _simulate(
        workspace, "--runs", "4",
        "--trace", str(tmp_path / "x.json"),
    )
    assert status == 2
    assert "--runs 1" in capsys.readouterr().err


def test_simulate_recover_trace_stamps_run_id(
    workspace, tmp_path, capsys
):
    trace = tmp_path / "trace.json"
    status = _simulate(
        workspace, "--iterations", "60", "--unplug", "h2:5000",
        "--recover", "re-replicate", "--seed", "7",
        "--trace", str(trace),
    )
    assert status in (0, 1)  # LRC verdict depends on the seed
    doc = json.loads(trace.read_text())
    assert doc["otherData"]["run_id"] == "s7"
    resilience = [
        e for e in doc["traceEvents"] if e["cat"] == "resilience"
    ]
    assert any(e["name"] == "recovery-committed" for e in resilience)
    assert all(e["args"]["run_id"] == "s7" for e in resilience)


def test_trace_command_summarises(workspace, tmp_path, capsys):
    trace = tmp_path / "trace.json"
    _simulate(workspace, "--iterations", "10", "--trace", str(trace))
    capsys.readouterr()
    status = main(["trace", str(trace), "--top", "3"])
    assert status == 0
    out = capsys.readouterr().out
    assert "trace summary" in out
    assert "span stats" in out


def test_trace_command_empty_file_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["trace", str(empty)]) == 2
    assert "empty" in capsys.readouterr().err


def test_trace_command_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ph": "i"}\n{oops\n')
    assert main(["trace", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_trace_command_missing_file_exits_2(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Trace-file robustness (ISSUE 5 satellite).
# ----------------------------------------------------------------------


def test_trace_command_skips_blank_jsonl_lines(workspace, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    _simulate(workspace, "--iterations", "5", "--trace", str(trace))
    padded = tmp_path / "padded.jsonl"
    lines = trace.read_text().splitlines()
    padded.write_text(
        "\n" + "\n\n".join(lines) + "\n\n"
    )
    capsys.readouterr()
    assert main(["trace", str(padded)]) == 0
    assert "trace summary" in capsys.readouterr().out


def test_trace_command_whitespace_only_file_exits_2(tmp_path, capsys):
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n\n   \n")
    assert main(["trace", str(blank)]) == 2
    err = capsys.readouterr().err
    assert "empty" in err
    assert len(err.strip().splitlines()) == 1  # one clean line, no trace


def test_trace_command_truncated_jsonl_exits_2(workspace, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    _simulate(workspace, "--iterations", "5", "--trace", str(trace))
    truncated = tmp_path / "truncated.jsonl"
    text = trace.read_text()
    truncated.write_text(text[: len(text) // 2])  # cut mid-line
    capsys.readouterr()
    assert main(["trace", str(truncated)]) == 2
    err = capsys.readouterr().err
    assert "is not valid JSON" in err
    assert len(err.strip().splitlines()) == 1


def test_trace_command_binary_file_exits_2(tmp_path, capsys):
    binary = tmp_path / "trace.bin"
    binary.write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff\xfe garbage")
    assert main(["trace", str(binary)]) == 2
    assert "is not text" in capsys.readouterr().err


def test_trace_command_non_object_line_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ph": "i", "name": "x"}\n[1, 2]\n')
    assert main(["trace", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Postmortem forensics (ISSUE 5 tentpole).
# ----------------------------------------------------------------------


def _unplug_with_forensics(workspace, tmp_path, capsys):
    forensics = tmp_path / "forensics.json"
    status = _simulate(
        workspace,
        "--iterations", "60",
        "--seed", "7",
        "--bernoulli",
        "--unplug", "h2:5000",
        "--postmortem", str(forensics),
    )
    assert status == 1  # the unplug makes the LRC check fail
    out = capsys.readouterr().out
    assert "wrote forensics" in out
    return forensics


def test_postmortem_names_unplugged_host(workspace, tmp_path, capsys):
    forensics = _unplug_with_forensics(workspace, tmp_path, capsys)
    assert main(["postmortem", str(forensics)]) == 0
    out = capsys.readouterr().out
    # The pull-the-plug acceptance check: the top blame source is the
    # host the run unplugged.
    blame_lines = [l for l in out.splitlines() if "% of blame" in l]
    assert blame_lines and "host:h2" in blame_lines[0]
    assert "unreliable writes by communicator" in out
    assert "u2" in out


def test_postmortem_counterfactual_mask(workspace, tmp_path, capsys):
    forensics = _unplug_with_forensics(workspace, tmp_path, capsys)
    assert main([
        "postmortem", str(forensics), "--mask", "host:h2",
    ]) == 0
    out = capsys.readouterr().out
    assert "counterfactual: with host:h2 up" in out
    # Masking the root cause flips at least one unreliable write.
    match = re.search(r"(\d+) of (\d+) unreliable\s+writes", out)
    assert match and int(match.group(1)) > 0


def test_postmortem_json_format(workspace, tmp_path, capsys):
    forensics = _unplug_with_forensics(workspace, tmp_path, capsys)
    assert main([
        "postmortem", str(forensics),
        "--mask", "host:h2,sensor:sen1",
        "--format", "json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["blame"][0]["source"] == "host:h2"
    (cf,) = doc["counterfactuals"]
    assert cf["masked"] == ["host:h2", "sensor:sen1"]
    assert cf["flips"] > 0


def test_postmortem_bad_mask_exits_2(workspace, tmp_path, capsys):
    forensics = _unplug_with_forensics(workspace, tmp_path, capsys)
    assert main(["postmortem", str(forensics), "--mask", "h2"]) == 2
    assert "KIND:NAME" in capsys.readouterr().err


def test_postmortem_rejects_non_forensics_file(tmp_path, capsys):
    assert main(["postmortem", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
    other = tmp_path / "other.json"
    other.write_text('{"traceEvents": []}')
    assert main(["postmortem", str(other)]) == 2
    assert "chains" in capsys.readouterr().err


def test_postmortem_needs_single_run(workspace, tmp_path, capsys):
    status = _simulate(
        workspace,
        "--runs", "4",
        "--postmortem", str(tmp_path / "f.json"),
    )
    assert status == 2
    assert "single run" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The run ledger (ISSUE 5 tentpole).
# ----------------------------------------------------------------------


def test_simulate_records_ledger_and_runs_cli(
    workspace, tmp_path, capsys
):
    ledger = tmp_path / "runs"
    for seed in ("3", "4"):
        _simulate(
            workspace,
            "--iterations", "40",
            "--seed", seed,
            "--bernoulli",
            "--ledger", str(ledger),
        )
    out = capsys.readouterr().out
    assert "ledger: recorded entry #0" in out
    assert "ledger: recorded entry #1" in out

    assert main(["runs", "list", "--ledger", str(ledger)]) == 0
    listing = capsys.readouterr().out
    assert "#0" in listing and "#1" in listing and "min margin" in listing

    assert main(["runs", "show", "--ledger", str(ledger)]) == 0
    shown = capsys.readouterr().out
    assert "ledger entry #1" in shown  # default entry is 'latest'
    assert "per-communicator rates and LRC margins" in shown

    assert main([
        "runs", "diff", "#0", "#1", "--ledger", str(ledger),
    ]) == 0
    assert "ledger diff: #0" in capsys.readouterr().out

    # Two healthy seeds stay within a generous threshold.
    assert main([
        "runs", "regress", "--ledger", str(ledger),
        "--baseline", "#0", "--threshold", "0.05",
    ]) == 0
    assert "regress OK" in capsys.readouterr().out


def test_runs_regress_fails_on_margin_drop(workspace, tmp_path, capsys):
    ledger = tmp_path / "runs"
    _simulate(
        workspace,
        "--iterations", "60", "--seed", "7",
        "--ledger", str(ledger),
    )
    _simulate(
        workspace,
        "--iterations", "60", "--seed", "7",
        "--unplug", "h2:5000",
        "--ledger", str(ledger),
    )
    capsys.readouterr()
    status = main([
        "runs", "regress", "--ledger", str(ledger), "--baseline", "#0",
    ])
    assert status == 1
    out = capsys.readouterr().out
    assert "regress FAIL" in out
    assert "u2" in out


def test_runs_on_missing_ledger(tmp_path, capsys):
    ledger = tmp_path / "void"
    assert main(["runs", "list", "--ledger", str(ledger)]) == 0
    assert "ledger is empty" in capsys.readouterr().out
    assert main(["runs", "show", "--ledger", str(ledger)]) == 2
    assert "is empty" in capsys.readouterr().err


def test_resilient_simulate_records_ledger_and_forensics(
    workspace, tmp_path, capsys
):
    ledger = tmp_path / "runs"
    forensics = tmp_path / "forensics.json"
    status = _simulate(
        workspace,
        "--iterations", "60",
        "--seed", "7",
        "--unplug", "h2:5000",
        "--monitor",
        "--postmortem", str(forensics),
        "--ledger", str(ledger),
    )
    out = capsys.readouterr().out
    assert "wrote forensics" in out
    assert "ledger: recorded entry #0" in out
    doc = json.loads(forensics.read_text())
    # The monitor alarm froze an aggregate chain via the event relay.
    alarms = [c for c in doc["chains"] if c["trigger"] == "lrc-alarm"]
    assert alarms
    # ...live, in the iteration it was raised (3TS period: 500).
    for alarm in alarms:
        assert alarm["iteration"] == alarm["time"] // 500
    assert main(["postmortem", str(forensics)]) == 0
    assert "host:h2" in capsys.readouterr().out


def test_simulate_resilient_batch_records_ledger_and_events(
    workspace, tmp_path, capsys
):
    ledger = tmp_path / "runs"
    events = tmp_path / "events.jsonl"
    status = main([
        "simulate",
        "--htl", str(workspace / "three_tank.htl"),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "scenario1.json"),
        "--bindings", str(workspace / "bindings.py"),
        "--iterations", "60",
        "--unplug", "h2:5000",
        "--recover", "re-replicate",
        "--runs", "3",
        "--ledger", str(ledger),
        "--events", str(events),
    ])
    assert status == 0
    (record,) = [
        json.loads(line)
        for line in (ledger / "ledger.jsonl").read_text().splitlines()
    ]
    assert record["command"] == "resilient-batch"
    assert record["executor"] == "scalar-resilient"
    lines = [
        json.loads(line)
        for line in events.read_text().splitlines() if line
    ]
    assert lines and record["events"] == len(lines)
    assert all(e["run"] in (0, 1, 2) for e in lines)


# ----------------------------------------------------------------------
# Input validation (PR 7 satellite) and sharded batches.
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "extra, message",
    [
        (("--runs", "0"), "--runs must be >= 1"),
        (("--runs", "-3"), "--runs must be >= 1"),
        (("--iterations", "0"), "--iterations must be >= 1"),
        (("--runs", "5", "--jobs", "0"), "--jobs must be >= 1"),
        (("--runs", "5", "--jobs", "-2"), "--jobs must be >= 1"),
        (("--runs", "1", "--jobs", "2"), "use --runs > 1"),
        (
            ("--recover", "re-replicate", "--runs", "3", "--jobs", "2"),
            "drop --jobs",
        ),
        (("--unplug", "h2:abc"), "HOST:TIME"),
        (("--unplug", "h9:10"), "'h9' is not in the architecture"),
    ],
)
def test_simulate_input_validation_exits_2(
    workspace, capsys, extra, message
):
    status = _simulate(workspace, *extra)
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert len(err.strip().splitlines()) == 1  # one line, no traceback


def test_simulate_jobs_output_matches_serial(
    workspace, tmp_path, capsys
):
    common = (
        "--iterations", "60", "--runs", "20", "--seed", "3",
        "--bernoulli",
    )
    assert _simulate(
        workspace, *common, "--ledger", str(tmp_path / "serial")
    ) == 0
    serial_out = capsys.readouterr().out
    assert _simulate(
        workspace, *common, "--jobs", "3",
        "--ledger", str(tmp_path / "sharded"),
    ) == 0
    sharded_out = capsys.readouterr().out

    def body(text):
        # Everything except the ledger path line is seed-determined.
        return [
            line for line in text.splitlines()
            if not line.startswith("ledger:")
        ]

    assert body(serial_out) == body(sharded_out)

    def record(path):
        doc = json.loads((path / "ledger.jsonl").read_text())
        del doc["recorded_at"]
        return doc

    assert record(tmp_path / "serial") == record(tmp_path / "sharded")


def test_simulate_and_service_record_the_same_unplug_batch(
    workspace, tmp_path, capsys
):
    # One request through `repro simulate` and through the service's
    # job pipeline: equal ledger records up to the wall-clock stamp.
    from repro.service import ReliabilityService

    assert _simulate(
        workspace, "--bernoulli", "--unplug", "h2:5000",
        "--runs", "16", "--jobs", "2", "--iterations", "60",
        "--seed", "4", "--ledger", str(tmp_path / "cli"),
    ) == 1  # the unplug breaks u2's LRC
    exec(BINDINGS, (namespace := {}))
    service = ReliabilityService(
        ledger=str(tmp_path / "service"), functions=namespace["FUNCTIONS"]
    )
    job = service.submit({
        "htl": (workspace / "three_tank.htl").read_text(),
        "arch": json.loads((workspace / "arch.json").read_text()),
        "impl": json.loads((workspace / "baseline.json").read_text()),
        "runs": 16, "iterations": 60, "seed": 4, "jobs": 2,
        "bernoulli": True, "unplug": [["h2", 5000]],
    })
    service.run_pending()
    assert job.state == "done", job.error
    assert job.result["satisfied"] is False

    def record(path):
        doc = json.loads((path / "ledger.jsonl").read_text())
        del doc["recorded_at"]
        return doc

    assert record(tmp_path / "cli") == record(tmp_path / "service")


def test_serve_and_submit_round_trip(workspace, tmp_path, capsys):
    # Drive the real daemon in-process on an ephemeral port.
    import threading

    from repro.service import ReliabilityService
    from repro.service.server import make_server
    from repro.telemetry import RunLedger

    exec(BINDINGS, (namespace := {}))
    service = ReliabilityService(
        workers=1,
        ledger=str(tmp_path / "runs"),
        functions=namespace["FUNCTIONS"],
    ).start()
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = str(server.server_address[1])
    submit = [
        "submit", "--port", port,
        "--htl", str(workspace / "three_tank.htl"),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "baseline.json"),
        "--runs", "10", "--iterations", "30", "--seed", "2",
    ]
    try:
        assert main(submit) == 0
        out = capsys.readouterr().out
        assert "submitted job-1" in out
        assert '"cache": "miss"' in out
        assert main(submit) == 0
        assert '"cache": "hit"' in capsys.readouterr().out
        assert main(["jobs", "--port", port]) == 0
        listing = capsys.readouterr().out
        assert "job-1" in listing and "cache=hit" in listing
        assert main(["jobs", "--port", port, "--metrics"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["runs_simulated_total"] == 10
        assert metrics["mc_cache_hits"] == 1
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
    assert len(RunLedger(tmp_path / "runs").records()) == 2


def test_submit_unreachable_daemon_exits_2(workspace, capsys):
    status = main([
        "submit", "--port", "1",
        "--htl", str(workspace / "three_tank.htl"),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "baseline.json"),
    ])
    assert status == 2
    assert "cannot reach repro service" in capsys.readouterr().err


def test_serve_rejects_bad_workers(capsys):
    assert main(["serve", "--workers", "0"]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err


def test_serve_rejects_bad_robustness_flags(capsys):
    assert main(["serve", "--queue-limit", "0"]) == 2
    assert "--queue-limit must be >= 1" in capsys.readouterr().err
    assert main(["serve", "--shard-retries", "-1"]) == 2
    assert "--shard-retries must be >= 0" in capsys.readouterr().err
    assert main(["serve", "--shard-deadline", "0"]) == 2
    assert "--shard-deadline must be > 0" in capsys.readouterr().err
    assert main(["serve", "--cache-entries", "0"]) == 2
    assert "--cache-entries must be >= 1" in capsys.readouterr().err
    assert main(["serve", "--timeout", "-2"]) == 2
    assert "--timeout must be > 0" in capsys.readouterr().err


def test_serve_banner_names_the_bound_port(tmp_path):
    # `repro serve --port 0` picks a free port; the first stdout line
    # names it, and load generators parse it with this exact pattern.
    # It must reach a pipe at once, without PYTHONUNBUFFERED.
    import os
    import select
    import signal
    import subprocess
    import sys

    from repro.service import ServiceClient

    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--ledger", str(tmp_path / "runs"), "--queue-limit", "4"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        ready, _, _ = select.select([server.stdout], [], [], 30)
        assert ready, "no banner within 30 s"
        banner = server.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", banner)
        assert match, banner
        assert banner.rstrip().endswith(
            f"(1 worker, ledger {tmp_path / 'runs'}, queue limit 4)"
        )
        client = ServiceClient(port=int(match.group(1)))
        assert client.health()["status"] == "ok"
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=60) == 0
    finally:
        if server.poll() is None:
            server.kill()
        server.stdout.close()


def test_submit_rejects_bad_timeout(workspace, capsys):
    status = main([
        "submit", "--port", "1",
        "--htl", str(workspace / "three_tank.htl"),
        "--arch", str(workspace / "arch.json"),
        "--impl", str(workspace / "baseline.json"),
        "--timeout", "0",
    ])
    assert status == 2
    assert "--timeout must be > 0" in capsys.readouterr().err
