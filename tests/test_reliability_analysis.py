"""Tests for the Proposition 1 analysis and its reports."""

import pytest

from repro.experiments import (
    alternating_implementation,
    cyclic_specification,
    general_example,
    static_implementations,
)
from repro.mapping import Implementation, TimeDependentImplementation
from repro.reliability import check_reliability
from repro.reliability.analysis import CommunicatorVerdict


def test_verdict_margin_and_satisfaction():
    good = CommunicatorVerdict("c", srg=0.95, lrc=0.9)
    assert good.satisfied
    assert good.margin == pytest.approx(0.05)
    bad = CommunicatorVerdict("c", srg=0.85, lrc=0.9)
    assert not bad.satisfied
    assert bad.margin == pytest.approx(-0.05)


def test_verdict_tolerates_float_boundary():
    # (0.95 + 0.85) / 2 is one ulp below 0.9 in binary floating point.
    verdict = CommunicatorVerdict("c", srg=(0.95 + 0.85) / 2, lrc=0.9)
    assert verdict.satisfied


def test_pipeline_report(pipe_spec, pipe_arch, pipe_impl):
    report = check_reliability(pipe_spec, pipe_arch, pipe_impl)
    assert report.memory_free
    assert report.unsafe_cycles == ()
    srgs = report.srgs()
    assert srgs["raw"] == pytest.approx(0.98)
    assert srgs["flt"] == pytest.approx(0.98 * 0.99)
    # control replicated on both hosts.
    lam_control = 1 - (1 - 0.99) * (1 - 0.95)
    assert srgs["cmd"] == pytest.approx(0.98 * 0.99 * lam_control)
    assert report.reliable  # all LRCs are 0.9


def test_violations_sorted_worst_first(pipe_spec, pipe_arch, pipe_impl):
    strict = pipe_spec.replace_lrcs({"cmd": 0.999, "flt": 0.995})
    report = check_reliability(strict, pipe_arch, pipe_impl)
    assert not report.reliable
    violations = report.violations()
    assert [v.communicator for v in violations] == ["cmd", "flt"]
    assert violations[0].margin <= violations[1].margin


def test_verdict_for(pipe_spec, pipe_arch, pipe_impl):
    report = check_reliability(pipe_spec, pipe_arch, pipe_impl)
    assert report.verdict_for("raw").srg == pytest.approx(0.98)
    with pytest.raises(KeyError):
        report.verdict_for("nope")


def test_summary_mentions_status(pipe_spec, pipe_arch, pipe_impl):
    report = check_reliability(pipe_spec, pipe_arch, pipe_impl)
    text = report.summary()
    assert "RELIABLE" in text
    assert "cmd" in text


def test_unsafe_cycle_never_reliable():
    spec = cyclic_specification("series", lrc=0.1)
    impl = Implementation({"integrate": {"h1"}})
    from repro.arch import Architecture, ExecutionMetrics, Host

    arch = Architecture(
        hosts=[Host("h1", 0.999)],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )
    import repro.errors

    # The SRG induction itself refuses unsafe cycles.
    with pytest.raises(repro.errors.AnalysisError):
        check_reliability(spec, arch, impl)


def test_safe_cycle_reported_with_memory():
    spec = cyclic_specification("independent", lrc=0.9)
    impl = Implementation({"integrate": {"h1"}})
    from repro.arch import Architecture, ExecutionMetrics, Host

    arch = Architecture(
        hosts=[Host("h1", 0.95)],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )
    report = check_reliability(spec, arch, impl)
    assert not report.memory_free
    assert report.unsafe_cycles == ()
    assert report.reliable
    assert report.srgs()["acc"] == pytest.approx(0.95)
    assert "memory" in report.summary()


# -- the general (time-dependent) example ---------------------------------


def test_static_mappings_both_fail():
    spec, arch = general_example()
    for impl in static_implementations():
        report = check_reliability(spec, arch, impl)
        assert not report.reliable
        violated = {v.communicator for v in report.violations()}
        # Exactly the communicator written on the 0.85 host fails.
        assert len(violated) == 1


def test_alternating_mapping_is_reliable():
    spec, arch = general_example()
    report = check_reliability(spec, arch, alternating_implementation())
    assert report.reliable
    assert report.srgs()["c1"] == pytest.approx(0.9)
    assert report.srgs()["c2"] == pytest.approx(0.9)


def test_timedep_with_single_phase_matches_static(
    pipe_spec, pipe_arch, pipe_impl
):
    static = check_reliability(pipe_spec, pipe_arch, pipe_impl)
    timedep = check_reliability(
        pipe_spec,
        pipe_arch,
        TimeDependentImplementation.static(pipe_impl),
    )
    assert static.srgs() == timedep.srgs()
    assert static.reliable == timedep.reliable


def test_timedep_average_between_phases(pipe_spec, pipe_arch, pipe_impl):
    weaker = Implementation(
        {"filter": {"b"}, "control": {"b"}}, {"raw": {"s"}}
    )
    mixed = TimeDependentImplementation([pipe_impl, weaker])
    strong = check_reliability(pipe_spec, pipe_arch, pipe_impl).srgs()
    weak = check_reliability(pipe_spec, pipe_arch, weaker).srgs()
    combined = check_reliability(pipe_spec, pipe_arch, mixed).srgs()
    for name in pipe_spec.communicators:
        assert combined[name] == pytest.approx(
            (strong[name] + weak[name]) / 2
        )
