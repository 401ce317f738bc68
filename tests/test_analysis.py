"""Unit tests for the abstract-interpretation verifier (repro.analysis)."""

import math

import pytest

from repro.analysis import (
    AnalysisCache,
    BoundVerdict,
    FeasibilityOracle,
    Interval,
    TOP,
    Verifier,
    analyze_specification,
    is_feasible,
)
from repro.analysis.cache import cone_key
from repro.analysis.domain import or_reliability
from repro.analysis.witness import Factor, minimal_witness
from repro.errors import AnalysisError, MappingError
from repro.experiments import (
    brake_baseline_implementation,
    brake_by_wire_architecture,
    brake_by_wire_spec,
    baseline_implementation,
    cyclic_specification,
    three_tank_architecture,
    three_tank_spec,
)
from repro.mapping import Implementation
from repro.reliability import communicator_srgs
from repro.reliability.srg import input_gain


@pytest.fixture
def tank():
    spec = three_tank_spec()
    arch = three_tank_architecture()
    return spec, arch, baseline_implementation()


@pytest.fixture
def brake():
    spec = brake_by_wire_spec()
    arch = brake_by_wire_architecture()
    return spec, arch, brake_baseline_implementation()


# -- interval domain ---------------------------------------------------------


def test_interval_validation():
    with pytest.raises(AnalysisError):
        Interval(0.8, 0.2)
    with pytest.raises(AnalysisError):
        Interval(-0.1, 0.5)
    with pytest.raises(AnalysisError):
        Interval(0.0, 1.5)
    with pytest.raises(AnalysisError):
        Interval(float("nan"), 1.0)


def test_interval_operations():
    a = Interval(0.2, 0.6)
    b = Interval(0.5, 0.9)
    assert a.hull(b) == Interval(0.2, 0.9)
    assert a.contains(0.2) and a.contains(0.6)
    assert not a.contains(0.7)
    assert Interval.point(0.5).is_point
    assert TOP.contains(0.0) and TOP.contains(1.0)
    assert a.distance(b) == pytest.approx(0.3)


def test_or_reliability():
    assert or_reliability([]) == 0.0
    assert or_reliability([0.9]) == pytest.approx(0.9)
    assert or_reliability([0.9, 0.9]) == pytest.approx(0.99)


# -- witnesses ---------------------------------------------------------------


def test_minimal_witness_is_a_certificate():
    factors = (
        Factor("replication", "t", 0.1, 0.95),
        Factor("sensors", "s", 0.2, 0.8),
        Factor("replication", "u", 0.3, 0.99),
    )
    witness = minimal_witness("c", 0.9, 0.75, factors)
    # The culprit product alone already dooms the LRC; remaining
    # factors are <= 1 so they can only lower it further.
    assert witness.product < 0.9
    assert witness.culprits[0].name == "s"  # weakest first
    assert len(witness.culprits) < len(factors)
    assert "unachievable" in witness.describe()


def test_minimal_witness_skips_a_prefix_within_the_lrc_tolerance():
    # 0.82 * 0.82 == 0.6723999999999999 meets an LRC of 0.6724 within
    # LRC_TOLERANCE, so that prefix certifies nothing: the witness
    # takes the next factor as well.
    factors = (
        Factor("replication", "t", 0.82, 0.82),
        Factor("sensors", "a", 0.82, 0.82),
        Factor("replication", "u", 0.5, 0.9),
    )
    witness = minimal_witness("out", 0.6724, 0.6, factors)
    assert [f.name for f in witness.culprits] == ["a", "t", "u"]


# -- cache -------------------------------------------------------------------


def test_cone_key_sensitivity():
    base = cone_key(["task", "t", 0.9], ())
    assert base == cone_key(["task", "t", 0.9], ())
    assert base != cone_key(["task", "t", 0.8], ())
    assert base != cone_key(["task", "t", 0.9], (base,))


def test_design_key_is_order_independent():
    cache = AnalysisCache()
    key1 = cache.design_key({"a": ["x"], "b": ["y"]})
    key2 = cache.design_key({"b": ["y"], "a": ["x"]})
    assert key1 == key2
    assert key1 != cache.design_key({"a": ["x"], "b": ["z"]})


# -- engine: concrete and free analyses --------------------------------------


def test_concrete_bounds_match_exact_srg(tank):
    spec, arch, impl = tank
    report = analyze_specification(spec, arch, impl)
    exact = communicator_srgs(spec, impl, arch)
    assert report.concrete
    for name, srg in exact.items():
        interval = report.bounds[name].interval
        assert interval.lo == srg
        assert interval.hi == srg


def test_free_bounds_bracket_every_mapping(tank):
    spec, arch, impl = tank
    free = analyze_specification(spec, arch)
    exact = communicator_srgs(spec, impl, arch)
    for name, srg in exact.items():
        assert free.bounds[name].interval.contains(srg, tolerance=1e-12)


def test_free_upper_bound_is_best_implementation(tank):
    spec, arch, _ = tank
    free = analyze_specification(spec, arch)
    everything = Implementation(
        {name: frozenset(arch.host_names()) for name in spec.tasks},
        {
            name: frozenset(arch.sensor_names())
            for name in spec.input_communicators()
        },
    )
    best = communicator_srgs(spec, everything, arch)
    for name, srg in best.items():
        assert free.bounds[name].interval.hi == srg


def test_partial_implementation_narrows_bounds(tank):
    spec, arch, impl = tank
    free = analyze_specification(spec, arch)
    task = sorted(spec.tasks)[0]
    partial = Implementation(
        {task: impl.hosts_of(task)}, {}
    )
    narrowed = analyze_specification(spec, arch, partial)
    for name in spec.communicators:
        wide = free.bounds[name].interval
        narrow = narrowed.bounds[name].interval
        assert wide.lo <= narrow.lo + 1e-12
        assert narrow.hi <= wide.hi + 1e-12


def test_partial_implementation_with_unknown_host_rejected(tank):
    spec, arch, _ = tank
    bogus = Implementation({sorted(spec.tasks)[0]: {"ghost"}}, {})
    with pytest.raises(MappingError):
        analyze_specification(spec, arch, bogus)


def test_verdicts(tank):
    spec, arch, _ = tank
    report = analyze_specification(spec, arch)
    assert report.proved and report.feasible
    hot = spec.replace_lrcs({"u1": 1.0})
    report = analyze_specification(hot, arch)
    assert not report.feasible
    bound = report.bounds["u1"]
    assert bound.verdict is BoundVerdict.INFEASIBLE
    witness = bound.witness()
    assert witness is not None
    assert witness.product < 1.0
    assert all(f.hi <= 1.0 for f in witness.culprits)


def test_unsafe_cycle_collapses_lower_bounds():
    spec = cyclic_specification("series")
    arch = three_tank_architecture()
    report = analyze_specification(spec, arch)
    assert report.unsafe_cycles
    members = set().union(*map(set, report.unsafe_cycles))
    for name in members:
        assert report.bounds[name].interval.lo == 0.0


def test_widening_reported_when_iteration_truncated():
    spec = cyclic_specification("series")
    arch = three_tank_architecture()
    report = analyze_specification(
        spec, arch, max_iterations=1, epsilon=0.0
    )
    assert report.widenings
    event = report.widenings[0]
    assert event.iterations == 1
    codes = {d.code for d in report.diagnostics()}
    assert "LRT062" in codes


# -- incremental cache -------------------------------------------------------


def test_design_level_cache_hit(tank):
    spec, arch, impl = tank
    cache = AnalysisCache()
    first = analyze_specification(spec, arch, impl, cache=cache)
    assert not first.design_cache_hit
    assert first.evaluated
    second = analyze_specification(spec, arch, impl, cache=cache)
    assert second.design_cache_hit
    assert second.evaluated == ()
    assert {n: b.interval for n, b in second.bounds.items()} == {
        n: b.interval for n, b in first.bounds.items()
    }


def test_lrc_edit_is_design_cache_hit(tank):
    # LRCs are excluded from bound signatures: they change verdicts,
    # never the certified intervals, so an LRC edit re-verifies from
    # the design-level cache without touching the graph.
    spec, arch, impl = tank
    cache = AnalysisCache()
    analyze_specification(spec, arch, impl, cache=cache)
    edited = spec.replace_lrcs({"u1": 1.0})
    report = analyze_specification(edited, arch, impl, cache=cache)
    assert report.design_cache_hit
    assert not report.feasible


def test_one_communicator_edit_reruns_only_downstream_cone(tank):
    spec, arch, impl = tank
    cache = AnalysisCache()
    analyze_specification(spec, arch, impl, cache=cache)
    # Rebind one input communicator to a different sensor: only its
    # dependency cone (s1 -> l1/r1 readers -> ...) may recompute.
    edited = Implementation(
        {name: impl.hosts_of(name) for name in spec.tasks},
        {
            name: (
                frozenset({arch.sensor_names()[-1]})
                if name == "s1"
                else impl.sensors_of(name)
            )
            for name in spec.input_communicators()
        },
    )
    report = analyze_specification(spec, arch, edited, cache=cache)
    assert not report.design_cache_hit
    assert report.evaluated
    touched = set(report.evaluated)
    assert "s1" in touched
    # The sibling tank's chain is untouched by construction.
    assert "s2" not in touched
    assert touched < set(spec.communicators)


def test_verifier_memoizes_reports(tank):
    spec, arch, impl = tank
    verifier = Verifier()
    first = verifier.verify(spec, arch, impl)
    assert verifier.verify(spec, arch, impl) is first
    fp1 = Verifier.design_fingerprint(spec, arch, impl)
    fp2 = Verifier.design_fingerprint(
        spec.replace_lrcs({"u1": 0.5}), arch, impl
    )
    assert fp1 != fp2


# -- oracle ------------------------------------------------------------------


def test_oracle_agrees_with_report(tank):
    spec, arch, impl = tank
    oracle = FeasibilityOracle(spec, arch)
    assert oracle.is_feasible()
    assert oracle.is_feasible(impl)
    assert is_feasible(spec, arch, impl)
    hot = spec.replace_lrcs({"u1": 1.0})
    assert not is_feasible(hot, arch)


def test_oracle_completion_bounds_are_sound(tank):
    spec, arch, impl = tank
    oracle = FeasibilityOracle(spec, arch)
    exact = communicator_srgs(spec, impl, arch)
    bounds = oracle.completion_upper_bounds({})
    assert bounds is not None
    for name, srg in exact.items():
        assert bounds[name] >= srg - 1e-12
    # Fixing every SRG at its exact value reproduces feasibility.
    assert oracle.completion_feasible(dict(exact)) == all(
        srg >= spec.communicators[name].lrc - 1e-9
        for name, srg in exact.items()
    )


def test_oracle_completion_bounds_per_attempt_bound(tank):
    spec, arch, _ = tank
    oracle = FeasibilityOracle(spec, arch)
    brel = arch.network.reliability
    once = oracle.completion_upper_bounds({})
    assert oracle.completion_upper_bounds({}, attempts=1) == once
    twice = oracle.completion_upper_bounds({}, attempts=2)
    free_once = or_reliability(arch.hrel(h) * brel for h in arch.host_names())
    free_twice = 1.0 - math.prod(
        (1.0 - arch.hrel(h) * brel) ** 2 for h in arch.host_names()
    )
    for name, bound in once.items():
        writer = spec.writer_of(name)
        if writer is None:
            assert twice[name] == bound
            continue
        # One attempt: the free task bound of the plain OR product.
        assert bound == free_once * input_gain(writer, once)
        assert twice[name] == free_twice * input_gain(writer, twice)
        assert twice[name] >= bound


def test_oracle_explain(tank):
    spec, arch, _ = tank
    hot = spec.replace_lrcs({"u1": 1.0})
    oracle = FeasibilityOracle(hot, arch)
    witness = oracle.explain("u1")
    assert witness is not None
    assert witness.communicator == "u1"
    assert oracle.explain("s1") is None  # feasible: no witness


# -- brake-by-wire coverage --------------------------------------------------


def test_brake_by_wire_concrete_and_free(brake):
    spec, arch, impl = brake
    exact = communicator_srgs(spec, impl, arch)
    concrete = analyze_specification(spec, arch, impl)
    free = analyze_specification(spec, arch)
    for name, srg in exact.items():
        assert concrete.bounds[name].interval.lo == srg
        assert concrete.bounds[name].interval.hi == srg
        assert free.bounds[name].interval.contains(srg, tolerance=1e-12)


# -- report plumbing ---------------------------------------------------------


def test_report_serialization(tank):
    spec, arch, impl = tank
    report = analyze_specification(spec, arch, impl)
    data = report.to_dict()
    assert data["feasible"] is True
    assert data["concrete"] is True
    assert len(data["bounds"]) == len(spec.communicators)
    assert report.to_json()
    assert report.summary().startswith("verification report")
    assert math.isfinite(report.min_lower_margin())
