"""The paper's concrete numbers, reproduced exactly.

Every figure and in-text result of the evaluation (Section 4) is
asserted here with the values printed in the paper; the benchmark
harness re-derives the same rows with timing attached.
"""

import pytest

from repro import (
    check_reliability,
    check_validity,
    communicator_srgs,
    is_memory_free,
    unsafe_cycles,
)
from repro.experiments import (
    alternating_implementation,
    baseline_implementation,
    cyclic_specification,
    fig1_specification,
    general_example,
    scenario1_implementation,
    scenario2_implementation,
    static_implementations,
    three_tank_architecture,
    three_tank_spec,
)


# -- Fig. 1 (E1) --------------------------------------------------------------


def test_fig1_communicator_periods():
    spec = fig1_specification()
    assert [spec.communicators[c].period for c in ("c1", "c2", "c3", "c4")] \
        == [2, 3, 4, 2]


def test_fig1_let_spans_3_to_8():
    spec = fig1_specification()
    assert spec.read_time("t") == 3
    assert spec.write_time("t") == 8
    read, write = spec.let("t")
    assert write - read == 5  # "The LET of task t is five time units"


def test_fig1_period():
    assert fig1_specification().period() == 12  # lcm(2, 3, 4, 2)


# -- Section 4 baseline SRGs (E2) ----------------------------------------------


@pytest.fixture
def tank():
    return three_tank_spec(), three_tank_architecture()


def test_baseline_srgs_match_paper(tank):
    spec, arch = tank
    srgs = communicator_srgs(spec, baseline_implementation(), arch)
    # "lambda_s1 and lambda_s2 are the same as the sensor reliability"
    assert srgs["s1"] == pytest.approx(0.999, abs=1e-12)
    assert srgs["s2"] == pytest.approx(0.999, abs=1e-12)
    # "lambda_l1 = lambda_read1 * lambda_s1 = 0.998001"
    assert srgs["l1"] == pytest.approx(0.998001, abs=1e-9)
    assert srgs["l2"] == pytest.approx(0.998001, abs=1e-9)
    # "lambda_u1 = lambda_l1 * lambda_t1" = 0.997002999
    assert srgs["u1"] == pytest.approx(0.997002999, abs=1e-9)
    assert srgs["u2"] == pytest.approx(0.997002999, abs=1e-9)


def test_baseline_meets_relaxed_lrc(tank):
    spec, arch = tank
    # "If the LRCs mu_u1 and mu_u2 are 0.99, then the above
    # implementation is reliable."
    report = check_reliability(spec, arch, baseline_implementation())
    assert report.reliable


def test_baseline_violates_strict_lrc():
    spec = three_tank_spec(lrc_u=0.9975)
    arch = three_tank_architecture()
    # "By contrast, if the desired LRCs ... are set to 0.9975, then the
    # above implementation is not reliable."
    report = check_reliability(spec, arch, baseline_implementation())
    assert not report.reliable
    assert {v.communicator for v in report.violations()} == {"u1", "u2"}


# -- Scenario 1 (E3) -------------------------------------------------------------


def test_scenario1_task_replication():
    spec = three_tank_spec(lrc_u=0.9975)
    arch = three_tank_architecture()
    srgs = communicator_srgs(spec, scenario1_implementation(), arch)
    # "The reliability of the task t1 ... is modified to
    # 1 - (1 - 0.999)^2 = 0.999999."
    lambda_t1 = 1 - (1 - 0.999) ** 2
    assert lambda_t1 == pytest.approx(0.999999)
    # SRG(u1) = lambda_l1 * lambda_t1 = 0.998000001998...
    assert srgs["u1"] == pytest.approx(0.998001 * lambda_t1, abs=1e-12)
    assert srgs["u1"] >= 0.9975
    report = check_reliability(spec, arch, scenario1_implementation())
    assert report.reliable


# -- Scenario 2 (E4) -------------------------------------------------------------


def test_scenario2_sensor_replication():
    spec = three_tank_spec(lrc_u=0.9975)
    arch = three_tank_architecture()
    srgs = communicator_srgs(spec, scenario2_implementation(), arch)
    # "lambda_l1 = lambda_read1 * (1 - (1 - 0.999)^2) = 0.998999001"
    assert srgs["l1"] == pytest.approx(0.998999001, abs=1e-9)
    assert srgs["l2"] == pytest.approx(0.998999001, abs=1e-9)
    # "This changes the SRGs of u1 and u2 to 0.998."
    assert srgs["u1"] == pytest.approx(0.998, abs=1e-5)
    assert srgs["u1"] >= 0.9975
    report = check_reliability(spec, arch, scenario2_implementation())
    assert report.reliable


def test_both_scenarios_schedulable_and_valid():
    spec = three_tank_spec(lrc_u=0.9975)
    arch = three_tank_architecture()
    for impl in (scenario1_implementation(), scenario2_implementation()):
        assert check_validity(spec, arch, impl).valid


# -- the general (time-dependent) implementation of Section 3 (E8) ---------------


def test_general_example_numbers():
    spec, arch = general_example()
    first, second = static_implementations()
    srgs_first = communicator_srgs(spec, first, arch)
    assert srgs_first["c1"] == pytest.approx(0.95)
    assert srgs_first["c2"] == pytest.approx(0.85)
    srgs_second = communicator_srgs(spec, second, arch)
    assert srgs_second["c1"] == pytest.approx(0.85)
    assert srgs_second["c2"] == pytest.approx(0.95)
    # Both static mappings violate the 0.9 LRC on one communicator...
    assert not check_reliability(spec, arch, first).reliable
    assert not check_reliability(spec, arch, second).reliable
    # ... but alternating achieves (0.95 + 0.85) / 2 = 0.9 on both.
    report = check_reliability(spec, arch, alternating_implementation())
    assert report.reliable
    assert report.srgs()["c1"] == pytest.approx(0.9)
    assert report.srgs()["c2"] == pytest.approx(0.9)


# -- the specification-with-memory pathology (E7) --------------------------------


def test_cycle_example_structure():
    series = cyclic_specification("series")
    assert not is_memory_free(series)
    assert unsafe_cycles(series) == [["acc"]]
    independent = cyclic_specification("independent")
    assert not is_memory_free(independent)
    assert unsafe_cycles(independent) == []
