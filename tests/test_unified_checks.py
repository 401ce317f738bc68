"""The redundancy styles are parameters of the paper's two checks.

Re-execution counts and time-dependent mappings enter the one SRG
induction (:func:`repro.reliability.communicator_srgs`), and WCET
inflation enters the one schedulability check through
:func:`repro.sched.inflate_wcet`; the plain analyses are the special
cases, bit for bit.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mapping import TimeDependentImplementation
from repro.reliability import check_reliability, communicator_srgs
from repro.sched import check_schedulability, inflate_wcet

from strategies import systems

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@RELAXED
@given(systems())
def test_single_attempts_are_the_plain_srgs(system):
    spec, arch, impl = system
    once = {task: 1 for task in spec.tasks}
    assert communicator_srgs(spec, impl, arch, attempts=once) == (
        communicator_srgs(spec, impl, arch)
    )


@RELAXED
@given(systems(), st.integers(min_value=1, max_value=2))
def test_identical_phases_are_the_static_srgs(system, phases):
    spec, arch, impl = system
    periodic = TimeDependentImplementation([impl] * phases)
    assert communicator_srgs(spec, periodic, arch) == (
        communicator_srgs(spec, impl, arch)
    )


@RELAXED
@given(systems())
def test_time_dependent_reliability_is_the_phase_mean(system):
    spec, arch, impl = system
    boosted = impl
    for task in spec.tasks:
        boosted = boosted.with_assignment(task, set(arch.host_names()))
    report = check_reliability(
        spec, arch, TimeDependentImplementation([impl, boosted])
    )
    first = communicator_srgs(spec, impl, arch)
    second = communicator_srgs(spec, boosted, arch)
    for name in spec.communicators:
        mean = (first[name] + second[name]) / 2
        assert report.verdict_for(name).srg == mean


@RELAXED
@given(systems())
def test_identity_inflation_keeps_the_schedulability_report(system):
    spec, arch, impl = system
    same = inflate_wcet(spec, arch, lambda task, wcet: wcet)
    assert check_schedulability(spec, same, impl) == (
        check_schedulability(spec, arch, impl)
    )
