"""Differential testing: reference simulator vs compiled E-machine.

The strongest correctness argument for the compilation path: on
randomly generated systems, under every fault regime, the E-machine
executing generated E-code must produce bit-identical traces and
failure statistics to the reference simulator with the same seed.
"""

import pytest

from repro.experiments import (
    random_architecture,
    random_implementation,
    random_specification,
)
from repro.htl import generate_ecode
from repro.runtime import (
    BernoulliFaults,
    CallbackEnvironment,
    CompositeFaults,
    CrashRepairFaults,
    GilbertElliottChannel,
    GilbertElliottFaults,
    ScriptedFaults,
    Simulator,
    ValueFaults,
    majority_vote,
)
from repro.runtime.emachine import EMachine


def build_system(seed):
    spec = random_specification(
        seed, layers=2, tasks_per_layer=2, inputs=2,
    )
    arch = random_architecture(seed + 1000, hosts=3,
                               reliability_range=(0.85, 0.999))
    impl = random_implementation(spec, arch, seed + 2000,
                                 max_replicas=2)
    return spec, arch, impl


def gilbert_elliott(arch):
    channel = GilbertElliottChannel(good_to_bad=0.05, bad_to_good=0.3)
    return GilbertElliottFaults(
        hosts={host: channel for host in arch.host_names()},
        sensors={sensor: channel for sensor in arch.sensor_names()},
    )


def fault_regimes(arch):
    victim = arch.host_names()[0]
    return {
        "none": lambda: None,
        "bernoulli": lambda: BernoulliFaults(arch),
        "scripted": lambda: ScriptedFaults(
            host_outages={victim: [(80, 400)]}
        ),
        "value": lambda: ValueFaults(
            0.3, hosts={victim}, magnitude=7.0
        ),
        "composite": lambda: CompositeFaults([
            BernoulliFaults(arch),
            ScriptedFaults(host_outages={victim: [(200, 280)]}),
        ]),
        # Stateful injectors: the outage timeline is drawn in
        # ``begin_run``, the Markov chains are reset there.
        "crash-repair": lambda: CrashRepairFaults(
            hosts={host: (300.0, 200.0) for host in arch.host_names()}
        ),
        "gilbert-elliott": lambda: gilbert_elliott(arch),
    }


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "regime",
    [
        "none", "bernoulli", "scripted", "value", "composite",
        "crash-repair", "gilbert-elliott",
    ],
)
def test_emachine_matches_simulator(seed, regime):
    spec, arch, impl = build_system(seed)
    factory = fault_regimes(arch)[regime]
    env = lambda: CallbackEnvironment(  # noqa: E731
        sense_fn=lambda c, t: float(t % 97)
    )
    voter = majority_vote  # tolerates value faults

    reference = Simulator(
        spec, arch, impl, environment=env(), faults=factory(),
        voter=voter, seed=seed,
    ).run(60)
    machine = EMachine(
        generate_ecode(spec, arch, impl), spec, arch, impl,
        environment=env(), faults=factory(), voter=voter, seed=seed,
    )
    compiled = machine.run(60)

    assert reference.values == compiled.values
    assert reference.replica_attempts == compiled.replica_attempts
    assert reference.replica_failures == compiled.replica_failures


@pytest.mark.parametrize("seed", range(6))
def test_reused_runners_match_on_every_run(seed):
    """Stateful injector state must not leak from one run into the next."""
    spec, arch, impl = build_system(seed)
    env = lambda: CallbackEnvironment(  # noqa: E731
        sense_fn=lambda c, t: float(t % 97)
    )
    simulator = Simulator(
        spec, arch, impl, environment=env(), faults=gilbert_elliott(arch),
        voter=majority_vote, seed=seed,
    )
    machine = EMachine(
        generate_ecode(spec, arch, impl), spec, arch, impl,
        environment=env(), faults=gilbert_elliott(arch),
        voter=majority_vote, seed=seed,
    )
    for _ in range(2):
        reference = simulator.run(60)
        compiled = machine.run(60)
        assert reference.values == compiled.values
        assert reference.replica_attempts == compiled.replica_attempts
        assert reference.replica_failures == compiled.replica_failures
