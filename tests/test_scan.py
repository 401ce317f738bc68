"""The Boolean prefix scan and the recurrences the kernel solves with it.

:func:`repro.runtime.scan.compose_prefixes` composes per-step Boolean
maps; the batch kernel solves cyclic components and Gilbert–Elliott
chains with it.  The unit tests hold the scan to plain stepping; the
differential tests hold hand-built designs that the generated
``cyclic_systems`` rarely or never draw — two and three lagged state
bits, one writer read lagged on communicators with different initial
values, run lengths around the scan's powers of two, a Gilbert–Elliott
host queried several times per iteration, a Gilbert–Elliott network
and a three-phase plan — bit-identical to the scalar simulator per
spawn child, counts and monitor events.
"""

import dataclasses

import numpy as np
import pytest

from repro.arch import Architecture, ExecutionMetrics, Host, Sensor
from repro.mapping import Implementation, TimeDependentImplementation
from repro.model import Communicator, FailureModel, Specification, Task
from repro.model.values import BOTTOM
from repro.resilience import LrcMonitor, MonitorConfig
from repro.runtime import (
    BatchSimulator,
    BernoulliFaults,
    GilbertElliottChannel,
    GilbertElliottFaults,
    Simulator,
)
from repro.runtime import batch as batch_module
from repro.runtime.scan import compose_prefixes

STEP = 40
RUN_LENGTHS = [1, 2, 3, 64, 65]


def stepped_states(maps, pattern):
    """``(f_t o ... o f_0)(pattern)`` for every ``t``, one step at a time."""
    size, bits, runs, steps = maps.shape
    state = np.array(
        [[bool(pattern >> k & 1)] * runs for k in range(bits)]
    )
    states = np.empty((bits, runs, steps), dtype=bool)
    for t in range(steps):
        entry = sum(state[k].astype(int) << k for k in range(bits))
        state = maps[entry, :, np.arange(runs), t].T
        states[:, :, t] = state
    return states


@pytest.mark.parametrize("steps", RUN_LENGTHS)
@pytest.mark.parametrize("bits", [1, 2, 3])
def test_compose_prefixes_matches_stepping(bits, steps):
    rng = np.random.default_rng(100 * bits + steps)
    maps = rng.random((1 << bits, bits, 3, steps)) < 0.5
    prefixes = compose_prefixes(maps.copy())
    assert prefixes.shape == maps.shape
    for pattern in range(1 << bits):
        assert np.array_equal(
            prefixes[pattern], stepped_states(maps, pattern)
        )


def test_a_constant_first_map_makes_every_prefix_constant():
    rng = np.random.default_rng(7)
    maps = rng.random((4, 2, 2, 33)) < 0.5
    maps[:, :, :, 0] = maps[2, :, :, 0]
    prefixes = compose_prefixes(maps)
    assert all(np.array_equal(prefixes[0], entry) for entry in prefixes)


# ----------------------------------------------------------------------
# Hand-built cyclic designs.
# ----------------------------------------------------------------------


def task(name, inputs, outputs, model):
    width = len(outputs)
    return Task(
        name,
        inputs=inputs,
        outputs=outputs,
        model=model,
        defaults={comm: 0.0 for comm, _ in inputs},
        function=lambda *values: (float(sum(values)),) * width,
    )


def communicators(*names, unreliable=()):
    comms = [Communicator("in0", period=STEP, lrc=0.5, init=0.0)]
    comms += [
        Communicator(
            name, period=STEP, lrc=0.5,
            init=BOTTOM if name in unreliable else 0.0,
        )
        for name in names
    ]
    return comms


def two_bit_design(model):
    """t1 reads itself and t2 lagged; t2 reads t1 in the same iteration
    and itself lagged: two lagged writers."""
    return Specification(
        communicators("c1", "c2"),
        [
            task(
                "t1", [("in0", 0), ("c1", 0), ("c2", 0)], [("c1", 1)],
                model,
            ),
            task("t2", [("c1", 1), ("c2", 1)], [("c2", 2)], model),
        ],
    )


def three_bit_design(model):
    """A chain t1 -> t2 -> t3 in the same iteration, each task reading
    itself lagged and t1 reading t3 lagged: three lagged writers."""
    return Specification(
        communicators("c1", "c2", "c3"),
        [
            task(
                "t1", [("in0", 0), ("c1", 0), ("c3", 0)], [("c1", 1)],
                model,
            ),
            task("t2", [("c1", 1), ("c2", 1)], [("c2", 2)], model),
            task("t3", [("c2", 2), ("c3", 2)], [("c3", 3)], model),
        ],
    )


def two_initial_values_design(model):
    """t1 writes a (reliable initial value) and b (unreliable), and reads
    both lagged; t2 reads b lagged and feeds t1."""
    return Specification(
        communicators("a", "b", "d", unreliable=("b",)),
        [
            task(
                "t1", [("in0", 0), ("a", 0), ("b", 0), ("d", 0)],
                [("a", 1), ("b", 1)], FailureModel.PARALLEL,
            ),
            task("t2", [("in0", 0), ("b", 0)], [("d", 1)], model),
        ],
    )


DESIGNS = {
    "two-bit-series": (lambda: two_bit_design(FailureModel.SERIES), 2),
    "two-bit-parallel": (lambda: two_bit_design(FailureModel.PARALLEL), 2),
    "three-bit-series": (lambda: three_bit_design(FailureModel.SERIES), 3),
    "three-bit-parallel": (
        lambda: three_bit_design(FailureModel.PARALLEL), 3
    ),
    "two-initial-values": (
        lambda: two_initial_values_design(FailureModel.SERIES), 2
    ),
}


def architecture():
    return Architecture(
        hosts=[Host("h1", 0.9), Host("h2", 0.8)],
        sensors=[Sensor("s1", 0.85)],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )


def mapping(spec, hosts):
    return Implementation(
        {name: set(hosts) for name in spec.tasks}, {"in0": {"s1"}}
    )


def assert_matches_scalar(spec, arch, impl, faults, runs, iterations):
    """Counts and monitor events of every run equal the scalar run on
    its spawn child."""
    monitor = MonitorConfig(window=4)
    batch = BatchSimulator(spec, arch, impl, faults=faults(), seed=5)
    result = batch.run_batch(runs, iterations, monitor=monitor)
    assert result.executor == "vectorized"
    for k, child in enumerate(np.random.SeedSequence(5).spawn(runs)):
        run_monitor = LrcMonitor(spec, monitor)
        scalar = Simulator(
            spec, arch, impl,
            faults=faults(),
            seed=np.random.default_rng(child),
            monitor=run_monitor,
        ).run(iterations)
        for name, trace in scalar.abstract().items():
            assert result.reliable_counts[name][k] == trace.reliable_count()
        assert result.monitor_events_for_run(k) == [
            dataclasses.replace(event, run=k) for event in run_monitor.events
        ]


@pytest.mark.parametrize("iterations", RUN_LENGTHS)
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_hand_built_cycles_match_scalar(design, iterations):
    build, bits = DESIGNS[design]
    spec, arch = build(), architecture()
    impl = mapping(spec, ["h1"])
    simulator = BatchSimulator(spec, arch, impl)
    (component,) = [c for c in simulator.plan.batch_order if c.cyclic]
    assert len(simulator._lagged_writers(component.events)) == bits
    assert_matches_scalar(
        spec, arch, impl, lambda: BernoulliFaults(arch), 4, iterations
    )


@pytest.mark.parametrize("iterations", [3, 65])
@pytest.mark.parametrize("design", ["three-bit-parallel", "two-initial-values"])
def test_gilbert_elliott_chains_match_scalar(design, iterations, monkeypatch):
    """Both hosts carry every task (each host is queried several times
    per iteration), the network and the sensor are bursty too, the plan
    has three phases, and the slice crosses run blocks."""
    spec, arch = DESIGNS[design][0](), architecture()
    impl = TimeDependentImplementation(
        [mapping(spec, ["h1", "h2"]), mapping(spec, ["h2"]),
         mapping(spec, ["h1"])]
    )
    channel = GilbertElliottChannel(
        good_to_bad=0.2, bad_to_good=0.4, fail_good=0.05, fail_bad=0.9
    )
    sticky = GilbertElliottChannel(
        good_to_bad=0.6, bad_to_good=0.1, start_bad=True
    )

    def faults():
        return GilbertElliottFaults(
            hosts={"h1": channel, "h2": sticky},
            sensors={"s1": channel},
            network=sticky,
        )

    batch = BatchSimulator(spec, arch, impl, faults=faults())
    once, per_run = batch._block_bytes
    monkeypatch.setattr(
        batch_module, "BLOCK_BYTES", (once + 2 * per_run) * iterations
    )
    assert len(batch._block_bounds(5, iterations)) > 2
    assert_matches_scalar(spec, arch, impl, faults, 5, iterations)
