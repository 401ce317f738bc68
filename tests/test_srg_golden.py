"""Pinned SRG values: every case of the SRG formula, bit for bit.

The paper's SRG induction is evaluated by one function with several
cases: the point SRGs of a mapping (``communicator_srgs``, with and
without re-execution, static and time-dependent), the verifier's
certified intervals (full, half and empty mappings, and a
communicator cycle with memory), the feasibility oracle's completion
bound, the Markov analysis of a self-cycle and the bi-criteria
baseline's system reliability.  Comparing those cases with each other
cannot catch a change to the shared formula, so this test compares
them with values recorded as ``float.hex`` in
``tests/data/srg_golden.json.gz`` (gzipped JSON: about 170 kB of hex
digits packed into about 35 kB).

The inputs are ``random_system`` seeds 0-39, the three-tank baseline,
the replicated brake-by-wire design and the parallel and series
variants of ``cyclic_specification_with_input``.  A verifier value is
``"lo hi digest"``: the interval's two ends and a short digest of the
``repr`` of its witness factors.

Regenerate the data file (only when a change to a number is intended
and explained) with::

    PYTHONPATH=src python tests/test_srg_golden.py --write
"""

from __future__ import annotations

import gzip
import hashlib
import json
import pathlib
import sys

import pytest

from repro.analysis import FeasibilityOracle, Verifier
from repro.arch import Architecture, ExecutionMetrics, Host, Sensor
from repro.errors import SynthesisError
from repro.experiments import (
    baseline_implementation,
    brake_by_wire_architecture,
    brake_by_wire_spec,
    brake_replicated_implementation,
    cyclic_specification_with_input,
    random_system,
    three_tank_architecture,
    three_tank_spec,
)
from repro.mapping import Implementation, TimeDependentImplementation
from repro.reliability import analyze_memory_cycles, communicator_srgs
from repro.synthesis import bicriteria_schedule

DATA = pathlib.Path(__file__).parent / "data" / "srg_golden.json.gz"


def _hexes(values):
    return {name: float(value).hex() for name, value in values.items()}


def _bounds(spec, arch, implementation):
    report = Verifier().verify(spec, arch, implementation)
    return {
        name: (
            f"{bound.interval.lo.hex()} {bound.interval.hi.hex()} "
            + hashlib.sha256(repr(bound.factors).encode()).hexdigest()[:10]
        )
        for name, bound in sorted(report.bounds.items())
    }


def _halved(implementation):
    """Unmap every other task (sorted order); keep the sensor binding."""
    tasks = sorted(implementation.assignment)
    return Implementation(
        {task: implementation.assignment[task] for task in tasks[::2]},
        implementation.sensor_binding,
    )


def _second_phase(spec, arch):
    """Each task on one host (round robin), each input on every sensor."""
    hosts = arch.host_names()
    return Implementation(
        {
            task: {hosts[index % len(hosts)]}
            for index, task in enumerate(sorted(spec.tasks))
        },
        {
            name: set(arch.sensor_names())
            for name in spec.input_communicators()
        },
    )


def _acyclic_cases(spec, arch, implementation):
    oracle = FeasibilityOracle(spec, arch)
    cases = {
        "srgs@1": _hexes(communicator_srgs(spec, implementation, arch)),
        "srgs@2": _hexes(
            communicator_srgs(
                spec, implementation, arch, {t: 2 for t in spec.tasks}
            )
        ),
        "two-phase": _hexes(
            communicator_srgs(
                spec,
                TimeDependentImplementation(
                    [implementation, _second_phase(spec, arch)]
                ),
                arch,
            )
        ),
        "verify-full": _bounds(spec, arch, implementation),
        "verify-half": _bounds(spec, arch, _halved(implementation)),
        "verify-none": _bounds(spec, arch, None),
        "completion@1": _hexes(oracle.completion_upper_bounds({}, 1)),
        "completion@3": _hexes(oracle.completion_upper_bounds({}, 3)),
    }
    try:
        schedule = bicriteria_schedule(spec, arch, 0.5)
    except SynthesisError as error:
        cases["bicriteria"] = {"error": str(error)}
    else:
        cases["bicriteria"] = {
            "system": schedule.system_reliability.hex()
        }
    return cases


def _cyclic_cases(model):
    spec = cyclic_specification_with_input(model)
    arch = Architecture(
        hosts=[Host("h1", 0.995), Host("h2", 0.9)],
        sensors=[Sensor("s1", 0.8), Sensor("s2", 0.7)],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )
    full = Implementation({"integrate": {"h1", "h2"}}, {"ext": {"s1"}})
    verdict = analyze_memory_cycles(spec, full, arch)["acc"]
    return {
        "verify-full": _bounds(spec, arch, full),
        "verify-half": _bounds(
            spec, arch, Implementation({}, {"ext": {"s1", "s2"}})
        ),
        "verify-none": _bounds(spec, arch, None),
        "markov": _hexes(
            {
                "lambda_t": verdict.lambda_t,
                "external": verdict.external_reliability,
                "limit_average": verdict.limit_average,
            }
        ),
    }


def golden_values():
    """Every pinned value, keyed by system, case and communicator."""
    values = {}
    for seed in range(40):
        spec, arch, implementation = random_system(seed)
        values[f"seed-{seed}"] = _acyclic_cases(spec, arch, implementation)
    values["3ts-baseline"] = _acyclic_cases(
        three_tank_spec(),
        three_tank_architecture(),
        baseline_implementation(),
    )
    values["bbw-replicated"] = _acyclic_cases(
        brake_by_wire_spec(),
        brake_by_wire_architecture(),
        brake_replicated_implementation(),
    )
    for model in ("parallel", "series"):
        values[f"cycle-{model}"] = _cyclic_cases(model)
    return values


@pytest.fixture(scope="module")
def computed():
    return golden_values()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(gzip.decompress(DATA.read_bytes()))


def test_pinned_cases_cover_every_system(computed, pinned):
    assert sorted(computed) == sorted(pinned)
    for system, cases in pinned.items():
        assert sorted(computed[system]) == sorted(cases), system


def test_srg_values_are_bit_identical_to_the_pinned_ones(computed, pinned):
    mismatches = [
        f"{system} {case} {name}: pinned {value}, computed {found}"
        for system, cases in pinned.items()
        for case, values in cases.items()
        for name, value in values.items()
        if (found := computed.get(system, {}).get(case, {}).get(name))
        != value
    ]
    assert not mismatches, "\n".join(mismatches[:20])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_srg_golden.py --write")
    DATA.parent.mkdir(exist_ok=True)
    document = json.dumps(golden_values(), indent=0, sort_keys=True)
    DATA.write_bytes(gzip.compress(document.encode() + b"\n", mtime=0))
    print(f"wrote {DATA}")
