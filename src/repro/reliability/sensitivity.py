"""Sensitivity of SRGs to component reliabilities, and upgrade advice.

The separation of LRCs (requirements) from SRGs (platform guarantees)
makes a natural design-space exploration possible: when an LRC is
violated, one can either replicate (Section 4's scenarios) or *upgrade
a component*.  This module answers two questions the paper's flow
raises implicitly:

* how sensitive is each communicator's SRG to each host's and
  sensor's reliability (a Birnbaum-style importance measure, computed
  by central finite differences on the SRG induction — the SRGs are
  multilinear in the component reliabilities, so the differences are
  exact up to rounding);
* what is the *minimal single-component upgrade* that makes the
  implementation reliable, if one exists (binary search on the
  component's reliability).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.architecture import Architecture
from repro.arch.host import Host
from repro.arch.sensor import Sensor
from repro.errors import AnalysisError
from repro.mapping.implementation import Implementation
from repro.model.specification import Specification
from repro.reliability.analysis import meets_lrc
from repro.reliability.srg import communicator_srgs


@dataclass(frozen=True)
class ComponentSensitivity:
    """Partial derivatives of every SRG w.r.t. one component."""

    component: str  # "host:h1" or "sensor:s1"
    reliability: float
    derivatives: dict[str, float]  # communicator -> d(SRG)/d(rel)

    def most_affected(self) -> str:
        """Return the communicator whose SRG reacts most strongly."""
        return max(self.derivatives, key=lambda c: self.derivatives[c])


@dataclass(frozen=True)
class UpgradeOption:
    """A single-component upgrade that restores reliability."""

    component: str
    current: float
    required: float

    @property
    def delta(self) -> float:
        """The reliability improvement the upgrade demands."""
        return self.required - self.current


def _with_host_reliability(
    arch: Architecture, host: str, reliability: float
) -> Architecture:
    hosts = [
        Host(h.name, reliability if h.name == host else h.reliability)
        for h in arch.hosts.values()
    ]
    return Architecture(
        hosts=hosts,
        sensors=arch.sensors.values(),
        metrics=arch.metrics,
        network=arch.network,
    )


def _with_sensor_reliability(
    arch: Architecture, sensor: str, reliability: float
) -> Architecture:
    sensors = [
        Sensor(s.name, reliability if s.name == sensor else s.reliability)
        for s in arch.sensors.values()
    ]
    return Architecture(
        hosts=arch.hosts.values(),
        sensors=sensors,
        metrics=arch.metrics,
        network=arch.network,
    )


def _perturbed(
    arch: Architecture, component: str, reliability: float
) -> Architecture:
    kind, _, name = component.partition(":")
    if kind == "host":
        return _with_host_reliability(arch, name, reliability)
    if kind == "sensor":
        return _with_sensor_reliability(arch, name, reliability)
    raise AnalysisError(
        f"component {component!r} must be 'host:NAME' or 'sensor:NAME'"
    )


def _component_reliability(arch: Architecture, component: str) -> float:
    kind, _, name = component.partition(":")
    if kind == "host":
        return arch.hrel(name)
    if kind == "sensor":
        return arch.srel(name)
    raise AnalysisError(
        f"component {component!r} must be 'host:NAME' or 'sensor:NAME'"
    )


def all_components(arch: Architecture) -> list[str]:
    """Return every component identifier of *arch*."""
    return [f"host:{name}" for name in arch.host_names()] + [
        f"sensor:{name}" for name in arch.sensor_names()
    ]


def srg_sensitivities(
    spec: Specification,
    arch: Architecture,
    implementation: Implementation,
    epsilon: float = 1e-6,
) -> list[ComponentSensitivity]:
    """Return d(SRG_c)/d(rel) for every (component, communicator) pair.

    Central finite differences with step *epsilon*; since every SRG is
    a multilinear polynomial in the component reliabilities, the
    central difference equals the true partial derivative up to
    floating-point rounding.
    """
    results = []
    for component in all_components(arch):
        value = _component_reliability(arch, component)
        low = max(value - epsilon, 1e-12)
        high = min(value + epsilon, 1.0)
        if high <= low:
            raise AnalysisError(
                f"cannot perturb component {component!r} at "
                f"reliability {value}"
            )
        srgs_low = communicator_srgs(
            spec, implementation, _perturbed(arch, component, low)
        )
        srgs_high = communicator_srgs(
            spec, implementation, _perturbed(arch, component, high)
        )
        derivatives = {
            name: (srgs_high[name] - srgs_low[name]) / (high - low)
            for name in spec.communicators
        }
        results.append(
            ComponentSensitivity(
                component=component,
                reliability=value,
                derivatives=derivatives,
            )
        )
    return results


def _is_reliable(
    spec: Specification,
    arch: Architecture,
    implementation: Implementation,
) -> bool:
    srgs = communicator_srgs(spec, implementation, arch)
    return all(
        meets_lrc(srgs[name], comm.lrc)
        for name, comm in spec.communicators.items()
    )


def minimal_upgrade(
    spec: Specification,
    arch: Architecture,
    implementation: Implementation,
    component: str,
    precision: float = 1e-9,
) -> float | None:
    """Return the smallest reliability of *component* meeting all LRCs.

    ``None`` when even a perfect component does not make the
    implementation reliable.  SRGs are monotone in every component
    reliability, so binary search applies.
    """
    if _is_reliable(spec, arch, implementation):
        return _component_reliability(arch, component)
    if not _is_reliable(
        spec, _perturbed(arch, component, 1.0), implementation
    ):
        return None
    low = _component_reliability(arch, component)
    high = 1.0
    while high - low > precision:
        middle = (low + high) / 2.0
        if _is_reliable(
            spec, _perturbed(arch, component, middle), implementation
        ):
            high = middle
        else:
            low = middle
    return high


def upgrade_options(
    spec: Specification,
    arch: Architecture,
    implementation: Implementation,
) -> list[UpgradeOption]:
    """Return the feasible single-component upgrades, cheapest first.

    Each option names a component and the minimal reliability it must
    reach for the implementation to satisfy every LRC; options are
    sorted by the required improvement.
    """
    options = []
    for component in all_components(arch):
        required = minimal_upgrade(spec, arch, implementation, component)
        if required is None:
            continue
        current = _component_reliability(arch, component)
        if required > current:
            options.append(
                UpgradeOption(
                    component=component,
                    current=current,
                    required=required,
                )
            )
    return sorted(options, key=lambda option: option.delta)
