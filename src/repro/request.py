"""The simulate request: one typed job document for every front end.

``repro simulate``, ``repro submit`` and the reliability service read
a Monte-Carlo job from the same JSON document (fields tabled in
``docs/service.md``) through :func:`parse_simulate`, which refuses
fields it does not know: a misspelt option never runs, or is cached,
as a request without it.  :func:`fault_injector` is the one place
the Bernoulli/host-outage fault model becomes an injector.  No server
code is imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.errors import ReproError
from repro.resilience.monitor import MonitorConfig
from repro.runtime.faults import (
    BernoulliFaults,
    CompositeFaults,
    FaultInjector,
    ScriptedFaults,
)
from repro.telemetry.convergence import StoppingRule

if TYPE_CHECKING:  # pragma: no cover
    from repro.arch import Architecture
    from repro.telemetry.convergence import AdaptiveResult
    from repro.telemetry.ledger import RunRecord

#: Simulate-request fields that only an adaptive request may carry.
ADAPTIVE_FIELDS = (
    "target_rel_half_width", "min_runs", "stop_confidence",
    "indifference", "sequential",
)

#: Every field of a simulate job document: design, deadline, request.
SIMULATE_FIELDS = frozenset({
    "kind", "spec", "htl", "arch", "impl", "timeout_s",
    "runs", "iterations", "jobs", "seed", "bernoulli", "unplug",
    "slack", "monitor_window", "adaptive", *ADAPTIVE_FIELDS,
})


class RequestError(ReproError):
    """A simulate request document is malformed."""


def _is_json(value: Any, kind: type) -> bool:
    accepted = (int, float) if kind is float else kind
    return (
        isinstance(value, bool) is (kind is bool)
        and isinstance(value, accepted)
        and (kind is not float or math.isfinite(value))
    )


def typed_field(
    doc: Mapping[str, Any], name: str, kind: type, default: Any = None,
    label: Callable[[str], str] = str,
) -> Any:
    """Return ``doc[name]`` (or *default*) checked against a JSON type.

    *kind* is ``bool``, ``int`` or ``float``.  A JSON boolean is never
    a number, an integer is a valid ``float`` (returned as one), and
    ``NaN``/``Infinity`` (which Python's JSON parser accepts) are not.
    An absent or null field with no default is ``None``.  Errors name
    the field ``label(name)``.
    """
    value = doc.get(name, default)
    if value is None and default is None:
        return None
    if not _is_json(value, kind):
        noun = {bool: "a boolean", int: "an integer"}.get(kind, "a number")
        raise RequestError(f"{label(name)} must be {noun}, got {value!r}")
    return float(value) if kind is float else value


@dataclass(frozen=True)
class SimulateRequest:
    """The typed fields of a simulate job document."""

    runs: int
    iterations: int
    seed: int
    shards: int
    bernoulli: bool
    unplug: tuple[tuple[str, int], ...]
    slack: float
    monitor: MonitorConfig | None
    rule: StoppingRule | None

    def faults(self, arch: "Architecture") -> FaultInjector | None:
        """The request's fault injector over *arch*."""
        return fault_injector(arch, self.bernoulli, self.unplug)

    def record(
        self, spec, arch, implementation, result, command: str,
        adaptive: "AdaptiveResult | None" = None,
    ) -> "RunRecord":
        """The run-ledger record of *result*, alike from every front
        end; an adaptive batch records its stop point and summary."""
        from repro.telemetry import derive_run_id, record_from_result

        return record_from_result(
            spec, arch, implementation, result,
            run_id=derive_run_id(self.seed),
            command=command,
            seed=self.seed,
            runs=self.runs if adaptive is None else adaptive.stopped_at,
            metrics=(
                None if adaptive is None
                else {"adaptive": adaptive.to_dict()}
            ),
        )


def fault_injector(
    arch: "Architecture", bernoulli: bool, unplug: Sequence[tuple[str, int]]
) -> FaultInjector | None:
    """Bernoulli faults, permanent host outages, both, or ``None``.

    *unplug* lists ``(host, time)`` outages.  An outage of a host
    *arch* does not have is refused, never silently dropped.
    """
    unknown = sorted({host for host, _ in unplug} - set(arch.hosts))
    if unknown:
        raise RequestError(
            f"unplug host {', '.join(map(repr, unknown))} is not "
            f"in the architecture"
        )
    injectors: list[FaultInjector] = []
    if bernoulli:
        injectors.append(BernoulliFaults(arch))
    if unplug:
        outages: dict[str, list[tuple[int, int | None]]] = {}
        for host, time in unplug:
            outages.setdefault(host, []).append((time, None))
        injectors.append(ScriptedFaults(host_outages=outages))
    if len(injectors) > 1:
        return CompositeFaults(injectors)
    return injectors[0] if injectors else None


def parse_simulate(
    doc: dict, label: Callable[[str], str] = str
) -> SimulateRequest:
    """Type-check a simulate document and build its request.

    The counts and the seed are written back into *doc* with their
    defaults, as the job document records them.  The monitor and the
    stopping rule check their own values.  Errors name a field
    ``label(name)``, so a command line can name its flag instead.
    """
    unknown = sorted(set(doc) - SIMULATE_FIELDS)
    if unknown:
        raise RequestError(
            f"unknown simulate field {', '.join(map(repr, unknown))}"
        )

    def field(name: str, kind: type, default: Any = None) -> Any:
        return typed_field(doc, name, kind, default, label)

    for name, low in (
        ("runs", 1), ("iterations", 1), ("jobs", 1), ("seed", 0)
    ):
        value = doc[name] = field(name, int, low)
        if value < low:
            raise RequestError(
                f"{label(name)} must be >= {low}, got {value!r}"
            )
    outages = [] if doc.get("unplug") is None else doc["unplug"]
    if not isinstance(outages, list) or not all(
        isinstance(pair, list) and len(pair) == 2
        and isinstance(pair[0], str)
        and _is_json(pair[1], int) and pair[1] >= 0
        for pair in outages
    ):
        raise RequestError(
            f"{label('unplug')} must be a list of [host, time] pairs "
            f"with an integer time >= 0, got {doc['unplug']!r}"
        )
    window = field("monitor_window", int)
    adaptive = field("adaptive", bool, False)
    stray = [label(name) for name in ADAPTIVE_FIELDS if name in doc]
    if stray and not adaptive:
        raise RequestError(
            f"only an adaptive request takes {', '.join(stray)} "
            f"(set {label('adaptive')})"
        )
    try:
        monitor = None if window is None else MonitorConfig(window=window)
        rule = None
        if adaptive:
            rule = StoppingRule(
                target_rel_half_width=field("target_rel_half_width", float),
                sequential=field("sequential", bool, True),
                confidence=field("stop_confidence", float, 0.99),
                indifference=field("indifference", float, 0.002),
                min_runs=field("min_runs", int, 64),
            )
    except ReproError as error:
        raise RequestError(str(error)) from None
    return SimulateRequest(
        runs=doc["runs"],
        iterations=doc["iterations"],
        seed=doc["seed"],
        shards=doc["jobs"],
        bernoulli=field("bernoulli", bool, True),
        unplug=tuple(sorted((host, time) for host, time in outages)),
        slack=field("slack", float, 0.01),
        monitor=monitor,
        rule=rule,
    )
