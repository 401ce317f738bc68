"""The three workloads: fixed job sequences derived from the seed.

Every workload is a closed loop: each client submits its next job only
after the previous answer arrived.  A client's sequence is cut into
*rounds* of fixed composition, and a client always finishes the round
it started, so the share of each cache outcome is the same in every
run however long the timed phase lasts.  Every job carries the cache
outcome the daemon must report for it; a client owns its cache keys,
so that outcome does not depend on how two clients interleave.

``cold-sharded``
    Stresses ``runtime.faults`` precompute, the ``runtime.batch``
    vectorized stages and the supervised shard fork/pickle/merge.  Every
    seed is fresh, so every lookup misses; cache, HTL and verify do
    almost nothing.
``warm-sweep``
    Design exploration over six designs.  Stresses HTTP, validation,
    design loading, HTL compile, fingerprinting, cache lookup/slice/
    merge/store and the ledger append; the kernel does little.  Most
    jobs are prefix hits; a minority are partial upgrades (whose tail
    bypasses the sharded executor) and verify misses.
``cycle-fallback``
    A communicator cycle with memory, whose plan has no batch order, so
    every run takes the per-run scalar path.  Sharding, cache and fault
    precompute do nothing.  Also the single-process baseline.

Adaptive jobs are left out on purpose: their stop points are due to
change, and a throughput figure on them would read a correctness fix
as a regression.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.arch import Architecture, ExecutionMetrics, Host, Sensor
from repro.experiments import (
    THREE_TANK_HTL,
    baseline_implementation,
    brake_baseline_implementation,
    brake_by_wire_architecture,
    brake_by_wire_spec,
    brake_replicated_implementation,
    cyclic_specification_with_input,
    scenario1_implementation,
    scenario2_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.io import (
    architecture_to_dict,
    implementation_to_dict,
    specification_to_dict,
)
from repro.mapping import Implementation

#: Offset of the discarded warm-up job's seed, beyond any timed job's.
WARMUP_SEED = 999_999

#: Task-function name the cycle design binds through ``bindings.py``.
CYCLE_FUNCTION = "integrate"


def _design(spec, arch, impl) -> dict:
    return {
        "spec": specification_to_dict(spec),
        "arch": architecture_to_dict(arch),
        "impl": implementation_to_dict(impl),
    }


def designs() -> dict[str, dict]:
    """Every design a workload submits, as job-document fields."""
    tank_arch = three_tank_architecture()
    brake_arch = brake_by_wire_architecture()
    tank = three_tank_spec()
    brake = brake_by_wire_spec()
    cycle = specification_to_dict(cyclic_specification_with_input())
    cycle["tasks"][0]["function"] = CYCLE_FUNCTION
    cycle_arch = Architecture(
        hosts=[Host("h1", 0.995)],
        sensors=[Sensor("s1", 0.8)],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )
    return {
        "3ts-baseline": _design(tank, tank_arch, baseline_implementation()),
        "3ts-scenario1": _design(
            tank, tank_arch, scenario1_implementation()
        ),
        "3ts-scenario2": _design(
            tank, tank_arch, scenario2_implementation()
        ),
        "3ts-htl": {
            "htl": THREE_TANK_HTL,
            "arch": architecture_to_dict(tank_arch),
            "impl": implementation_to_dict(baseline_implementation()),
        },
        "bbw-baseline": _design(
            brake, brake_arch, brake_baseline_implementation()
        ),
        "bbw-replicated": _design(
            brake, brake_arch, brake_replicated_implementation()
        ),
        "cycle": {
            "spec": cycle,
            "arch": architecture_to_dict(cycle_arch),
            "impl": implementation_to_dict(
                Implementation({"integrate": {"h1"}}, {"ext": {"s1"}})
            ),
        },
    }


@dataclass
class Job:
    """One job document and the cache outcome the daemon must report."""

    design: str
    doc: dict
    #: ``hit`` / ``partial`` / ``miss``.
    outcome: str
    #: Runs the daemon must simulate for it (0 for hits and verifies).
    simulated: int = 0

    @property
    def kind(self) -> str:
        return self.doc["kind"]


def simulate_doc(design: dict, runs: int, iterations: int, seed: int,
                 shards: int = 1, monitor: "int | None" = None) -> dict:
    doc = {
        "kind": "simulate",
        "runs": runs,
        "iterations": iterations,
        "seed": seed,
        "jobs": shards,
        "bernoulli": True,
        **design,
    }
    if monitor is not None:
        doc["monitor_window"] = monitor
    return doc


@dataclass
class Workload:
    """How one workload starts its daemon and what its clients send."""

    name: str
    seed: int
    workers: int
    clients: int
    #: Extra ``repro serve`` options (deployment settings only).
    options: tuple = ()
    designs: dict = field(default_factory=designs)

    def warmup(self) -> list[list[Job]]:
        """Per client, the jobs every daemon start runs before timing."""
        raise NotImplementedError

    def rounds(self, client: int) -> Iterator[list[Job]]:
        """The client's timed job sequence, one round at a time."""
        raise NotImplementedError


class ColdSharded(Workload):
    """1 client; every job a fresh-seed miss sharded over 2 workers.

    Alternates 3TS baseline and brake-by-wire replicated, with the
    online monitor on half of the jobs.  Sizes are chosen so the four
    job types take about the same time, which keeps the latency
    distribution unimodal and its median steady.  The warm-up is one
    discarded round, so each job type has run once before timing.

    No cached batch is ever read again, so the daemon keeps only the
    last round's batches (``--cache-entries``): an unbounded cache of
    monitor events would make the heap, and with it the peak RSS and
    the garbage collector's pauses, grow with the number of jobs the
    timed phase happened to complete.
    """

    SHARDS = 2
    ITERATIONS = 4000
    MONITOR_WINDOW = 50
    #: (design, runs, monitor window) of one round.
    ROUND = (
        ("3ts-baseline", 768, None),
        ("bbw-replicated", 896, None),
        ("3ts-baseline", 96, MONITOR_WINDOW),
        ("bbw-replicated", 176, MONITOR_WINDOW),
    )

    def __init__(self, seed: int) -> None:
        super().__init__(
            "cold-sharded", seed, workers=1, clients=1,
            options=("--cache-entries", str(len(self.ROUND))),
        )

    def _job(self, index: int, seed: int) -> Job:
        design, runs, monitor = self.ROUND[index % len(self.ROUND)]
        return Job(
            design,
            simulate_doc(
                self.designs[design], runs, self.ITERATIONS, seed,
                shards=self.SHARDS, monitor=monitor,
            ),
            outcome="miss",
            simulated=runs,
        )

    def warmup(self) -> list[list[Job]]:
        base = 1_000_000 * self.seed + WARMUP_SEED
        return [
            [self._job(index, base - index) for index in range(len(self.ROUND))]
        ]

    def rounds(self, client: int) -> Iterator[list[Job]]:
        base = 1_000_000 * self.seed
        index = 0
        while True:
            round_jobs = []
            for _ in self.ROUND:
                round_jobs.append(self._job(index, base + index))
                index += 1
            yield round_jobs


class WarmSweep(Workload):
    """2 clients on 2 daemon workers; a warm cache of six designs.

    Set-up fills each client's keys (every design at two seeds of its
    own).  A timed round is 12 prefix hits (each design twice), one
    partial upgrade (``jobs: 2``, 16 more runs) and one verify miss on
    a fresh variant of a spec design, in seeded order.
    """

    SEEDS_PER_DESIGN = 2
    FILL_RUNS = 64
    UPGRADE_RUNS = 16
    ITERATIONS = 2000
    SIM_DESIGNS = (
        "3ts-baseline", "3ts-scenario1", "3ts-scenario2", "3ts-htl",
        "bbw-baseline", "bbw-replicated",
    )
    VERIFY_DESIGNS = (
        "3ts-baseline", "3ts-scenario1", "3ts-scenario2",
        "bbw-baseline", "bbw-replicated",
    )

    def __init__(self, seed: int) -> None:
        super().__init__("warm-sweep", seed, workers=2, clients=2)

    def _keys(self, client: int) -> list[tuple[str, int]]:
        base = 1_000_000 * self.seed + 1000 * client
        return [
            (design, base + 10 * index + copy)
            for index, design in enumerate(self.SIM_DESIGNS)
            for copy in range(self.SEEDS_PER_DESIGN)
        ]

    def warmup(self) -> list[list[Job]]:
        return [
            [
                Job(
                    design,
                    simulate_doc(
                        self.designs[design], self.FILL_RUNS,
                        self.ITERATIONS, seed,
                    ),
                    outcome="miss",
                    simulated=self.FILL_RUNS,
                )
                for design, seed in self._keys(client)
            ]
            for client in range(self.clients)
        ]

    def _variant(self, design: str, serial: int) -> dict:
        """A spec design whose first LRC is nudged: a fresh verify key."""
        doc = dict(self.designs[design])
        spec = dict(doc["spec"])
        communicators = [dict(c) for c in spec["communicators"]]
        communicators[0]["lrc"] = round(
            communicators[0]["lrc"] - 1e-7 * (serial + 1), 12
        )
        spec["communicators"] = communicators
        doc["spec"] = spec
        return doc

    def rounds(self, client: int) -> Iterator[list[Job]]:
        rng = random.Random(f"{self.seed}:{client}")
        keys = self._keys(client)
        cached = {key: self.FILL_RUNS for key in keys}
        number = 0
        while True:
            plan = [("hit", design) for design in self.SIM_DESIGNS] * 2
            plan.append(
                ("partial", self.SIM_DESIGNS[number % len(self.SIM_DESIGNS)])
            )
            plan.append(
                (
                    "verify",
                    self.VERIFY_DESIGNS[number % len(self.VERIFY_DESIGNS)],
                )
            )
            rng.shuffle(plan)
            round_jobs = []
            for kind, design in plan:
                if kind == "verify":
                    # Client-unique serials keep verify keys disjoint.
                    serial = 2 * number + client
                    doc = {"kind": "verify", **self._variant(design, serial)}
                    round_jobs.append(
                        Job(design, doc, outcome="miss")
                    )
                    continue
                seed = rng.choice(
                    [s for d, s in keys if d == design]
                )
                have = cached[(design, seed)]
                if kind == "hit":
                    runs, shards, simulated = rng.randint(1, have), 1, 0
                else:
                    runs, shards = have + self.UPGRADE_RUNS, 2
                    simulated = self.UPGRADE_RUNS
                    cached[(design, seed)] = runs
                round_jobs.append(
                    Job(
                        design,
                        simulate_doc(
                            self.designs[design], runs, self.ITERATIONS,
                            seed, shards=shards,
                        ),
                        outcome=kind,
                        simulated=simulated,
                    )
                )
            number += 1
            yield round_jobs


class CycleFallback(Workload):
    """1 client, ``jobs: 1``; the cycle design's scalar per-run path."""

    RUNS = 6
    ITERATIONS = 3000

    def __init__(self, seed: int) -> None:
        super().__init__("cycle-fallback", seed, workers=1, clients=1)

    def _job(self, seed: int) -> Job:
        return Job(
            "cycle",
            simulate_doc(
                self.designs["cycle"], self.RUNS, self.ITERATIONS, seed
            ),
            outcome="miss",
            simulated=self.RUNS,
        )

    def warmup(self) -> list[list[Job]]:
        return [[self._job(1_000_000 * self.seed + WARMUP_SEED)]]

    def rounds(self, client: int) -> Iterator[list[Job]]:
        base = 1_000_000 * self.seed
        index = 0
        while True:
            yield [self._job(base + index)]
            index += 1


WORKLOADS = {
    "cold-sharded": ColdSharded,
    "warm-sweep": WarmSweep,
    "cycle-fallback": CycleFallback,
}
