#!/usr/bin/env python
"""Record and compare what the three redundancy synthesisers return.

Runs ``synthesize_replication``, ``synthesize_mixed`` and
``synthesize_reexecution`` (default arguments) over
``random_system(seed)`` for a seed range plus the relaxed and the
strict three-tank system, and writes one JSON record per
(system, entry point): the plan, its executions per period, the
``explored`` node count (replication and mixed), the schedulability
report's ``repr``, every communicator's SRG under the plan (as
``float.hex``, so a comparison is bit for bit) and the error message
of a failed search.

Record the outcomes of two checkouts, then compare them::

    PYTHONHASHSEED=0 PYTHONPATH=src python tools/synthesis_outcomes.py \\
        --out new.json
    PYTHONHASHSEED=0 PYTHONPATH=../old/src \\
        python tools/synthesis_outcomes.py --out old.json
    python tools/synthesis_outcomes.py --compare old.json new.json

The comparison prints, per entry point, how many plans are identical,
cheaper, costlier, newly solved and lost, and how many plans solved on
both sides carry bit-identical SRGs; it exits 1 when a plan got
costlier or a solved system became an error.  Fix ``PYTHONHASHSEED``
on both runs: the report ``repr`` contains sets.

``tools/synthesis_outcomes_seeds_0_9.json`` is the committed record of
``--last-seed 9`` (``PYTHONHASHSEED=0``); CI re-records it and compares.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

ENTRY_POINTS = ("replication", "mixed", "reexecution")


def _systems(first: int, last: int):
    from repro.experiments import (
        random_system,
        three_tank_architecture,
        three_tank_spec,
    )

    yield "3ts", three_tank_spec(), three_tank_architecture()
    yield (
        "3ts-strict",
        three_tank_spec(lrc_u=0.9975),
        three_tank_architecture(),
    )
    for seed in range(first, last + 1):
        spec, arch, _ = random_system(seed)
        yield f"seed-{seed}", spec, arch


def _outcome(entry: str, spec, arch) -> dict:
    from repro.errors import SynthesisError
    from repro.reliability import communicator_srgs
    from repro.synthesis import (
        synthesize_mixed,
        synthesize_reexecution,
        synthesize_replication,
    )

    record: dict = {"error": None}
    started = time.perf_counter()
    try:
        if entry == "replication":
            result = synthesize_replication(spec, arch)
            implementation, attempts = result.implementation, {}
            report, explored = result.schedulability, result.explored
        elif entry == "mixed":
            result = synthesize_mixed(spec, arch)
            implementation = result.plan.implementation
            attempts = dict(result.plan.attempts)
            report, explored = result.schedulability, result.explored
        else:
            plan = synthesize_reexecution(spec, arch)
            implementation, attempts = plan.implementation, plan.attempts
            report, explored = None, None
    except SynthesisError as error:
        record["error"] = str(error)
    else:
        record.update(
            assignment={
                task: sorted(hosts)
                for task, hosts in sorted(implementation.assignment.items())
            },
            binding={
                name: sorted(sensors)
                for name, sensors in sorted(
                    implementation.sensor_binding.items()
                )
            },
            attempts=dict(sorted(attempts.items())),
            executions=sum(
                len(hosts) * attempts.get(task, 1)
                for task, hosts in implementation.assignment.items()
            ),
            explored=explored,
            schedulability=None if report is None else repr(report),
            srgs={
                name: value.hex()
                for name, value in sorted(
                    communicator_srgs(
                        spec, implementation, arch, attempts
                    ).items()
                )
            },
        )
    record["seconds"] = round(time.perf_counter() - started, 3)
    return record


def record(first: int, last: int, out: str) -> None:
    outcomes: dict = {entry: {} for entry in ENTRY_POINTS}
    for name, spec, arch in _systems(first, last):
        for entry in ENTRY_POINTS:
            outcomes[entry][name] = _outcome(entry, spec, arch)
        print(name, flush=True)
    with open(out, "w") as handle:
        json.dump(outcomes, handle, indent=1, sort_keys=True)


def _plan(outcome: dict) -> tuple:
    return tuple(
        json.dumps(outcome.get(key), sort_keys=True)
        for key in ("assignment", "binding", "attempts")
    )


def compare(old_path: str, new_path: str) -> int:
    with open(old_path) as handle:
        old = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    worse = False
    for entry in ENTRY_POINTS:
        counts = dict.fromkeys(
            (
                "identical", "same-cost", "cheaper", "costlier",
                "same-error", "changed-error", "newly-solved", "lost",
            ),
            0,
        )
        same_details = same_srgs = 0
        old_total = new_total = 0
        for name, before in old[entry].items():
            after = new[entry][name]
            if before["error"] is not None:
                if after["error"] is None:
                    counts["newly-solved"] += 1
                elif after["error"] == before["error"]:
                    counts["same-error"] += 1
                else:
                    counts["changed-error"] += 1
                continue
            if after["error"] is not None:
                counts["lost"] += 1
                print(f"{entry} {name}: lost ({after['error']})")
                continue
            old_total += before["executions"]
            new_total += after["executions"]
            same_srgs += (
                "srgs" in before and before["srgs"] == after.get("srgs")
            )
            if _plan(before) == _plan(after):
                counts["identical"] += 1
                same_details += (
                    before["explored"] == after["explored"]
                    and before["schedulability"] == after["schedulability"]
                )
            elif after["executions"] < before["executions"]:
                counts["cheaper"] += 1
            elif after["executions"] == before["executions"]:
                counts["same-cost"] += 1
            else:
                counts["costlier"] += 1
                print(
                    f"{entry} {name}: {before['executions']} -> "
                    f"{after['executions']} executions"
                )
        worse |= counts["costlier"] > 0 or counts["lost"] > 0
        seconds = [
            sum(outcome["seconds"] for outcome in side[entry].values())
            for side in (old, new)
        ]
        print(
            f"{entry}: "
            + ", ".join(f"{key} {value}" for key, value in counts.items())
            + f"; identical with the same explored count and report "
            f"{same_details}; bit-identical SRGs {same_srgs}; "
            f"executions over both-solved systems "
            f"{old_total} -> {new_total}; "
            f"{seconds[0]:.0f} s -> {seconds[1]:.0f} s"
        )
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--last-seed", type=int, default=119)
    parser.add_argument("--out", help="write the outcomes to this file")
    parser.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"),
        help="compare two recorded outcome files",
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("one of --out or --compare is required")
    record(args.first_seed, args.last_seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
