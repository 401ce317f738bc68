#!/usr/bin/env python3
"""Run the benchmark suite and write one aggregated perf artifact.

``python tools/bench_record.py --out BENCH_10.json`` executes the
``benchmarks/`` suite under pytest-benchmark, captures both the
machine-readable timing JSON and the human ``=== experiment ===``
paper-vs-measured tables the ``report`` fixture prints, and folds
them into a single perf-trajectory document::

    {
      "suite": "benchmarks",
      "scale": 1.0,                  # REPRO_BENCH_SCALE in effect
      "exit_status": 0,             # pytest's exit status
      "benchmarks": [               # one entry per timed benchmark
        {"name": ..., "min_s": ..., "mean_s": ...,
         "stddev_s": ..., "rounds": ...},
      ],
      "experiments": {              # one entry per report table
        "<experiment>": [
          {"quantity": ..., "paper": ..., "measured": ...},
        ],
      },
      "multipliers": {              # measured "<n>x" values, parsed
        "<experiment>": {"<quantity>": 1.06},
      }
    }

CI uploads the artifact per commit, so the measured multipliers
(telemetry overheads, shard speedups, adaptive savings, ...) form a
queryable trajectory across the repository's history instead of
scrolling away in job logs.  The runner is stdlib-only and returns
pytest's own exit status, so wiring it into CI cannot mask a red
benchmark run.

Perfbench mode
--------------
``python tools/bench_record.py --perfbench --workloads cold-sharded
warm-sweep cycle-fallback --seeds 1 2 3 4 5 --seconds 15 --out
BENCH_26.json`` instead runs the service benchmark, ``python3
perfbench/run.py --workload W --seed N --seconds S --trace 0``, once
per workload and seed, one run at a time, and records the end-to-end
metrics of every run with their median and quartiles::

    {
      "suite": "perfbench",
      "seconds": 15.0,
      "cpus": 2,                    # os.cpu_count() of the host
      "exit_status": 0,             # 1 if any run failed or was wrong
      "workloads": {
        "<workload>": {
          "runs": [                 # one entry per seed, in order
            {"seed": 1, "correct": true, "attempted": 92,
             "failed": 0, "metrics": {"jobs_per_s": 5.9, ...}},
          ],
          "metrics": {              # over the runs that completed
            "<metric>": {"unit": "1/s", "median": ..., "q1": ...,
                         "q3": ..., "iqr": ..., "n": 5},
          }
        }
      }
    }

A perf change commits the document as ``BENCH_<n>.json``, so its
numbers stay comparable with the next change's at the same scale.

Paired mode
-----------
CPU speed on a shared host drifts by tens of percent within minutes,
so one side's runs alone do not compare across changes.  ``--parent
DIR`` names a checkout of the parent commit (``git archive`` or ``git
clone`` of it); for every workload and seed the tool then runs the
parent's ``perfbench/run.py`` and this tree's back to back, swapping
which goes first from seed to seed, and records both sides::

    "<workload>": {
      "runs": [...], "metrics": {...},      # this tree, as above
      "parent": {"runs": [...], "metrics": {...}},
      "pairs": {                            # per end-to-end metric
        "jobs_per_s": {"better": "higher", "won": 9, "of": 10,
                       "ties": 0, "p": 0.021, "claim_met": true},
      }
    }

``won`` counts the seeds on which this tree did better than the
parent, in the direction ``BENCHMARK.json`` gives the metric; ``of``
counts the seeds on which both sides reported it, and ``ties`` those
with equal values.  ``p`` is the exact two-sided sign-test p-value of
the non-tied pairs, so a gain carries its own error bar.
``claim_met`` says whether the numbers support claiming a gain: this
tree won at least 9 in 10 of all the pairs (a tie wins for neither
side), and its median beats the parent's by more than the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``=== experiment name ===`` table headers printed by ``report``.
_TABLE_HEADER = re.compile(r"^=== (?P<name>.+) ===$")

#: A measured multiplier cell: ``1.06x``, ``10.0x``, ``<= 1.1x``.
_MULTIPLIER = re.compile(r"(?P<value>\d+(?:\.\d+)?)x\s*$")


def parse_report_tables(stdout: str) -> dict[str, list[dict]]:
    """Parse the ``report`` fixture's tables out of pytest stdout.

    Rows are aligned with two-or-more spaces between the three
    columns; a table ends at the first line that does not split into
    three fields (blank line, the next test's dot, ...).
    """
    tables: dict[str, list[dict]] = {}
    current: "list[dict] | None" = None
    for raw in stdout.splitlines():
        line = raw.rstrip()
        match = _TABLE_HEADER.match(line.strip())
        if match:
            current = tables.setdefault(match.group("name"), [])
            continue
        if current is None:
            continue
        fields = re.split(r"\s{2,}", line.strip())
        if len(fields) != 3:
            current = None
            continue
        quantity, paper, measured = fields
        if (quantity, paper, measured) == (
            "quantity", "paper", "measured"
        ):
            continue
        current.append(
            {
                "quantity": quantity,
                "paper": paper,
                "measured": measured,
            }
        )
    return tables


def extract_multipliers(
    tables: dict[str, list[dict]]
) -> dict[str, dict[str, float]]:
    """Pull every measured ``<n>x`` cell out of the report tables."""
    multipliers: dict[str, dict[str, float]] = {}
    for experiment, rows in tables.items():
        for row in rows:
            match = _MULTIPLIER.search(row["measured"])
            if match:
                multipliers.setdefault(experiment, {})[
                    row["quantity"]
                ] = float(match.group("value"))
    return multipliers


def summarize_benchmarks(document: dict) -> list[dict]:
    """Per-benchmark timing summary from pytest-benchmark's JSON."""
    summary = []
    for bench in document.get("benchmarks", []):
        stats = bench.get("stats", {})
        summary.append(
            {
                "name": bench.get("fullname", bench.get("name", "?")),
                "min_s": stats.get("min"),
                "mean_s": stats.get("mean"),
                "stddev_s": stats.get("stddev"),
                "rounds": stats.get("rounds"),
            }
        )
    summary.sort(key=lambda entry: entry["name"])
    return summary


def run_suite(
    select: "str | None", timings: bool, bench_json: Path
) -> tuple[int, str]:
    """Run pytest over ``benchmarks/``; return (status, stdout)."""
    command = [
        sys.executable, "-m", "pytest", "benchmarks", "-q", "-s",
    ]
    if timings:
        command.append(f"--benchmark-json={bench_json}")
    else:
        command.append("--benchmark-disable")
    if select:
        command.extend(["-k", select])
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else src
    )
    completed = subprocess.run(
        command, cwd=REPO_ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    sys.stdout.write(completed.stdout)
    return completed.returncode, completed.stdout


def perfbench_run(
    workload: str, seed: int, seconds: float, root: Path = REPO_ROOT
) -> tuple[dict, dict[str, str]]:
    """One ``perfbench/run.py --trace 0`` run: its result and units.

    The benchmark is the one of the checkout at *root*, run there.
    The result is the JSON document the benchmark prints as its last
    stdout line, with ``seed`` and the exit ``status`` added and each
    metric reduced to its value; a run that printed none records
    ``correct: false`` and no metrics.
    """
    command = [
        sys.executable, str(root / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(
        command, cwd=root, stdout=subprocess.PIPE, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        document = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        document = {}
    metrics = document.get("metrics", {})
    run = {
        "seed": seed,
        "status": completed.returncode,
        "correct": bool(document.get("correct", False)),
        "attempted": document.get("attempted"),
        "failed": document.get("failed"),
        "metrics": {
            name: entry["value"] for name, entry in metrics.items()
        },
    }
    return run, {name: entry["unit"] for name, entry in metrics.items()}


def summarize_runs(
    runs: list[dict], units: dict[str, str]
) -> dict[str, dict]:
    """Median and quartiles of every metric over *runs*."""
    summary: dict[str, dict] = {}
    names = sorted({name for run in runs for name in run["metrics"]})
    for name in names:
        values = [
            run["metrics"][name] for run in runs if name in run["metrics"]
        ]
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(
                values, n=4, method="inclusive"
            )
        else:
            q1 = q3 = values[0]
        summary[name] = {
            "unit": units[name],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "iqr": q3 - q1,
            "n": len(values),
        }
    return summary


def metric_directions() -> dict[str, str]:
    """``better`` (``"higher"``/``"lower"``) of every benchmark metric."""
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["better"]
        for metric in contract["end_to_end"] + contract["per_layer"]
    }


def sign_test_p(won: int, lost: int) -> float:
    """Exact two-sided sign-test p-value of *won* against *lost* pairs.

    Under the null hypothesis each non-tied pair is won with
    probability 1/2; the p-value is twice the binomial tail of the
    rarer outcome, capped at 1.
    """
    n = won + lost
    tail = sum(math.comb(n, k) for k in range(min(won, lost) + 1))
    return min(1.0, 2 * tail / 2**n)


def pairs_won(
    parent: list[dict], change: list[dict], directions: dict[str, str]
) -> dict[str, dict]:
    """Per metric, on how many seeds *change* beat *parent*, and whether
    that is a claim.

    Runs pair up by position (the same seed); a metric counts where
    both runs of a pair report it and its direction is known.  ``of``
    counts those pairs, ``won`` the ones *change* did better on and
    ``ties`` the equal ones; ``p`` is the exact two-sided sign test of
    the non-tied pairs.  ``claim_met`` applies the gain rule: *change*
    won at least 9 in 10 of all the pairs (a tie wins for neither
    side), and its median beats the parent's by more than the parent's
    interquartile range.
    """
    pairs: dict[str, dict] = {}
    values: dict[str, tuple[list, list]] = {}
    for before, after in zip(parent, change):
        for name, value in after["metrics"].items():
            better = directions.get(name)
            if better is None or name not in before["metrics"]:
                continue
            entry = pairs.setdefault(
                name, {"better": better, "won": 0, "of": 0, "ties": 0}
            )
            old = before["metrics"][name]
            entry["won"] += int(
                value > old if better == "higher" else value < old
            )
            entry["ties"] += int(value == old)
            entry["of"] += 1
            olds, news = values.setdefault(name, ([], []))
            olds.append(old)
            news.append(value)
    for name, entry in pairs.items():
        olds, news = values[name]
        lost = entry["of"] - entry["ties"] - entry["won"]
        entry["p"] = sign_test_p(entry["won"], lost)
        gain = statistics.median(news) - statistics.median(olds)
        if entry["better"] == "lower":
            gain = -gain
        entry["claim_met"] = (
            10 * entry["won"] >= 9 * entry["of"] and gain > _iqr(olds)
        )
    return pairs


def _iqr(values: list[float]) -> float:
    """Interquartile range, as :func:`summarize_runs` computes it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def record_perfbench(
    workloads: list[str],
    seeds: list[int],
    seconds: float,
    parent: "Path | None" = None,
) -> dict:
    """Run perfbench per workload and seed; the trajectory document.

    With a *parent* checkout, every seed runs on both sides back to
    back, the parent first on every other seed (see "Paired mode").
    """
    document: dict = {
        "suite": "perfbench",
        "seconds": seconds,
        "cpus": os.cpu_count(),
        "exit_status": 0,
        "workloads": {},
    }
    for workload in workloads:
        sides: dict[str, list[dict]] = {"change": [], "parent": []}
        units: dict[str, str] = {}
        for index, seed in enumerate(seeds):
            order = [("change", REPO_ROOT)]
            if parent is not None:
                order.append(("parent", parent))
                if index % 2 == 0:
                    order.reverse()
            for side, root in order:
                run, run_units = perfbench_run(workload, seed, seconds, root)
                units.update(run_units)
                label = "" if parent is None else f" ({side})"
                print(
                    f"{workload} seed {seed}{label}: status "
                    f"{run['status']}, correct {run['correct']}, "
                    f"{run['metrics']}",
                    flush=True,
                )
                if run["status"] != 0 or not run["correct"]:
                    document["exit_status"] = 1
                sides[side].append(run)
        entry = {
            "runs": sides["change"],
            "metrics": summarize_runs(sides["change"], units),
        }
        if parent is not None:
            entry["parent"] = {
                "runs": sides["parent"],
                "metrics": summarize_runs(sides["parent"], units),
            }
            entry["pairs"] = pairs_won(
                sides["parent"], sides["change"], metric_directions()
            )
        document["workloads"][workload] = entry
    return document


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="run the benchmark suite and write an "
        "aggregated perf-trajectory JSON artifact"
    )
    parser.add_argument(
        "--out", default="BENCH_10.json", metavar="FILE",
        help="output artifact path (default BENCH_10.json)",
    )
    parser.add_argument(
        "-k", "--select", metavar="EXPR",
        help="pytest -k selection forwarded to the suite",
    )
    parser.add_argument(
        "--no-timings", action="store_true",
        help="run with --benchmark-disable (CI smoke mode): the "
        "artifact then carries report tables and multipliers only",
    )
    parser.add_argument(
        "--perfbench", action="store_true",
        help="run perfbench/run.py --trace 0 per workload and seed "
        "instead of the benchmarks suite",
    )
    parser.add_argument(
        "--workloads", nargs="+", metavar="W",
        default=["cold-sharded", "warm-sweep", "cycle-fallback"],
        help="perfbench workloads (default: all three)",
    )
    parser.add_argument(
        "--seeds", nargs="+", type=int, metavar="N", default=[1, 2, 3],
        help="perfbench workload seeds (default: 1 2 3)",
    )
    parser.add_argument(
        "--seconds", type=float, default=15.0,
        help="perfbench timed phase per run (default 15)",
    )
    parser.add_argument(
        "--parent", type=Path, metavar="DIR",
        help="with --perfbench: a checkout of the parent commit; run "
        "it and this tree in alternating pairs and record both",
    )
    args = parser.parse_args(argv)
    if args.parent is not None and not args.perfbench:
        parser.error("--parent needs --perfbench")

    if args.perfbench:
        document = record_perfbench(
            args.workloads, args.seeds, args.seconds,
            parent=None if args.parent is None else args.parent.resolve(),
        )
        out = Path(args.out)
        out.write_text(json.dumps(document, indent=2, sort_keys=True))
        print(f"wrote {out} (exit status {document['exit_status']})")
        return document["exit_status"]

    with tempfile.TemporaryDirectory() as scratch:
        bench_json = Path(scratch) / "pytest-benchmark.json"
        status, stdout = run_suite(
            args.select, not args.no_timings, bench_json
        )
        timings: list[dict] = []
        if bench_json.exists():
            timings = summarize_benchmarks(
                json.loads(bench_json.read_text())
            )

    tables = parse_report_tables(stdout)
    artifact = {
        "suite": "benchmarks",
        "scale": float(os.environ.get("REPRO_BENCH_SCALE", "1")),
        "exit_status": status,
        "benchmarks": timings,
        "experiments": tables,
        "multipliers": extract_multipliers(tables),
    }
    out = Path(args.out)
    out.write_text(json.dumps(artifact, indent=2, sort_keys=True))
    print(
        f"wrote {out} ({len(timings)} timed benchmarks, "
        f"{len(tables)} experiment tables, "
        f"exit status {status})"
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
