"""Answer checks, run after the timed phase.

A simulate answer must carry the rates of an in-process
``BatchSimulator`` batch of the same seed: the seed contract makes them
bit-identical, whether the daemon simulated, sliced a cached prefix or
merged a cached prefix with a new tail.  A verify answer must carry the
in-process ``Verifier``'s verdict.  Both must report the cache outcome
the job sequence implies.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing import resource_tracker

from repro.analysis import Verifier
from repro.htl.compiler import compile_program
from repro.io import (
    architecture_from_dict,
    implementation_from_dict,
    specification_from_dict,
)
from repro.resilience import MonitorConfig
from repro.runtime.batch import BatchSimulator
from repro.runtime.faults import BernoulliFaults

from bindings import FUNCTIONS


def load_design(doc: dict) -> tuple:
    """The (spec, arch, impl) objects of a job document's design."""
    if "htl" in doc:
        spec = compile_program(doc["htl"], functions=FUNCTIONS).specification()
    else:
        spec = specification_from_dict(doc["spec"], functions=FUNCTIONS)
    return (
        spec,
        architecture_from_dict(doc["arch"]),
        implementation_from_dict(doc["impl"]),
    )


def _batch_key(doc: dict) -> tuple:
    return (
        doc.get("htl"), repr(doc.get("spec")), repr(doc["arch"]),
        repr(doc["impl"]), doc["seed"], doc["iterations"],
        doc.get("monitor_window"),
    )


def reference(doc: dict) -> tuple[dict, list[int]]:
    """Per-run limit averages and monitor-event runs of *doc*'s batch."""
    spec, arch, impl = load_design(doc)
    window = doc.get("monitor_window")
    batch = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch), seed=doc["seed"],
    ).run_batch(
        doc["runs"], doc["iterations"],
        monitor=None if window is None else MonitorConfig(window=window),
    )
    return batch.limit_averages(), [event.run for event in batch.monitor_events]


def _references(answered) -> dict:
    """One serial batch per cache key, at the most runs asked of it.

    The batches are independent, so a pool of ``nproc`` spawned workers
    computes them; the daemon has stopped by then.
    """
    longest: dict = {}
    for job, _ in answered:
        if job.kind == "simulate":
            key = _batch_key(job.doc)
            if key not in longest or job.doc["runs"] > longest[key]["runs"]:
                longest[key] = job.doc
    pool = multiprocessing.get_context("spawn").Pool(os.cpu_count())
    try:
        batches = pool.map(reference, list(longest.values()), chunksize=1)
    finally:
        pool.terminate()
        pool.join()
        # The spawned pool started a resource tracker process that would
        # otherwise outlive the benchmark; stop it and reap it now.
        resource_tracker._resource_tracker._stop()
    return dict(zip(longest, batches))


def _simulate_errors(job, result, batch) -> list[str]:
    runs = job.doc["runs"]
    averages, event_runs = batch
    rates = {
        name: float(averages[name][:runs].mean())
        for name in sorted(averages)
    }
    events = sum(1 for run in event_runs if run < runs)
    errors = []
    if result["rates"] != rates:
        errors.append(f"rates {result['rates']} != reference {rates}")
    if result["monitor_events"] != events:
        errors.append(
            f"{result['monitor_events']} monitor events != {events}"
        )
    if result["runs"] != runs:
        errors.append(f"runs {result['runs']} != {runs}")
    if result["simulated_runs"] != job.simulated:
        errors.append(
            f"simulated {result['simulated_runs']} != {job.simulated}"
        )
    return errors


def _verify_errors(job, result) -> list[str]:
    report = Verifier().verify(*load_design(job.doc))
    errors = []
    if (result["feasible"], result["proved"]) != (
        report.feasible, report.proved
    ):
        errors.append(
            f"verdict {(result['feasible'], result['proved'])} != "
            f"{(report.feasible, report.proved)}"
        )
    if result["summary"] != report.summary():
        errors.append("verify summary differs from the reference")
    return errors


def check_answers(answered) -> list[str]:
    """One message per failed or wrong answer among ``(Job, reply)``."""
    batches = _references(answered)
    failures = []
    for job, reply in answered:
        if reply.get("state") != "done":
            failures.append(
                f"{reply.get('id')}: {reply.get('state')}: "
                f"{reply.get('error')}"
            )
            continue
        result = reply["result"]
        if job.kind == "simulate":
            errors = _simulate_errors(
                job, result, batches[_batch_key(job.doc)]
            )
        else:
            errors = _verify_errors(job, result)
        if result["cache"] != job.outcome:
            errors.append(f"cache {result['cache']} != {job.outcome}")
        if errors:
            failures.append(f"{reply['id']}: " + "; ".join(errors))
    return failures
