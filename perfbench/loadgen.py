"""The closed-loop load generator.

Each client is a thread with its own ``ServiceClient``; it submits one
job with ``wait=True``, waits for the answer, and only then submits the
next.  A client starts a new round only while time is left, and always
finishes the round it started.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.service.client import ServiceClient, ServiceClientError


@dataclass
class Sample:
    """One timed job: what was sent, what came back, and how long."""

    job: object
    reply: dict
    latency: float
    traced: bool = False


@dataclass
class Phase:
    """Everything the clients of one timed phase saw."""

    samples: list[Sample] = field(default_factory=list)
    wall_s: float = 0.0
    #: Job trace documents of the traced rounds, by job id.
    traces: dict = field(default_factory=dict)
    #: (jobs, client-seconds) spent in untraced and in traced rounds.
    untraced: list = field(default_factory=lambda: [0, 0.0])
    traced: list = field(default_factory=lambda: [0, 0.0])


def submit(client: ServiceClient, doc: dict) -> dict:
    """Submit and wait; a refused or failed request becomes a reply."""
    try:
        return client.submit(doc, wait=True)
    except ServiceClientError as error:
        return {"id": None, "state": "refused", "error": str(error)}


def run_jobs(port: int, per_client: list[list]) -> list:
    """Run each client's job list concurrently; ``(Job, reply)`` pairs."""
    answered: list = []
    lock = threading.Lock()

    def client_loop(jobs: list) -> None:
        client = ServiceClient(port=port)
        for job in jobs:
            reply = submit(client, job.doc)
            with lock:
                answered.append((job, reply))

    threads = [
        threading.Thread(target=client_loop, args=(jobs,))
        for jobs in per_client
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return answered


def drive(port: int, workload, seconds: float, trace: bool) -> Phase:
    """Run the timed phase; with *trace*, every other round is traced.

    A traced round fetches each job's daemon trace right after its
    answer, inside the round's time, so traced against untraced rounds
    give the tracing overhead on the same cache and ledger history.
    """
    phase = Phase()
    lock = threading.Lock()
    ready = threading.Barrier(workload.clients + 1)
    ends: list[float] = []
    errors: list[Exception] = []

    def client_loop(index: int) -> None:
        try:
            client = ServiceClient(port=port)
            rounds = workload.rounds(index)
            ready.wait()
            deadline = start + seconds
            number = 0
            while time.perf_counter() < deadline:
                traced = trace and number % 2 == 1
                round_start = time.perf_counter()
                round_jobs = next(rounds)
                for job in round_jobs:
                    sent = time.perf_counter()
                    reply = submit(client, job.doc)
                    sample = Sample(
                        job, reply, time.perf_counter() - sent, traced
                    )
                    job_trace = None
                    if traced and reply["id"] is not None:
                        job_trace = client.job_trace(reply["id"])
                    with lock:
                        phase.samples.append(sample)
                        if job_trace is not None:
                            phase.traces[reply["id"]] = job_trace
                with lock:
                    tally = phase.traced if traced else phase.untraced
                    tally[0] += len(round_jobs)
                    tally[1] += time.perf_counter() - round_start
                number += 1
            with lock:
                ends.append(time.perf_counter())
        except Exception as error:  # re-raised by the main thread
            errors.append(error)
            ready.abort()

    threads = [
        threading.Thread(target=client_loop, args=(index,))
        for index in range(workload.clients)
    ]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    try:
        ready.wait()
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    phase.wall_s = max(ends) - start
    return phase
