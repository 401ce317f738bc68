"""One ``repro serve`` daemon started as a child of the benchmark.

The daemon runs as shipped (job tracing on, ledger on) from the
checkout's sources, with numeric thread pools pinned to one thread and
a fixed hash seed so two runs see the same process.  It is the
benchmark's direct child, so ``os.wait4`` after the SIGTERM drain
returns its resource usage folded with that of every shard worker it
reaped: ``ru_maxrss`` is the peak RSS of the daemon or of its largest
worker.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.service.client import ServiceClient

#: Environment that removes thread-pool and hash-order noise.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "PYTHONUNBUFFERED": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

_BANNER = re.compile(r"listening on http://[^:]+:(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


class Daemon:
    """A started daemon; use as a context manager so it always stops."""

    def __init__(
        self, src: Path, ledger: Path, bindings: Path, workers: int,
        options: tuple = (),
    ) -> None:
        env = dict(os.environ, **PINNED_ENV)
        env["PYTHONPATH"] = str(src)
        self.started = time.perf_counter()
        # A process group of its own, so a failed run can kill the daemon
        # together with any shard worker it forked.
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--workers", str(workers),
                "--ledger", str(ledger),
                "--bindings", str(bindings),
                *options,
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.rusage = None
        try:
            self.client = self._connect()
        except BaseException:
            self.kill()
            raise

    def _connect(self) -> ServiceClient:
        line = self.process.stdout.readline()
        match = _BANNER.search(line)
        if match is None:
            raise RuntimeError(f"daemon did not start: {line!r}")
        client = ServiceClient(port=int(match.group(1)))
        deadline = time.monotonic() + READY_TIMEOUT_S
        while client.health().get("status") != "ok":
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.01)
        return client

    def cpu_seconds(self) -> float:
        """User+system CPU of the daemon and of the workers it reaped."""
        fields = Path(f"/proc/{self.process.pid}/stat").read_text()
        # Fields after the parenthesised command name; utime, stime,
        # cutime and cstime are the 14th to 17th fields overall.
        ticks = fields.rsplit(")", 1)[1].split()[11:15]
        return sum(int(tick) for tick in ticks) / _CLOCK_TICKS

    def stop(self) -> None:
        """Drain with SIGTERM and reap; keeps the daemon's rusage."""
        if self.process.returncode is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while True:
            pid, status, rusage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.kill()
                return
            time.sleep(0.01)
        self.rusage = rusage
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self.process.stdout.close()

    def kill(self) -> None:
        """Kill the daemon's whole process group and reap the daemon."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self.process.stdout.close()

    def peak_rss_mb(self) -> float:
        if self.rusage is None:
            raise RuntimeError("daemon was not drained")
        return self.rusage.ru_maxrss / 1024.0

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is None:
            self.stop()
        if self.process.returncode is None:
            self.kill()
