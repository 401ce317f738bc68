"""The persistent run ledger: append-only reliability history.

Every recorded simulation becomes one JSONL line under
``.repro/runs/ledger.jsonl``: the content hashes of the design
(specification, architecture, implementation — so a changed design
never silently compares against an old baseline), the seed and its
:func:`~repro.telemetry.runid.derive_run_id` key, the run shape, and
the per-communicator empirical reliable rates with their LRC margins
(``rate - mu_c``; ``>= 0`` is compliant).  An optional metrics
snapshot rides along.

The store is append-only on purpose: regression checking needs the
old margins, and a JSONL file is trivially diffable and artifacts
well in CI.  Entries are addressed by position (``#0``, ``#3``), by
``latest``, or by ``run_id`` (latest match wins).

Crash safety: every line is a *sealed record* (:func:`seal`) — the
document plus a ``check`` field holding its :func:`content_hash` — the
same format the service's result cache spills to disk, verified by
the same :func:`unseal`.  Appends repair a torn final line (a crash
mid-write leaves no trailing newline) before writing, so one
interrupted append can never garble its neighbour.  Reads
*quarantine* rather than crash: lines that fail JSON parsing, lack a
``check`` field, or fail checksum verification are moved to
``ledger.jsonl.corrupt`` (under the append lock, via an atomic
temp-file + rename rewrite) and the surviving records keep dense
entry indices.  A corrupt line therefore costs exactly the one record
it garbled — committed neighbours are never lost, which the chaos
harness (:mod:`repro.chaos`) asserts.

A torn final line is corrupt to an unlocked reader, since it may be
an append still in flight.  Under the append lock no append is in
flight, so there it is a crashed writer's line: it counts as a record
when it unseals (the writer died after the JSON, before its newline),
and as corrupt otherwise.  The append that repairs it therefore
returns the same index :meth:`RunLedger.records` later gives.  A read
that meets a torn line takes the lock once; when the line unseals, it
adds the missing newline there, so later reads find the file whole and
take no lock.

Appends cost O(1) in the ledger's length.  A :class:`RunLedger`
remembers the file's identity ``(st_dev, st_ino, st_size,
st_mtime_ns)`` and its intact-record count as its own last append
left them.  The next append, under the lock, compares one ``os.stat``
with that identity: when it matches, nobody touched the file since,
so the count is the new entry's index and the file ends in a newline.
Any other writer — another process or instance appending, injected
garbage, a reader's quarantine rewrite, a deleted file — changes the
identity, and the append falls back to one full scan.

``repro runs list|show|diff|regress`` is the CLI over this module;
``repro simulate --ledger DIR`` records into it from every execution
path (scalar, batch, resilient, resilient batch).
:func:`check_regression` powers ``runs regress``: it exits non-zero
when any communicator's margin dropped more than a threshold versus
the baseline entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ReproError

#: Default ledger directory, relative to the working directory.
DEFAULT_LEDGER_DIR = ".repro/runs"

#: Default maximum tolerated margin drop for ``runs regress``.
DEFAULT_REGRESSION_THRESHOLD = 0.001


def _canonical_numbers(document: Any) -> Any:
    """Normalise integer-valued floats to ints, recursively.

    ``json.dumps(1.0) != json.dumps(1)``, so a client that ships
    ``"period": 40.0`` where the library emits ``"period": 40`` would
    fork the cache key of an identical design.  Collapsing the two
    spellings (bools excluded — they are ints to Python but distinct
    JSON values) makes the hash a function of the *value*, not its
    serialisation.
    """
    if isinstance(document, bool):
        return document
    if isinstance(document, float) and document.is_integer():
        return int(document)
    if isinstance(document, dict):
        return {
            key: _canonical_numbers(value)
            for key, value in document.items()
        }
    if isinstance(document, (list, tuple)):
        return [_canonical_numbers(item) for item in document]
    return document


def content_hash(document: Any) -> str:
    """Short content hash of a JSON-serialisable document.

    Canonical JSON (sorted keys, minimal separators, integer-valued
    floats collapsed to ints) through SHA-256, truncated to 12 hex
    digits — collision-safe at ledger scale and short enough for
    terminal tables.  Canonicalisation makes the hash insensitive to
    dict-key order and int-vs-float spelling, so it is safe as a
    cache key for the query service.
    """
    canonical = json.dumps(
        _canonical_numbers(document),
        sort_keys=True, separators=(",", ":"), default=str,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def write_atomic(path: Path, text: str) -> None:
    """Write *text* to *path* atomically (temp file + ``os.replace``).

    The temp file lives in the target directory so the rename never
    crosses filesystems; the payload is fsynced before the swap, so a
    crash leaves either the old file or the whole new one — never a
    truncated hybrid.  Shared by the ledger quarantine rewrite and the
    service's persistent result cache.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    handle_fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(handle_fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _checksum(document: Mapping[str, Any]) -> str:
    """The ``check`` of a sealed record: all fields but ``recorded_at``.

    The timestamp is wall-clock, so two records of the same run carry
    the same ``check`` and serial vs ``--jobs N`` ledger diffs stay
    bit-identical up to the timestamp alone.
    """
    return content_hash(
        {k: v for k, v in document.items() if k != "recorded_at"}
    )


def seal(document: Mapping[str, Any]) -> str:
    """Serialise *document* as one sealed record (one JSON line).

    The record is the document plus a ``check`` field holding its
    checksum.  Ledger lines and result-cache spill files are both
    sealed records.
    """
    return json.dumps(
        {**document, "check": _checksum(document)}, sort_keys=True
    )


def unseal(text: str) -> "dict | None":
    """The document inside one sealed record; ``None`` when corrupt.

    Corrupt means not a JSON object, no ``check`` field, or a
    ``check`` that does not match the content.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not isinstance(document, dict):
        return None
    check = document.pop("check", None)
    if check is None or check != _checksum(document):
        return None
    return document


class _AppendLock:
    """Advisory file lock serialising ledger appends across processes.

    Uses ``fcntl.flock`` on POSIX and ``msvcrt.locking`` on Windows;
    platforms with neither degrade to no locking (single-process use
    stays correct).  The lock lives in a sidecar file so readers
    never contend with it.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._handle: "Any | None" = None

    def __enter__(self) -> "_AppendLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a+")
        try:
            import fcntl

            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        except ImportError:  # pragma: no cover - Windows
            try:
                import msvcrt

                self._handle.seek(0)
                msvcrt.locking(
                    self._handle.fileno(), msvcrt.LK_LOCK, 1
                )
            except ImportError:
                pass
        return self

    def __exit__(self, *exc: Any) -> None:
        handle, self._handle = self._handle, None
        if handle is None:  # pragma: no cover - defensive
            return
        try:
            import fcntl

            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        except ImportError:  # pragma: no cover - Windows
            try:
                import msvcrt

                handle.seek(0)
                msvcrt.locking(handle.fileno(), msvcrt.LK_UNLCK, 1)
            except ImportError:
                pass
        handle.close()


@dataclass
class RunRecord:
    """One ledger entry: the reliability outcome of one recorded run."""

    run_id: str
    command: str  # "scalar" | "batch" | "resilient" | "resilient-batch"
    seed: "int | None"
    runs: int
    iterations: int
    spec_hash: str
    arch_hash: str
    impl_hash: str
    rates: dict[str, float]
    lrcs: dict[str, float]
    recorded_at: "float | None" = None
    executor: str = ""
    events: int = 0
    metrics: "dict[str, Any] | None" = None
    entry: "int | None" = field(default=None, compare=False)

    def margins(self) -> dict[str, float]:
        """Empirical margin ``rate - mu_c`` per communicator."""
        return {
            name: self.rates[name] - self.lrcs.get(name, 0.0)
            for name in self.rates
        }

    def min_margin(self) -> "tuple[str, float] | None":
        """The communicator with the smallest margin, or ``None``."""
        margins = self.margins()
        if not margins:
            return None
        name = min(margins, key=lambda n: (margins[n], n))
        return name, margins[name]

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "run_id": self.run_id,
            "command": self.command,
            "seed": self.seed,
            "runs": self.runs,
            "iterations": self.iterations,
            "spec_hash": self.spec_hash,
            "arch_hash": self.arch_hash,
            "impl_hash": self.impl_hash,
            "rates": {k: self.rates[k] for k in sorted(self.rates)},
            "lrcs": {k: self.lrcs[k] for k in sorted(self.lrcs)},
            "recorded_at": self.recorded_at,
            "executor": self.executor,
            "events": self.events,
        }
        if self.metrics is not None:
            doc["metrics"] = self.metrics
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "RunRecord":
        try:
            return cls(
                run_id=str(doc["run_id"]),
                command=str(doc.get("command", "")),
                seed=doc.get("seed"),
                runs=int(doc.get("runs", 1)),
                iterations=int(doc.get("iterations", 0)),
                spec_hash=str(doc.get("spec_hash", "")),
                arch_hash=str(doc.get("arch_hash", "")),
                impl_hash=str(doc.get("impl_hash", "")),
                rates={
                    str(k): float(v)
                    for k, v in dict(doc.get("rates", {})).items()
                },
                lrcs={
                    str(k): float(v)
                    for k, v in dict(doc.get("lrcs", {})).items()
                },
                recorded_at=doc.get("recorded_at"),
                executor=str(doc.get("executor", "")),
                events=int(doc.get("events", 0)),
                metrics=doc.get("metrics"),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ReproError(
                f"malformed ledger record: {error}"
            ) from None


def record_from_result(
    spec: Any,
    arch: Any,
    implementation: Any,
    result: Any,
    *,
    run_id: str,
    command: str,
    seed: "int | None",
    runs: int = 1,
    metrics: "dict[str, Any] | None" = None,
    recorded_at: "float | None" = None,
) -> RunRecord:
    """Build a :class:`RunRecord` from any simulation result.

    *result* is duck-typed: anything with ``iterations`` and
    ``limit_averages()`` (``SimulationResult`` and its
    ``ResilientResult`` subclass, or ``BatchResult``, which a
    resilient batch also returns).  Batch results return per-run
    arrays from ``limit_averages``; these are pooled by the mean,
    matching ``srg_estimates`` (all runs share the sample count).
    The event count is ``len(result.events)`` when present, else
    ``len(result.monitor_events)``.
    """
    from repro.io import (
        architecture_to_dict,
        implementation_to_dict,
        specification_to_dict,
    )

    averages = result.limit_averages()
    rates: dict[str, float] = {}
    for name, value in averages.items():
        mean = getattr(value, "mean", None)
        rates[name] = float(mean()) if callable(mean) else float(value)
    executor = str(getattr(result, "executor", "scalar"))
    events = len(getattr(result, "events", ()))
    if not events:
        events = len(getattr(result, "monitor_events", ()))
    implementation_doc: Any
    try:
        implementation_doc = implementation_to_dict(implementation)
    except (AttributeError, TypeError):
        # Time-dependent implementations carry callables; hash their
        # repr so unequal mappings still get unequal hashes.
        implementation_doc = repr(implementation)
    return RunRecord(
        run_id=run_id,
        command=command,
        seed=seed,
        runs=runs,
        iterations=int(result.iterations),
        spec_hash=content_hash(specification_to_dict(spec)),
        arch_hash=content_hash(architecture_to_dict(arch)),
        impl_hash=content_hash(implementation_doc),
        rates=rates,
        lrcs={
            name: comm.lrc
            for name, comm in spec.communicators.items()
        },
        recorded_at=(
            recorded_at if recorded_at is not None else _time.time()
        ),
        executor=executor,
        events=events,
        metrics=metrics,
    )


def _identity(stat: os.stat_result) -> "tuple[int, int, int, int]":
    """What tells one state of the ledger file from another."""
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


class RunLedger:
    """Append-only JSONL store of :class:`RunRecord` entries.

    Crash-safe: lines carry a content checksum, appends repair torn
    final lines, and reads quarantine corrupt lines to
    ``ledger.jsonl.corrupt`` instead of raising (pass ``strict=True``
    to :meth:`records` to get the old fail-fast behaviour).  Keep one
    instance per writer: it remembers its last append, so its next
    append reads no bytes unless someone else changed the file.
    """

    def __init__(
        self, root: "str | Path" = DEFAULT_LEDGER_DIR
    ) -> None:
        self.root = Path(root)
        self.path = self.root / "ledger.jsonl"
        self.corrupt_path = self.root / "ledger.jsonl.corrupt"
        #: Corrupt lines moved aside by the most recent scan.
        self.quarantined = 0
        # ``(identity, intact records)`` of the file as this instance's
        # last append left it; read and written under the append lock.
        self._tail: "tuple[tuple[int, int, int, int], int] | None" = None

    def _scan(
        self, locked: bool = False
    ) -> "tuple[list[tuple[str, dict]], list[str], bool]":
        """Split the file into survivors, corrupt raws and a torn flag.

        Returns ``(valid, corrupt, torn_tail)``: ``(line, doc)`` pairs
        of intact records, the raw corrupt lines, and whether the file
        ends without a newline.  Such a final line counts as corrupt
        even if it parses, unless the scan is *locked* (runs under the
        append lock, where no append is in flight) and it unseals.
        """
        if not self.path.exists():
            return [], [], False
        text = self.path.read_text(encoding="utf-8")
        torn_tail = bool(text) and not text.endswith("\n")
        lines = text.splitlines()
        valid: list[tuple[str, dict]] = []
        corrupt: list[str] = []
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            doc = (
                None if torn_tail and lineno == len(lines) and not locked
                else unseal(line)
            )
            if doc is None:
                corrupt.append(line)
            else:
                valid.append((line, doc))
        return valid, corrupt, torn_tail

    def _quarantine(self) -> "list[tuple[str, dict]]":
        """Move corrupt lines aside atomically; return the survivors.

        Runs under the append lock and rescans there, so a concurrent
        append cannot be dropped by the rewrite — the caller's
        unlocked scan is only the cheap detection pass.  A torn final
        line that unseals is the only "corrupt" line an unlocked scan
        sees that survives here: it gets its missing newline, so the
        next read finds the file whole and takes no lock.
        """
        with _AppendLock(self.root / "ledger.lock"):
            valid, corrupt, torn_tail = self._scan(locked=True)
            if not corrupt:
                if torn_tail:
                    with self.path.open("a", encoding="utf-8") as handle:
                        handle.write("\n")
                        handle.flush()
                        os.fsync(handle.fileno())
                return valid
            with self.corrupt_path.open(
                "a", encoding="utf-8"
            ) as handle:
                for line in corrupt:
                    handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            write_atomic(
                self.path,
                "".join(line + "\n" for line, _ in valid),
            )
        self.quarantined += len(corrupt)
        return valid

    def append(self, record: RunRecord) -> int:
        """Append *record*; returns its entry index.

        The count-then-append runs under an advisory file lock
        (``ledger.lock`` next to the JSONL), so concurrent daemon
        jobs and CLI runs get distinct entry indices and whole,
        un-interleaved lines.  The count is the one this instance
        remembered from its last append when the file's identity is
        unchanged since, and one full scan otherwise (see the module
        docstring).  A torn final line left by a crashed writer is
        sealed off with a newline first, so the new record starts on
        a clean line; it counts towards the index when it unseals
        (the next read keeps it) and is quarantined otherwise.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        line = seal(record.to_dict()) + "\n"
        with _AppendLock(self.root / "ledger.lock"):
            try:
                identity = _identity(os.stat(self.path))
            except FileNotFoundError:
                identity = None
            if self._tail is not None and self._tail[0] == identity:
                index, torn_tail = self._tail[1], False
            else:
                # Count only *intact* lines: corrupt ones will be
                # moved aside by the next read, so the new record's
                # index must already skip them.
                valid, _, torn_tail = self._scan(locked=True)
                index = len(valid)
            with self.path.open("a", encoding="utf-8") as handle:
                if torn_tail:
                    handle.write("\n")
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
                self._tail = (
                    _identity(os.fstat(handle.fileno())), index + 1
                )
        record.entry = index
        return index

    def records(self, strict: bool = False) -> list[RunRecord]:
        """Every intact ledger entry, oldest first, ``entry`` stamped.

        Corrupt lines (bad JSON, checksum mismatch, a torn final line
        that does not unseal) are quarantined to
        ``ledger.jsonl.corrupt`` and skipped; with ``strict=True`` the
        first corrupt line raises instead, a torn final line included.
        """
        valid, corrupt, _ = self._scan()
        if corrupt:
            if strict:
                raise ReproError(
                    f"ledger {str(self.path)!r} has "
                    f"{len(corrupt)} corrupt line(s); first: "
                    f"{corrupt[0][:80]!r}"
                )
            valid = self._quarantine()
        records: list[RunRecord] = []
        for _, doc in valid:
            record = RunRecord.from_dict(doc)
            record.entry = len(records)
            records.append(record)
        return records

    def resolve(self, key: str) -> RunRecord:
        """Resolve ``#N`` / ``N`` / ``latest`` / a run id to an entry.

        A bare run id resolves to its *latest* matching entry, so
        ``runs regress --baseline s42`` keeps working as history
        accumulates.
        """
        records = self.records()
        if not records:
            raise ReproError(
                f"ledger {str(self.path)!r} is empty; record runs "
                f"with 'repro simulate --ledger {self.root}'"
            )
        key = key.strip()
        if key == "latest":
            return records[-1]
        index_text = key[1:] if key.startswith("#") else key
        try:
            index = int(index_text)
        except ValueError:
            matches = [r for r in records if r.run_id == key]
            if not matches:
                raise ReproError(
                    f"no ledger entry matches {key!r} (expected "
                    f"'#N', 'latest', or a run id)"
                )
            return matches[-1]
        if index < 0:
            index += len(records)
        if not 0 <= index < len(records):
            raise ReproError(
                f"ledger entry {key!r} out of range "
                f"(0..{len(records) - 1})"
            )
        return records[index]


# -- diff and regression -----------------------------------------------


@dataclass(frozen=True)
class MarginDiff:
    """Per-communicator margin movement between two ledger entries."""

    communicator: str
    baseline_rate: "float | None"
    candidate_rate: "float | None"
    baseline_margin: "float | None"
    candidate_margin: "float | None"

    @property
    def delta(self) -> "float | None":
        if self.baseline_margin is None or self.candidate_margin is None:
            return None
        return self.candidate_margin - self.baseline_margin


def diff_records(
    baseline: RunRecord, candidate: RunRecord
) -> list[MarginDiff]:
    """Margin movement per communicator, sorted worst-first."""
    base_margins = baseline.margins()
    cand_margins = candidate.margins()
    rows = [
        MarginDiff(
            communicator=name,
            baseline_rate=baseline.rates.get(name),
            candidate_rate=candidate.rates.get(name),
            baseline_margin=base_margins.get(name),
            candidate_margin=cand_margins.get(name),
        )
        for name in sorted(set(base_margins) | set(cand_margins))
    ]
    rows.sort(
        key=lambda row: (
            row.delta if row.delta is not None else 0.0,
            row.communicator,
        )
    )
    return rows


def render_diff(
    baseline: RunRecord, candidate: RunRecord
) -> str:
    """Terminal table of a ledger diff."""
    lines = [
        f"ledger diff: #{baseline.entry} ({baseline.run_id}) -> "
        f"#{candidate.entry} ({candidate.run_id})"
    ]
    if baseline.spec_hash != candidate.spec_hash:
        lines.append(
            f"  note: specification changed "
            f"({baseline.spec_hash} -> {candidate.spec_hash})"
        )
    if baseline.impl_hash != candidate.impl_hash:
        lines.append(
            f"  note: implementation changed "
            f"({baseline.impl_hash} -> {candidate.impl_hash})"
        )
    rows = diff_records(baseline, candidate)
    if not rows:
        lines.append("  (no communicators recorded)")
        return "\n".join(lines)
    width = max(len(row.communicator) for row in rows)
    for row in rows:
        if row.delta is None:
            lines.append(
                f"  {row.communicator:<{width}}  (only in "
                f"{'candidate' if row.baseline_margin is None else 'baseline'})"
            )
            continue
        arrow = (
            "=" if abs(row.delta) < 1e-12
            else ("+" if row.delta > 0 else "-")
        )
        lines.append(
            f"  {row.communicator:<{width}}  margin "
            f"{row.baseline_margin:+.6f} -> "
            f"{row.candidate_margin:+.6f}  "
            f"[{arrow}{abs(row.delta):.6f}]"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class Regression:
    """One communicator whose margin dropped beyond the threshold."""

    communicator: str
    baseline_margin: float
    candidate_margin: float
    drop: float


def check_regression(
    baseline: RunRecord,
    candidate: RunRecord,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> list[Regression]:
    """Margins that dropped more than *threshold* vs the baseline.

    Communicators missing from either entry are skipped (a changed
    specification is reported by :func:`render_diff`, not here).
    An empty list means the candidate passes.
    """
    regressions: list[Regression] = []
    for row in diff_records(baseline, candidate):
        if row.delta is None:
            continue
        drop = -row.delta
        if drop > threshold:
            regressions.append(
                Regression(
                    communicator=row.communicator,
                    baseline_margin=row.baseline_margin,
                    candidate_margin=row.candidate_margin,
                    drop=drop,
                )
            )
    return regressions


def render_record(record: RunRecord) -> str:
    """Full terminal rendering of one ledger entry (``runs show``)."""
    lines = [
        f"ledger entry #{record.entry}",
        f"  run id            {record.run_id}",
        f"  command           {record.command or '-'}"
        + (f" ({record.executor})" if record.executor else ""),
        f"  seed              {record.seed}",
        f"  shape             {record.runs} runs x "
        f"{record.iterations} iterations",
        f"  spec/arch/impl    {record.spec_hash} / "
        f"{record.arch_hash} / {record.impl_hash}",
        f"  events            {record.events}",
    ]
    margins = record.margins()
    if margins:
        lines.append("  per-communicator rates and LRC margins")
        width = max(len(name) for name in margins)
        for name in sorted(margins):
            mark = "ok " if margins[name] >= 0 else "LOW"
            lines.append(
                f"    [{mark}] {name:<{width}}  rate "
                f"{record.rates[name]:.6f}  lrc "
                f"{record.lrcs.get(name, 0.0):.6f}  margin "
                f"{margins[name]:+.6f}"
            )
    if record.metrics is not None:
        lines.append(
            f"  metrics snapshot  {len(record.metrics)} instruments"
        )
    return "\n".join(lines)


def render_listing(records: "list[RunRecord]") -> str:
    """One line per entry (``runs list``)."""
    if not records:
        return "ledger is empty"
    lines = ["ledger entries"]
    for record in records:
        worst = record.min_margin()
        tail = (
            f"min margin {worst[1]:+.6f} ({worst[0]})"
            if worst is not None
            else "no rates"
        )
        lines.append(
            f"  #{record.entry}  {record.run_id:<8}  "
            f"{record.command or '-':<16}  "
            f"{record.runs}x{record.iterations:<8} {tail}"
        )
    return "\n".join(lines)
