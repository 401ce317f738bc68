"""Fault-tolerant runtime: monitoring, failure detection, recovery.

The offline story of the paper — compute SRGs, check Proposition 1,
synthesize replication — assumes the fault model holds forever.  This
package closes the loop *online*: an LRC monitor watches windowed
reliable-write rates while the system runs, a watchdog turns broadcast
silence into host-failure verdicts, and recovery policies re-replicate
onto the survivors or degrade to a declared safe configuration — each
recovery verified against recomputed SRGs before it is committed.
"""

from repro.resilience.detector import (
    HostFailureDetector,
    HostStatus,
    WatchdogConfig,
)
from repro.resilience.events import (
    EVENT_KINDS,
    HostDead,
    HostRecovered,
    HostSuspected,
    LrcAlarm,
    LrcClear,
    MonitorEvents,
    RecoveryCommitted,
    RecoveryFailed,
    ResilienceEvent,
    event_from_dict,
    events_from_jsonl,
    events_to_jsonl,
    read_jsonl,
    write_jsonl,
)
from repro.resilience.executive import (
    ResilientResult,
    ResilientSimulator,
    resilient_batch,
)
from repro.resilience.monitor import (
    LrcMonitor,
    MonitorConfig,
    batch_monitor_events,
    sliding_window_counts,
)
from repro.resilience.policies import (
    DegradePolicy,
    RecoveryContext,
    RecoveryOutcome,
    RecoveryPolicy,
    ReReplicatePolicy,
    first_applicable,
)

__all__ = [
    "DegradePolicy",
    "EVENT_KINDS",
    "HostDead",
    "HostFailureDetector",
    "HostRecovered",
    "HostStatus",
    "HostSuspected",
    "LrcAlarm",
    "LrcClear",
    "LrcMonitor",
    "MonitorConfig",
    "MonitorEvents",
    "RecoveryCommitted",
    "RecoveryContext",
    "RecoveryFailed",
    "RecoveryOutcome",
    "RecoveryPolicy",
    "ReReplicatePolicy",
    "ResilienceEvent",
    "ResilientResult",
    "ResilientSimulator",
    "WatchdogConfig",
    "batch_monitor_events",
    "event_from_dict",
    "events_from_jsonl",
    "events_to_jsonl",
    "first_applicable",
    "read_jsonl",
    "resilient_batch",
    "sliding_window_counts",
    "write_jsonl",
]
