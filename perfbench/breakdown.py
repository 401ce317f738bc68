"""Pure arithmetic of the benchmark: percentiles and span self times.

Nothing here touches the program or the clock, so the unit tests in
``test_breakdown.py`` pin it down exactly.
"""

from __future__ import annotations

import statistics
from typing import Mapping, Sequence

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail_rank(count: int) -> int:
    """1-based rank of the tail sample among *count* sorted samples.

    The tail is the highest percentile that still has ``TAIL_BEYOND``
    samples strictly above it, so it is the ``count - TAIL_BEYOND``-th
    smallest.
    """
    if count <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples, got {count}"
        )
    return count - TAIL_BEYOND


def latency_summary(samples: Sequence[float]) -> dict:
    """Median and tail of *samples*, with the tail's percentile."""
    ordered = sorted(samples)
    rank = tail_rank(len(ordered))
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[rank - 1],
        "tail_pct": 100.0 * rank / len(ordered),
        "samples": len(ordered),
    }


def exclusive_times(spans: Sequence[Mapping]) -> dict[str, float]:
    """Wall time of one span tree, attributed to the spans that own it.

    Each span is a mapping with ``id``, ``parent`` (``None`` for the
    root), ``start`` and ``end``.  At every instant the wall clock
    belongs to the innermost spans open at that instant: a span's self
    time is its duration minus the part its child spans cover.  When
    several innermost spans are open at once (parallel shard workers)
    they share the instant equally, so the values always sum to the
    root span's duration.  A child is clipped to its parent's interval.
    """
    by_id = {span["id"]: span for span in spans}
    roots = [span for span in spans if span["parent"] not in by_id]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, got {len(roots)}")
    # Clip every span to its parent's (already clipped) interval.
    interval: dict = {}

    def clip(span: Mapping) -> tuple[float, float]:
        if span["id"] not in interval:
            start, end = float(span["start"]), float(span["end"])
            parent = by_id.get(span["parent"])
            if parent is not None:
                low, high = clip(parent)
                start, end = max(start, low), min(end, high)
            interval[span["id"]] = (start, max(start, end))
        return interval[span["id"]]

    for span in spans:
        clip(span)
    children: dict = {span["id"]: [] for span in spans}
    for span in spans:
        if span["parent"] in by_id:
            children[span["parent"]].append(span["id"])
    cuts = sorted({t for pair in interval.values() for t in pair})
    owned = {span["id"]: 0.0 for span in spans}
    for low, high in zip(cuts, cuts[1:]):
        open_ids = {
            sid for sid, (start, end) in interval.items()
            if start <= low and high <= end
        }
        innermost = [
            sid for sid in open_ids
            if not any(child in open_ids for child in children[sid])
        ]
        for sid in innermost:
            owned[sid] += (high - low) / len(innermost)
    return owned


def layer_totals(
    spans: Sequence[Mapping], owned: Mapping[str, float]
) -> dict[str, float]:
    """Sum the exclusive times of *spans* by span ``name``."""
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = (
            totals.get(span["name"], 0.0) + owned[span["id"]]
        )
    return totals
