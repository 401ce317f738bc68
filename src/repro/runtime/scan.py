"""Prefix composition of Boolean maps: the kernel's one recurrence solver.

A recurrence ``s_t = f_t(s_{t-1})`` over ``m`` state bits, whose map
``f_t`` is fixed by step ``t``'s draws, is solved by composing the
maps: ``s_t = (f_t o ... o f_0)(s)``.  Composition is associative, so
a Hillis–Steele inclusive scan computes every prefix in
``ceil(log2 n)`` vectorised steps instead of ``n`` Python steps, and
since every map is Boolean the states are bit-identical to stepping.

A map over ``m`` bits is stored as bit planes: ``maps[P, j, ..., t]``
is bit ``j`` of ``f_t(P)``, where bit ``k`` of the pattern ``P`` is
state bit ``k``.  A map table therefore holds ``2**m * m`` planes.
Callers fold the initial state in by making ``f_0`` constant (every
pattern maps to ``s_0``): every prefix is then constant too, and
pattern 0 of the scan holds the states.  The batch kernel solves
cyclic components (:meth:`~repro.runtime.batch.BatchSimulator.run_slice`)
and Gilbert–Elliott chains
(:meth:`~repro.runtime.faults.GilbertElliottFaults.precompute`) this
way.
"""

from __future__ import annotations

import numpy as np


def scan_bytes(bits: int) -> int:
    """Bytes per scanned element :func:`compose_prefixes` holds for
    *bits*-bit maps: the table, its second buffer and the lookup's
    temporaries."""
    return (1 << bits) * bits * 3


def compose_prefixes(maps: np.ndarray) -> np.ndarray:
    """Return every prefix composition of *maps* along the last axis.

    *maps* is a ``(2**m, m, ..., n)`` bool map table (see the module
    docstring); the result ``F`` has the same shape with ``F[..., t]``
    the table of ``f_t o ... o f_0``.  Each step composes every
    position with the one *shift* before it, *shift* doubling from 1;
    positions below *shift* are already complete and are carried over.
    *maps* is reused as the second buffer, so it is overwritten.
    """
    n = maps.shape[-1]
    source, target = maps, np.empty_like(maps)
    shift = 1
    while shift < n:
        # Positions below shift // 2 were complete before the previous
        # step, so target, which held that step's input, has them.
        target[..., shift // 2:shift] = source[..., shift // 2:shift]
        _compose(source[..., shift:], source[..., :-shift],
                 target[..., shift:])
        source, target = target, source
        shift *= 2
    return source


def _compose(later: np.ndarray, earlier: np.ndarray, out: np.ndarray) -> None:
    """``out = later o earlier``, elementwise over map tables.

    Entry ``P`` of the result looks ``later`` up at ``earlier[P]``: a
    multiplexer tree that halves the table on one selector bit at a
    time, ``zero ^ (bit & (zero ^ one))``, which is several times
    faster on bool arrays than ``np.where`` or a masked copy.
    """
    size, bits = later.shape[:2]
    # The first halving's differences do not depend on the pattern.
    first = np.bitwise_xor(later[0::2], later[1::2])
    for pattern in range(size):
        select = earlier[pattern]
        level, diff = later, first
        for k in range(bits - 1):
            step = np.bitwise_and(diff, select[k])
            level = np.bitwise_xor(level[0::2], step, out=step)
            diff = np.bitwise_xor(level[0::2], level[1::2])
        target = out[pattern]
        np.bitwise_and(diff[0], select[bits - 1], out=target)
        np.bitwise_xor(level[0], target, out=target)
