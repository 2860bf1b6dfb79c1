"""Per-access reference loops for the vectorized cachesim paths.

Each function here is the scalar form of a computation the library runs
vectorized: the ``SetAssociativeCache.access`` loop behind
``SetAssociativeCache.simulate``, the two-level TLB loop behind
``repro.cpu.tlb.simulate_tlb``, and the scalar bisection behind
``repro.cachesim.composition.solve_windows``.  They are slow and
obviously sequential, which is what makes them the reference: the
differential suites assert the vectorized paths reproduce them bit for
bit.
"""

from __future__ import annotations

import numpy as np

from repro.cachesim.cache import CacheGeometry, SetAssociativeCache
from repro.cachesim.composition import StreamComponent
from repro.cpu.tlb import TlbConfig
from repro.memtrace.trace import Trace


def access_hits(cache: SetAssociativeCache, lines: np.ndarray) -> np.ndarray:
    """Hit mask of ``lines`` replayed one :meth:`access` at a time."""
    return np.array([cache.access(line)[0] for line in lines.tolist()], bool)


def lru_hits(geometry: CacheGeometry, lines: np.ndarray) -> np.ndarray:
    """Hit mask of a cold LRU cache of ``geometry``, access by access."""
    return access_hits(SetAssociativeCache(geometry), lines)


def tlb_misses(trace: Trace, config: TlbConfig) -> tuple[int, int]:
    """(L1 misses, STLB misses) of the two-level TLB, access by access.

    Both levels are fully-associative LRU caches of page numbers; the STLB
    sees only the L1 misses.
    """

    def level(entries: int) -> SetAssociativeCache:
        return SetAssociativeCache(
            CacheGeometry.fully_associative(
                entries * config.page_size, config.page_size
            )
        )

    l1 = level(config.l1_entries)
    stlb = level(config.stlb_entries)
    shift = config.page_size.bit_length() - 1
    l1_misses = 0
    stlb_misses = 0
    for page in (trace.addr >> np.uint64(shift)).tolist():
        if l1.access(page)[0]:
            continue
        l1_misses += 1
        if not stlb.access(page)[0]:
            stlb_misses += 1
    return l1_misses, stlb_misses


def solve_window(components: list[StreamComponent], capacity_lines: int) -> float:
    """Largest global window (KI) whose combined footprint fits, scalar.

    The same recurrence as ``solve_windows``: full-fit early-out, then 60
    bisection steps, components accumulated in order.
    """

    def combined(window_ki: float) -> float:
        return sum(
            c.multiplicity * c.curve.footprint_clamped(c.rate * window_ki)
            for c in components
        )

    capacity = float(capacity_lines)
    max_window = max(len(c.lines) / c.rate for c in components)
    if combined(max_window) <= capacity:
        return max_window
    lo, hi = 0.0, max_window
    for __ in range(60):
        mid = (lo + hi) / 2.0
        if combined(mid) <= capacity:
            lo = mid
        else:
            hi = mid
    return lo
