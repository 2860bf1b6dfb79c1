"""Belady's OPT (MIN) replacement analysis.

An upper bound no practical policy can beat: evict the line whose next use
is farthest in the future.  The ablation study uses it to ask how much of
search's miss problem is *replacement policy* versus *capacity* — the
paper's design implicitly assumes capacity dominates (it attacks the
problem with a bigger cache, not a cleverer one), and OPT-vs-LRU gaps
quantify that assumption.

Implementation: one vectorized pass computes each access's next-use index;
the simulation keeps a max-heap of (next_use, line) with lazy invalidation,
giving O(n log C).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.cachesim.indexing import stable_group_order
from repro.errors import TraceError

#: Next-use index assigned to an access whose line never recurs.
NEVER = np.iinfo(np.int64).max


def next_use_indices(lines: np.ndarray) -> np.ndarray:
    """For each access, the index of the next access to the same line.

    Vectorized via stable sort: within a line's group, each access's
    successor is the next group element.
    """
    n = len(lines)
    out = np.full(n, NEVER, np.int64)
    if n == 0:
        return out
    order, sorted_lines = stable_group_order(lines)
    same_as_next = sorted_lines[:-1] == sorted_lines[1:]
    out[order[:-1][same_as_next]] = order[1:][same_as_next]
    return out


def simulate_opt(lines: np.ndarray, capacity_lines: int) -> np.ndarray:
    """Simulate Belady's OPT; return a boolean hit array.

    Lazy heap: stale entries (superseded next-use values) are discarded on
    pop by checking against the authoritative ``next_use`` map.
    """
    if capacity_lines <= 0:
        raise TraceError(f"capacity must be positive, got {capacity_lines}")
    n = len(lines)
    hits = np.zeros(n, bool)
    if n == 0:
        return hits
    next_use = next_use_indices(lines)

    resident_next_use: dict[int, int] = {}  # line -> authoritative next use
    heap: list[tuple[int, int]] = []  # (-next_use, line), lazy

    lines_list = lines.tolist()
    next_list = next_use.tolist()
    for i, line in enumerate(lines_list):
        future = next_list[i]
        if line in resident_next_use:
            hits[i] = True
            resident_next_use[line] = future
            heapq.heappush(heap, (-future, line))
            continue
        if len(resident_next_use) >= capacity_lines:
            while True:
                neg_use, victim = heapq.heappop(heap)
                if resident_next_use.get(victim) == -neg_use:
                    del resident_next_use[victim]
                    break
        resident_next_use[line] = future
        heapq.heappush(heap, (-future, line))
    return hits


def opt_hit_rate(lines: np.ndarray, capacity_lines: int) -> float:
    """OPT hit rate for one capacity."""
    if len(lines) == 0:
        raise TraceError("hit rate of an empty stream is undefined")
    return float(simulate_opt(lines, capacity_lines).mean())
