"""Working-set and reuse statistics over traces.

These are the measurements behind Figure 5 of the paper (accessed working
set as core/thread count scales) and the raw input to the analytic
miss-curve engine (reuse times).
"""

from __future__ import annotations

import numpy as np

from repro.cachesim.indexing import stable_group_order
from repro.errors import TraceError
from repro.memtrace.trace import Trace


def unique_lines(trace: Trace, block_size: int = 64) -> int:
    """Number of distinct cache lines touched by the trace."""
    if len(trace) == 0:
        return 0
    return int(len(np.unique(trace.lines(block_size))))


def working_set_bytes(trace: Trace, block_size: int = 64) -> int:
    """Accessed working set in bytes (distinct lines × line size).

    This is the paper's Figure 5 metric: anything touched at least once.
    """
    return unique_lines(trace, block_size) * block_size


def reuse_times(line_addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-access reuse time (accesses since previous touch of same line).

    Returns
    -------
    (reuse, is_cold):
        ``reuse[i]`` is ``i - previous_position(line[i])`` for re-references
        and 0 for cold (first-touch) accesses; ``is_cold[i]`` marks the
        first-touch accesses.

    Fully vectorized: stable-sort by line groups each line's accesses
    together in position order, so adjacent entries within a group are
    consecutive touches of the same line.
    """
    n = len(line_addrs)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, bool)
    order, sorted_lines = stable_group_order(line_addrs)

    same_as_prev = np.empty(n, bool)
    same_as_prev[0] = False
    same_as_prev[1:] = sorted_lines[1:] == sorted_lines[:-1]

    reuse_sorted = np.zeros(n, np.int64)
    reuse_sorted[1:] = order[1:] - order[:-1]
    reuse_sorted[~same_as_prev] = 0

    reuse = np.empty(n, np.int64)
    reuse[order] = reuse_sorted
    is_cold = np.empty(n, bool)
    is_cold[order] = ~same_as_prev
    return reuse, is_cold


def cold_fraction(trace: Trace, block_size: int = 64) -> float:
    """Fraction of accesses that are first touches of their line."""
    if len(trace) == 0:
        raise TraceError("cold_fraction of an empty trace is undefined")
    __, is_cold = reuse_times(trace.lines(block_size))
    return float(np.count_nonzero(is_cold)) / len(trace)
