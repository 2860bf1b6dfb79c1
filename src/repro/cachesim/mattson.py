"""Exact LRU stack-distance analysis (Mattson et al., 1970).

One pass over a trace yields the hit count of *every* LRU capacity
simultaneously — the classical tool behind miss-ratio curves.  The hit
rates here come from the vectorized single-pass kernels of
:mod:`repro.cachesim.fastsim` (the merge-count form of Olken's
Fenwick-tree algorithm), and :mod:`repro.cachesim.misscurve` serves the
GiB-scale sweeps.  The per-access reference loops the kernels are tested
against live in ``tests/cachesim/loop_oracles.py``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError

#: Stack distance assigned to first-touch (cold) accesses.
COLD = np.iinfo(np.int64).max


def hit_rate_for_ways(
    lines: np.ndarray,
    num_sets: int,
    ways_ladder: list[int] | np.ndarray,
) -> np.ndarray:
    """Exact set-associative LRU hit rates for several ways at once.

    One stack-distance pass serves the whole associativity ladder (per-set
    LRU inclusion: an access hits a ``W``-way set iff its per-set stack
    distance is at most ``W``); the distances come from the vectorized
    grouped kernel behind
    :func:`repro.cachesim.fastsim.fast_lru_hits_ladder`.  Hit rates are
    returned in ladder order.
    """
    from repro.cachesim import fastsim

    if len(lines) == 0:
        raise TraceError("hit rate of an empty stream is undefined")
    ways = np.asarray(ways_ladder, np.int64)
    if len(ways) == 0 or (ways <= 0).any():
        raise TraceError("ways_ladder must be non-empty and positive")
    masks = fastsim.fast_lru_hits_ladder(
        np.asarray(lines, np.int64), num_sets, ways
    )
    return np.count_nonzero(masks, axis=1) / len(lines)


def hit_rate_for_capacities(
    lines: np.ndarray,
    capacities_lines: np.ndarray | list[int],
) -> np.ndarray:
    """Exact fully-associative LRU hit rates for several capacities at once.

    ``capacities_lines`` are capacities expressed in cache lines.  The
    distances come from the vectorized single-pass kernel
    :func:`repro.cachesim.fastsim.fast_stack_distances`.
    """
    from repro.cachesim import fastsim

    if len(lines) == 0:
        raise TraceError("hit rate of an empty stream is undefined")
    capacities = np.asarray(capacities_lines, np.int64)
    if (capacities <= 0).any():
        raise TraceError("capacities must be positive")
    distances = fastsim.fast_stack_distances(np.asarray(lines, np.int64))
    finite = distances[distances != COLD]
    if len(finite) == 0:
        return np.zeros(len(capacities), float)
    sorted_d = np.sort(finite)
    hits = np.searchsorted(sorted_d, capacities, side="right")
    return hits / len(lines)
