"""Exact LRU stack-distance analysis (Mattson et al., 1970).

One pass over a trace yields the hit count of *every* fully-associative LRU
capacity simultaneously — the classical tool behind miss-ratio curves.  The
implementation is Olken's algorithm: a hash of last-access positions plus a
Fenwick tree counting "positions that are currently the most recent access
of their line", so each stack distance is a prefix-sum query.

The two distance functions here are exact but run a Python loop per access;
they are the reference the vectorized kernels of
:mod:`repro.cachesim.fastsim` are tested against.  The hit-rate helpers
run those kernels, and :mod:`repro.cachesim.misscurve` serves the
GiB-scale sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError

#: Stack distance assigned to first-touch (cold) accesses.
COLD = np.iinfo(np.int64).max


class _FenwickTree:
    """Binary indexed tree over positions, supporting point add / prefix sum."""

    def __init__(self, size: int) -> None:
        self._tree = [0] * (size + 1)
        self._size = size

    def add(self, index: int, delta: int) -> None:
        i = index + 1
        tree = self._tree
        while i <= self._size:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Sum of entries in [0, index]."""
        i = index + 1
        total = 0
        tree = self._tree
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total


def stack_distances(lines: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every access.

    The stack distance is the number of distinct lines touched since the
    previous access to the same line, inclusive of the line itself; an
    access hits in a fully-associative LRU cache of C lines iff its distance
    is <= C.  Cold accesses get :data:`COLD`.
    """
    n = len(lines)
    distances = np.empty(n, np.int64)
    if n == 0:
        return distances
    tree = _FenwickTree(n)
    last_pos: dict[int, int] = {}
    total_seen = 0  # number of positions flagged in the tree
    for i, line in enumerate(lines.tolist()):
        prev = last_pos.get(line)
        if prev is None:
            distances[i] = COLD
        else:
            # Distinct lines in (prev, i) = flagged positions after prev.
            distances[i] = total_seen - tree.prefix_sum(prev) + 1
            tree.add(prev, -1)
            total_seen -= 1
        tree.add(i, 1)
        total_seen += 1
        last_pos[line] = i
    return distances


def set_stack_distances(lines: np.ndarray, num_sets: int) -> np.ndarray:
    """Exact per-set LRU stack distance of every access (reference loop).

    The set-associative generalization of :func:`stack_distances`: each
    access's distance is computed within its set's subsequence (``set =
    line % num_sets``), so an access hits a ``W``-way set-associative LRU
    cache iff its per-set distance is at most ``W`` — the inclusion
    property the one-pass associativity ladders rest on.  Cold accesses
    get :data:`COLD`.  Python loop; use
    :func:`repro.cachesim.fastsim.fast_lru_hits_ladder` at scale.
    """
    if num_sets <= 0:
        raise TraceError(f"num_sets must be positive, got {num_sets}")
    n = len(lines)
    distances = np.empty(n, np.int64)
    stacks: dict[int, list[int]] = {}
    for i, line in enumerate(np.asarray(lines).tolist()):
        stack = stacks.setdefault(line % num_sets, [])
        try:
            depth = stack.index(line)
        except ValueError:
            distances[i] = COLD
        else:
            distances[i] = depth + 1
            del stack[depth]
        stack.insert(0, line)
    return distances


def hit_rate_for_ways(
    lines: np.ndarray,
    num_sets: int,
    ways_ladder: list[int] | np.ndarray,
) -> np.ndarray:
    """Exact set-associative LRU hit rates for several ways at once.

    One stack-distance pass serves the whole associativity ladder (per-set
    LRU inclusion): the distances come from the vectorized grouped kernel
    behind :func:`repro.cachesim.fastsim.fast_lru_hits_ladder`,
    bit-identical to :func:`set_stack_distances`.  Hit rates are returned
    in ladder order.
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
    :func:`repro.cachesim.fastsim.fast_stack_distances`, which is
    bit-identical to :func:`stack_distances`.
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
