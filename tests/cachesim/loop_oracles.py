"""Per-access reference loops for the vectorized cachesim paths.

Each function here is the scalar form of a computation the library runs
vectorized: the ``SetAssociativeCache.access`` loop behind
``repro.cachesim.fastsim.fast_lru_hits``, the scalar bisection behind
``repro.cachesim.composition.solve_windows``, and the Mattson
stack-distance loops behind ``repro.cachesim.fastsim.fast_stack_distances``
and ``fast_lru_hits_ladder``.  They are slow and obviously sequential,
which is what makes them the reference: the differential suites assert
the vectorized paths reproduce them bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.cachesim.cache import CacheGeometry, SetAssociativeCache
from repro.cachesim.composition import StreamComponent
from repro.cachesim.mattson import COLD


def access_hits(cache: SetAssociativeCache, lines: np.ndarray) -> np.ndarray:
    """Hit mask of ``lines`` replayed one :meth:`access` at a time."""
    return np.array([cache.access(line)[0] for line in lines.tolist()], bool)


def lru_hits(geometry: CacheGeometry, lines: np.ndarray) -> np.ndarray:
    """Hit mask of a cold LRU cache of ``geometry``, access by access."""
    return access_hits(SetAssociativeCache(geometry), lines)


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
    """Exact LRU stack distance of every access (Olken's algorithm).

    The stack distance is the number of distinct lines touched since the
    previous access to the same line, inclusive of the line itself; an
    access hits in a fully-associative LRU cache of C lines iff its distance
    is <= C.  Cold accesses get ``COLD``.  A hash of last-access positions
    plus a Fenwick tree flagging the positions that are currently the most
    recent access of their line makes each distance a prefix-sum query.
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
    """Exact per-set LRU stack distance of every access.

    The set-associative generalization of :func:`stack_distances`: each
    access's distance is computed within its set's subsequence (``set =
    line % num_sets``), so an access hits a ``W``-way set-associative LRU
    cache iff its per-set distance is at most ``W`` — the inclusion
    property the one-pass associativity ladders rest on.  Cold accesses
    get ``COLD``.
    """
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
