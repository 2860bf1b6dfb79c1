"""Cold / capacity / conflict miss classification (the 3C model).

The paper's §III-C attributes search misses to miss types: shard accesses
are mostly cold, heap accesses mostly capacity, and conflicts are minor
(Figure 7a: full associativity removes ~7.4% of L1 misses, <1% at L2/L3).

Classification follows the standard definition:

* **cold** — first-ever touch of the line;
* **capacity** — non-cold miss that would also miss in a fully-associative
  LRU cache of equal capacity (exact Mattson stack distance > capacity);
* **conflict** — the remainder: misses introduced by limited associativity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cachesim.cache import CacheGeometry
from repro.cachesim.fastsim import COLD, fast_lru_hits, fast_stack_distances
from repro.errors import TraceError


@dataclass(frozen=True)
class MissBreakdown:
    """Counts of one stream's accesses by outcome."""

    accesses: int
    hits: int
    cold: int
    capacity: int
    conflict: int

    def __post_init__(self) -> None:
        total = self.hits + self.cold + self.capacity + self.conflict
        if total != self.accesses:
            raise TraceError(
                f"breakdown does not sum to accesses: {total} != {self.accesses}"
            )

    @property
    def misses(self) -> int:
        return self.cold + self.capacity + self.conflict

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            raise TraceError("miss rate of an empty stream is undefined")
        return self.misses / self.accesses

    def fraction(self, kind: str) -> float:
        """Fraction of misses of one kind (``cold|capacity|conflict``)."""
        if self.misses == 0:
            return 0.0
        return getattr(self, kind) / self.misses


def classify_misses(lines: np.ndarray, geometry: CacheGeometry) -> MissBreakdown:
    """Classify every miss of one cache over a line stream.

    Runs the exact set-associative LRU simulation and the exact
    stack-distance analysis, both through the vectorized kernels of
    :mod:`repro.cachesim.fastsim` (bit-identical to the per-access
    :class:`~repro.cachesim.cache.SetAssociativeCache` and to the Mattson
    reference loop of ``tests/cachesim/loop_oracles.py``).
    """
    n = len(lines)
    if n == 0:
        raise TraceError("cannot classify an empty stream")
    lines64 = np.asarray(lines, np.int64)
    hits = fast_lru_hits(lines64, geometry.num_sets, geometry.effective_ways)
    distances = fast_stack_distances(lines64)
    capacity_lines = geometry.capacity_lines

    is_miss = ~hits
    is_cold = distances == COLD
    would_miss_fa = (~is_cold) & (distances > capacity_lines)

    cold = int(np.count_nonzero(is_miss & is_cold))
    capacity = int(np.count_nonzero(is_miss & would_miss_fa))
    conflict = int(np.count_nonzero(is_miss)) - cold - capacity
    return MissBreakdown(
        accesses=n,
        hits=int(np.count_nonzero(hits)),
        cold=cold,
        capacity=capacity,
        conflict=conflict,
    )
