"""Per-access SHARDS: the oracle for the batch feed of ``ShardsEstimator``.

This is the streaming form of the estimator — one Python step per
sampled access: Olken's Fenwick tree over sampled-access time slots
gives each reuse its sampled stack distance, and a max-heap over line
hashes picks the reservoir's evictions.  It is slow and obviously
sequential, which is what makes it the reference: the differential
suite (``test_shards_differential.py``) asserts the vectorized
``ShardsEstimator.feed`` reproduces its histogram, cold weight and
health counters bit for bit.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.cachesim.shards import DISTANCE_EDGES, hash_unit
from repro.errors import ConfigurationError, TraceError


class SlotTree:
    """Fenwick tree over sampled-access time slots, with compaction.

    Each tracked line flags the slot of its most recent access, and a
    reuse's sampled stack distance is the count of flags after the
    line's previous slot.  When the slots run out the tree is rebuilt
    over the surviving flags (at most the reservoir size).
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._tree = [0] * (capacity + 1)
        self.flagged = 0

    def add(self, index: int, delta: int) -> None:
        i = index + 1
        tree = self._tree
        while i <= self.capacity:
            tree[i] += delta
            i += i & (-i)
        self.flagged += delta

    def prefix_sum(self, index: int) -> int:
        """Sum of flags in ``[0, index]``."""
        i = index + 1
        total = 0
        tree = self._tree
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total


class OracleShardsEstimator:
    """The per-access SHARDS estimator (same parameters and health)."""

    def __init__(
        self,
        rate: float = 0.01,
        max_reservoir: int | None = None,
        seed: int = 0,
    ) -> None:
        if not 0.0 < rate <= 1.0:
            raise ConfigurationError(f"rate must be in (0, 1], got {rate}")
        if max_reservoir is not None and max_reservoir < 2:
            raise ConfigurationError(
                f"max_reservoir must be >= 2 or None, got {max_reservoir}"
            )
        self.max_reservoir = max_reservoir
        self.seed = seed
        self.rate = float(rate)
        self.weights = np.zeros(len(DISTANCE_EDGES) + 1, np.float64)
        self.cold_weight = 0.0
        self.total_accesses = 0
        self.sampled_accesses = 0
        self.cold_touches = 0
        self.reservoir_evictions = 0
        #: line -> slot of its most recent sampled access.
        self._last_slot: dict[int, int] = {}
        #: Max-heap (negated hash) over tracked lines, for evictions.
        self._by_hash: list[tuple[float, int]] = []
        capacity = 4096 if max_reservoir is None else max(1024, 4 * max_reservoir)
        self._slots = SlotTree(capacity)
        self._next_slot = 0

    @property
    def reservoir_lines(self) -> int:
        return len(self._last_slot)

    @property
    def tracked_lines(self) -> np.ndarray:
        """Tracked lines, least to most recently used."""
        order = sorted(self._last_slot.items(), key=lambda item: item[1])
        return np.asarray([line for line, __ in order], np.int64)

    def observe(self, line: int) -> None:
        self.feed(np.asarray([line], np.int64))

    def feed(self, lines: np.ndarray) -> None:
        lines = np.asarray(lines)
        if lines.ndim != 1:
            raise TraceError(f"lines must be 1-D, got shape {lines.shape}")
        self.total_accesses += len(lines)
        if len(lines) == 0:
            return
        hashes = hash_unit(lines, seed=self.seed)
        mask = hashes < self.rate
        for line, h in zip(lines[mask].tolist(), hashes[mask].tolist()):
            if h >= self.rate:
                continue  # adaptation fired earlier in this batch
            self._observe_sampled(int(line), h)

    def _observe_sampled(self, line: int, line_hash: float) -> None:
        self.sampled_accesses += 1
        if self._next_slot >= self._slots.capacity:
            self._compact()
        slot = self._next_slot
        self._next_slot += 1
        prev = self._last_slot.get(line)
        if prev is None:
            self.cold_weight += 1.0 / self.rate
            self.cold_touches += 1
            heapq.heappush(self._by_hash, (-line_hash, line))
        else:
            distance = self._slots.flagged - self._slots.prefix_sum(prev) + 1
            self._record(distance)
            self._slots.add(prev, -1)
        self._slots.add(slot, 1)
        self._last_slot[line] = slot
        if (
            self.max_reservoir is not None
            and len(self._last_slot) > self.max_reservoir
        ):
            self._adapt()

    def _record(self, sampled_distance: int) -> None:
        scaled = (sampled_distance - 1) / self.rate + 1.0
        index = int(np.searchsorted(DISTANCE_EDGES, scaled, side="left"))
        self.weights[index] += 1.0 / self.rate

    def _adapt(self) -> None:
        """Evict the largest-hash line(s); the threshold drops to their hash."""
        self.rate = -self._by_hash[0][0]
        while self._by_hash and -self._by_hash[0][0] >= self.rate:
            __, line = heapq.heappop(self._by_hash)
            slot = self._last_slot.pop(line, None)
            if slot is not None:
                self._slots.add(slot, -1)
                self.reservoir_evictions += 1

    def _compact(self) -> None:
        """Rebuild the slot tree over the surviving flags only."""
        survivors = sorted(self._last_slot.items(), key=lambda item: item[1])
        capacity = self._slots.capacity
        if self.max_reservoir is None and 2 * len(survivors) > capacity:
            capacity *= 2  # unbounded mode: grow with the tracked set
        self._slots = SlotTree(capacity)
        for new_slot, (line, __) in enumerate(survivors):
            self._slots.add(new_slot, 1)
            self._last_slot[line] = new_slot
        self._next_slot = len(survivors)
