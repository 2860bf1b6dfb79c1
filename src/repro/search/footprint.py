"""Allocated-footprint model of a search leaf (the paper's Figure 4).

Figure 4 reports steady-state *allocated* memory per segment as cores scale
from 6 to 36: code and stack are tens-to-hundreds of MiB, the heap is an
order of magnitude larger, and — the key observation — heap allocation
grows sublinearly with cores because major heap structures are shared
between search threads.  The shard (100s of GiB) takes all remaining
memory and is core-count-independent.

The model is calibrated to the figure's reading: heap ~1.6 GiB at 6 cores
rising to ~2.8 GiB at 36, code constant, stacks linear per thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._units import GiB, MiB
from repro.errors import ConfigurationError
from repro.memtrace.trace import Segment


@dataclass(frozen=True)
class FootprintModel:
    """Per-segment allocated bytes as a function of active core count."""

    code_bytes: int = 160 * MiB
    stack_bytes_per_core: int = 8 * MiB
    #: Heap = shared base + per-core growth with a sublinear exponent.
    heap_shared_bytes: float = 0.77 * GiB
    heap_per_sqrt_core_bytes: float = 0.34 * GiB
    heap_exponent: float = 0.5
    shard_bytes: int = 200 * GiB

    def __post_init__(self) -> None:
        if not 0 < self.heap_exponent <= 1:
            raise ConfigurationError("heap_exponent must be in (0, 1]")

    def heap(self, cores: int) -> float:
        """Heap footprint in bytes (sublinear in cores)."""
        self._check(cores)
        return (
            self.heap_shared_bytes
            + self.heap_per_sqrt_core_bytes * cores**self.heap_exponent
        )

    def stack(self, cores: int) -> float:
        """Total stack footprint in bytes (one stack per thread)."""
        self._check(cores)
        return float(self.stack_bytes_per_core * cores)

    def code(self, cores: int) -> float:
        """Code footprint in bytes (shared text, core-count independent)."""
        self._check(cores)
        return float(self.code_bytes)

    def shard(self, cores: int) -> float:
        """Shard footprint in bytes (all remaining memory)."""
        self._check(cores)
        return float(self.shard_bytes)

    def segment(self, segment: Segment, cores: int) -> float:
        """Footprint of one segment."""
        return {
            Segment.CODE: self.code,
            Segment.HEAP: self.heap,
            Segment.SHARD: self.shard,
            Segment.STACK: self.stack,
        }[segment](cores)

    def heap_scaling_exponent(self, low: int, high: int) -> float:
        """Empirical growth exponent of the heap between two core counts.

        Near 0.3–0.5 for the calibrated model — the paper's "grows slower
        [than linearly] as there are several shared data-structures".
        """
        if low < 1 or high <= low:
            raise ConfigurationError("need 1 <= low < high")
        return math.log(self.heap(high) / self.heap(low)) / math.log(high / low)

    @staticmethod
    def _check(cores: int) -> None:
        if cores < 1:
            raise ConfigurationError(f"cores must be >= 1, got {cores}")
