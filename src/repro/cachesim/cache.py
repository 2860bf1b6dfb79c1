"""Exact functional set-associative cache with LRU replacement.

This is the paper's simulator (§III-A): functional (no timing), LRU,
configurable associativity and block size, with way-masking to model Intel
Cache Allocation Technology (the paper uses CAT to shrink the L3 in
Figures 8–10) and invalidation support for inclusive hierarchies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._units import format_size, is_power_of_two
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity/block geometry of one cache.

    ``ways_enabled`` models CAT way-partitioning: lookups see all ways, but
    allocation is restricted to the enabled ways, reducing both effective
    capacity and effective associativity exactly as CAT does.
    """

    size: int
    assoc: int
    block_size: int = 64
    ways_enabled: int | None = None

    def __post_init__(self) -> None:
        if self.size <= 0 or self.assoc <= 0:
            raise ConfigurationError(
                f"size and assoc must be positive: size={self.size}, "
                f"assoc={self.assoc}"
            )
        if not is_power_of_two(self.block_size):
            raise ConfigurationError(
                f"block_size must be a power of two, got {self.block_size}"
            )
        if self.size % (self.assoc * self.block_size):
            raise ConfigurationError(
                f"size {self.size} is not divisible by assoc*block "
                f"({self.assoc}*{self.block_size})"
            )
        ways = self.ways_enabled
        if ways is not None and not 1 <= ways <= self.assoc:
            raise ConfigurationError(
                f"ways_enabled must be in [1, {self.assoc}], got {ways}"
            )

    @property
    def num_sets(self) -> int:
        return self.size // (self.assoc * self.block_size)

    @property
    def effective_ways(self) -> int:
        """Ways available for allocation (assoc unless CAT-masked)."""
        return self.ways_enabled if self.ways_enabled is not None else self.assoc

    @property
    def effective_size(self) -> int:
        """Allocatable capacity in bytes (reduced by way masking)."""
        return self.num_sets * self.effective_ways * self.block_size

    @property
    def capacity_lines(self) -> int:
        """Allocatable capacity in cache lines."""
        return self.num_sets * self.effective_ways

    def with_ways(self, ways: int) -> "CacheGeometry":
        """Return a copy with CAT restricted to ``ways`` ways."""
        return CacheGeometry(self.size, self.assoc, self.block_size, ways)

    def __str__(self) -> str:
        cat = (
            f", CAT {self.ways_enabled}/{self.assoc} ways"
            if self.ways_enabled is not None
            else ""
        )
        return (
            f"{format_size(self.size)} {self.assoc}-way "
            f"{self.block_size}B-block{cat}"
        )

    @classmethod
    def fully_associative(cls, size: int, block_size: int = 64) -> "CacheGeometry":
        """A fully-associative geometry of the given size."""
        if size % block_size:
            raise ConfigurationError(
                f"size {size} not divisible by block_size {block_size}"
            )
        return cls(size=size, assoc=size // block_size, block_size=block_size)


#: Replacement policies supported by :class:`SetAssociativeCache`.
REPLACEMENT_POLICIES = ("lru", "fifo", "random")


class SetAssociativeCache:
    """Functional set-associative cache operating on line addresses.

    Line addresses are ``byte_addr // block_size`` — computed by the caller
    so a line stream can be shared between caches of equal block size.

    The paper's simulator is LRU (§III-A), the default here; FIFO and
    random are provided for policy-sensitivity studies (they bracket LRU
    for most workloads and are what simpler LLC designs actually ship).
    """

    def __init__(
        self, geometry: CacheGeometry, replacement: str = "lru", seed: int = 0
    ) -> None:
        if replacement not in REPLACEMENT_POLICIES:
            raise ConfigurationError(
                f"replacement must be one of {REPLACEMENT_POLICIES}, "
                f"got {replacement!r}"
            )
        self.geometry = geometry
        self.replacement = replacement
        # Power-of-two set counts index with a mask; others use modulo
        # (banked caches like POWER8's 96 MiB L3 have non-power-of-two
        # set counts).
        self._num_sets = geometry.num_sets
        self._ways = geometry.effective_ways
        # One python list per set; recency/insertion order at the end.
        # Tags are full line ids — wasteful in hardware, free in simulation,
        # and it lets invalidate() work without reconstructing addresses.
        self._sets: list[list[int]] = [[] for _ in range(geometry.num_sets)]
        import random as _random

        self._rng = _random.Random(seed)

    # ------------------------------------------------------------------

    def access(self, line: int) -> tuple[bool, int | None]:
        """Access one line; return ``(hit, evicted_line_or_None)``."""
        cache_set = self._sets[line % self._num_sets]
        if line in cache_set:
            if self.replacement == "lru":
                cache_set.remove(line)
                cache_set.append(line)
            return True, None
        cache_set.append(line)
        victim = None
        if len(cache_set) > self._ways:
            if self.replacement == "random":
                victim = cache_set.pop(self._rng.randrange(len(cache_set) - 1))
            else:  # lru and fifo both evict the oldest-ordered entry
                victim = cache_set.pop(0)
        return False, victim

    def contains(self, line: int) -> bool:
        """Check residency without updating recency."""
        return line in self._sets[line % self._num_sets]

    def invalidate(self, line: int) -> bool:
        """Remove a line (inclusion back-invalidation); True if present."""
        cache_set = self._sets[line % self._num_sets]
        if line in cache_set:
            cache_set.remove(line)
            return True
        return False

    def fill(self, line: int) -> int | None:
        """Install a line without counting as a demand access (prefetch).

        Returns the evicted line, if any.  A line already resident is
        promoted to MRU, matching typical prefetch-on-hit behaviour.
        """
        hit, victim = self.access(line)
        return victim

    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(len(s) for s in self._sets)

    def flush(self) -> None:
        """Empty the cache."""
        for s in self._sets:
            s.clear()
