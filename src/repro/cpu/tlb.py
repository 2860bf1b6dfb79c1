"""TLB simulation for the huge-page study (Figure 2c).

The paper measures ~10% throughput from enabling large pages (2 MiB on
PLT1, 16 MiB on PLT2) — "expected for a data-intensive program that touches
nearly all physical memory".  A functional two-level TLB simulated over the
same traces as the caches reproduces the mechanism: with 4 KiB pages the
heap and shard sprawl across far more pages than the STLB covers, and every
STLB miss costs a page walk.

The TLB is modeled with the same set-associative LRU machinery as the
caches — a TLB *is* a cache of page translations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._units import KiB, MiB, is_power_of_two
from repro.cachesim.fastsim import fast_lru_hits
from repro.errors import ConfigurationError
from repro.memtrace.trace import Trace


@dataclass(frozen=True)
class TlbConfig:
    """A two-level TLB: small fully-associative L1, larger L2 (STLB)."""

    page_size: int = 4 * KiB
    l1_entries: int = 64
    stlb_entries: int = 1024
    #: Page-walk latency charged per STLB miss.
    walk_ns: float = 30.0

    def __post_init__(self) -> None:
        if not is_power_of_two(self.page_size):
            raise ConfigurationError(
                f"page_size must be a power of two, got {self.page_size}"
            )
        if self.l1_entries <= 0 or self.stlb_entries <= 0:
            raise ConfigurationError("TLB entry counts must be positive")

    @classmethod
    def plt1_small_pages(cls) -> "TlbConfig":
        """Haswell-like 4 KiB-page TLBs."""
        return cls(page_size=4 * KiB, l1_entries=64, stlb_entries=1024)

    @classmethod
    def plt1_huge_pages(cls) -> "TlbConfig":
        """Haswell-like 2 MiB-page TLBs (fewer entries, vastly more reach)."""
        return cls(page_size=2 * MiB, l1_entries=32, stlb_entries=1024)

    @classmethod
    def plt2_small_pages(cls) -> "TlbConfig":
        """POWER8-like 64 KiB-page ERAT/TLB."""
        return cls(page_size=64 * KiB, l1_entries=48, stlb_entries=2048)

    @classmethod
    def plt2_huge_pages(cls) -> "TlbConfig":
        """POWER8-like 16 MiB-page ERAT/TLB."""
        return cls(page_size=16 * MiB, l1_entries=32, stlb_entries=2048)


@dataclass(frozen=True)
class TlbResult:
    """Outcome of one TLB simulation."""

    config: TlbConfig
    accesses: int
    l1_misses: int
    stlb_misses: int
    instruction_count: int

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.accesses if self.accesses else 0.0

    @property
    def stlb_mpki(self) -> float:
        if self.instruction_count <= 0:
            raise ConfigurationError("instruction_count must be positive")
        return self.stlb_misses / (self.instruction_count / 1000.0)

    @property
    def walk_ns_per_instruction(self) -> float:
        """Average page-walk time charged to each instruction."""
        return self.stlb_mpki / 1000.0 * self.config.walk_ns


def simulate_tlb(trace: Trace, config: TlbConfig) -> TlbResult:
    """Simulate the two-level TLB over every access of a trace.

    Per-thread TLBs would be more faithful for many-thread traces; the
    paper's 16-thread leaf shares code/heap/shard across threads, so a
    single shared TLB gives the same page-level reuse picture and is what
    this function models.

    Both TLB levels are fully-associative LRU caches of page numbers, so a
    hit is exactly "stack distance <= entries": each level replays through
    the vectorized single-set kernel
    :func:`repro.cachesim.fastsim.fast_lru_hits`, the STLB over precisely
    the L1-miss subsequence.  Miss counts are bit-identical to a
    per-access loop over two fully-associative caches.
    """
    if len(trace) == 0:
        raise ConfigurationError("cannot simulate TLB over an empty trace")
    shift = config.page_size.bit_length() - 1
    pages = (trace.addr >> np.uint64(shift)).astype(np.int64)
    l1_hits = fast_lru_hits(pages, 1, config.l1_entries)
    missed = pages[~l1_hits]
    l1_misses = len(missed)
    stlb_misses = 0
    if l1_misses:
        stlb_hits = fast_lru_hits(missed, 1, config.stlb_entries)
        stlb_misses = l1_misses - int(np.count_nonzero(stlb_hits))
    return TlbResult(
        config=config,
        accesses=len(trace),
        l1_misses=l1_misses,
        stlb_misses=stlb_misses,
        instruction_count=trace.instruction_count,
    )


def huge_page_speedup(
    small: TlbResult, huge: TlbResult, baseline_ns_per_instruction: float
) -> float:
    """Throughput ratio huge/small given a baseline time-per-instruction.

    Page-walk time is added serially to each configuration's
    time-per-instruction — consistent with the paper's finding that search
    has little memory-level parallelism to hide latency behind (§III-D).
    """
    if baseline_ns_per_instruction <= 0:
        raise ConfigurationError("baseline_ns_per_instruction must be positive")
    time_small = baseline_ns_per_instruction + small.walk_ns_per_instruction
    time_huge = baseline_ns_per_instruction + huge.walk_ns_per_instruction
    return time_small / time_huge
