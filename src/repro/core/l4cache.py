"""The latency-optimized on-package eDRAM L4 cache (§IV-C, Figure 12).

Design decisions, all from the paper:

* **Alloy-style organization** — tag and data co-located in the same eDRAM
  row, read with a single DRAM command.
* **Direct-mapped** — minimizes hit latency and maps consecutive lines to
  the same row (spatial locality); the associativity loss is about one
  point of hit rate (validated against a fully-associative model).
* **Memory-side victim cache** — fed by L3 evictions/misses; no coherence,
  no inclusion back-pressure, same 64-byte block as the L3.
* **Parallel lookup** — L4 tag check overlaps main-memory scheduling, so an
  L4 miss costs no extra latency in the baseline design (the pessimistic
  scenario charges 5 ns).
* **eDRAM on MCP** — ~40 ns hit latency at 1 GiB, <1% processor-die area
  for the controller.

The functional model runs the L3 miss stream through an exact vectorized
direct-mapped simulation (or a fully-associative LRU curve for the
sensitivity study) and reports hit rates per software segment — the data of
Figure 13.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro._units import KiB, MiB, format_size, is_power_of_two
from repro.cachesim.directmapped import simulate_direct_mapped
from repro.cachesim.misscurve import MissRatioCurve
from repro.errors import ConfigurationError
from repro.memtrace.trace import Segment


@dataclass(frozen=True)
class L4Config:
    """Geometry and latency of one L4 design point."""

    capacity: int = 1024 * MiB
    block_size: int = 64
    hit_ns: float = 40.0
    miss_penalty_ns: float = 0.0
    #: "direct" (the proposed design) or "full" (sensitivity study).
    associativity: str = "direct"
    #: "edram" (on-package, the proposal) or "dram" (commodity chips).
    technology: str = "edram"

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        if not is_power_of_two(self.block_size):
            raise ConfigurationError("block_size must be a power of two")
        if self.capacity % self.block_size:
            raise ConfigurationError("capacity must be a multiple of block_size")
        if self.associativity not in ("direct", "full"):
            raise ConfigurationError(
                f"associativity must be 'direct' or 'full', got "
                f"{self.associativity!r}"
            )
        if self.technology not in ("edram", "dram"):
            raise ConfigurationError(
                f"technology must be 'edram' or 'dram', got {self.technology!r}"
            )
        if self.hit_ns <= 0 or self.miss_penalty_ns < 0:
            raise ConfigurationError("invalid latency parameters")

    @property
    def capacity_lines(self) -> int:
        return self.capacity // self.block_size

    def with_capacity(self, capacity: int) -> "L4Config":
        """Copy at a different capacity (for sweeps)."""
        return replace(self, capacity=capacity)

    def pessimistic(self) -> "L4Config":
        """The paper's pessimistic scenario: 60 ns hit, 5 ns miss penalty."""
        return replace(self, hit_ns=60.0, miss_penalty_ns=5.0)

    def fully_associative(self) -> "L4Config":
        """Sensitivity variant removing conflict misses."""
        return replace(self, associativity="full")

    def describe(self) -> str:
        return (
            f"{format_size(self.capacity)} {self.associativity}-mapped "
            f"{self.technology} L4, {self.hit_ns:g} ns hit"
        )


@dataclass(frozen=True)
class L4Result:
    """Hit statistics of one L4 simulation over an L3 miss stream."""

    config: L4Config
    accesses: int
    hits: int
    segment_accesses: dict[Segment, int]
    segment_hits: dict[Segment, int]

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            raise ConfigurationError("L4 saw no accesses")
        return self.hits / self.accesses

    def segment_hit_rate(self, segment: Segment) -> float:
        accesses = self.segment_accesses.get(segment, 0)
        if accesses == 0:
            return 0.0
        return self.segment_hits.get(segment, 0) / accesses

    def mpki(self, instruction_count: int) -> float:
        """Post-L4 misses per kilo-instruction."""
        if instruction_count <= 0:
            raise ConfigurationError("instruction_count must be positive")
        return (self.accesses - self.hits) / (instruction_count / 1000.0)

    def segment_mpki(self, segment: Segment, instruction_count: int) -> float:
        """Post-L4 MPKI contributed by one segment."""
        if instruction_count <= 0:
            raise ConfigurationError("instruction_count must be positive")
        misses = self.segment_accesses.get(segment, 0) - self.segment_hits.get(
            segment, 0
        )
        return misses / (instruction_count / 1000.0)


class L4Cache:
    """Functional model of the L4 over an L3 miss (victim-demand) stream."""

    def __init__(self, config: L4Config) -> None:
        self.config = config

    def simulate(
        self,
        lines: np.ndarray,
        segments: np.ndarray,
        curve: MissRatioCurve | None = None,
    ) -> L4Result:
        """Simulate the stream; return per-segment hit statistics.

        ``lines`` are L3-block-granularity line addresses of L3 misses in
        program order; ``segments`` the matching software segments
        (:class:`~repro.memtrace.trace.Segment` codes).  The per-segment
        dicts hold only segments that occur in the stream.

        A fully-associative L4 reads its hits from the LRU curve of
        ``lines``.  One curve serves every capacity, so a caller that
        sweeps capacities over one stream passes it as ``curve`` instead
        of having it rebuilt per call.
        """
        if len(lines) == 0:
            raise ConfigurationError("cannot simulate an empty L4 stream")
        if len(lines) != len(segments):
            raise ConfigurationError("lines and segments must align")
        if curve is not None and curve.num_accesses != len(lines):
            raise ConfigurationError(
                f"curve covers {curve.num_accesses} accesses, the stream "
                f"{len(lines)}"
            )
        codes = np.asarray(segments)
        if codes.dtype.kind not in "iu":
            raise ConfigurationError(
                f"segments must be integer Segment codes, got dtype {codes.dtype}"
            )
        if codes.min() < 0 or codes.max() >= len(Segment):
            raise ConfigurationError(
                f"segments must be Segment codes in [0, {len(Segment)}), got "
                f"values in [{codes.min()}, {codes.max()}]"
            )
        if self.config.associativity == "direct":
            hits = simulate_direct_mapped(lines, self.config.capacity_lines)
        else:
            if curve is None:
                curve = MissRatioCurve(lines)
            hits = curve.hit_mask(self.config.capacity_lines)

        # One count over (segment, hit) pairs: row s holds segment s's
        # misses and hits.
        pairs = np.bincount(
            (codes << 1) | hits, minlength=2 * len(Segment)
        ).reshape(len(Segment), 2)
        seg_accesses: dict[Segment, int] = {}
        seg_hits: dict[Segment, int] = {}
        for seg in Segment:
            misses, seg_hit_count = pairs[seg]
            if misses + seg_hit_count:
                seg_accesses[seg] = int(misses + seg_hit_count)
                seg_hits[seg] = int(seg_hit_count)
        return L4Result(
            config=self.config,
            accesses=len(lines),
            hits=int(pairs[:, 1].sum()),
            segment_accesses=seg_accesses,
            segment_hits=seg_hits,
        )

    # ------------------------------------------------------------------
    # Physical-design accounting (§IV-C)
    # ------------------------------------------------------------------

    @property
    def edram_dies(self) -> int:
        """Number of 128 MiB eDRAM dies needed on the package."""
        die = 128 * MiB
        return max(1, -(-self.config.capacity // die))

    @property
    def controller_die_overhead(self) -> float:
        """Processor-die area overhead of the L4 controller (paper: <1%)."""
        return 0.01

    def row_layout(self, row_bytes: int = 2 * KiB, tag_bytes: int = 8) -> dict:
        """Alloy-style tag-and-data (TAD) layout of one eDRAM row.

        The design stores each line's tag next to its data so a single
        row activation returns both (Figure 12 / [46]).  A ``row_bytes``
        row holds ``row_bytes // (block + tag)`` TAD entries; the rest of
        the row is the layout's overhead.  Consecutive line addresses map
        to consecutive entries of the same row, which is what lets the
        direct-mapped organization exploit spatial locality.
        """
        if row_bytes <= 0 or tag_bytes <= 0:
            raise ConfigurationError("row_bytes and tag_bytes must be positive")
        entry = self.config.block_size + tag_bytes
        entries = row_bytes // entry
        if entries < 1:
            raise ConfigurationError(
                f"a {row_bytes}-byte row cannot hold one "
                f"{self.config.block_size}+{tag_bytes} byte TAD entry"
            )
        used = entries * entry
        return {
            "row_bytes": row_bytes,
            "tad_entry_bytes": entry,
            "entries_per_row": entries,
            "wasted_bytes_per_row": row_bytes - used,
            "tag_overhead_fraction": tag_bytes / entry,
            "rows_total": -(-self.config.capacity_lines // entries),
        }
