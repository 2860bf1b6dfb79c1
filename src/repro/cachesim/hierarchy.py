"""Multi-level cache-hierarchy simulation.

Drives a trace through per-thread private L1-I/L1-D/L2 caches and a shared
L3 — the paper's simulated configuration (§III-A): "Each thread uses private
L1 caches and a private L2 cache ... We model a 40 MiB, 20-way
set-associative, unified L3 cache.  All caches use LRU."

:func:`simulate_hierarchy` is exact.  Without inclusion and prefetchers
it runs level by level through the vectorized LRU kernels of
:mod:`repro.cachesim.fastsim`: each private cache sees its thread's
stream filtered by the level above, and the shared L3 the program-order
merge of every thread's L2 misses, so per-level statistics (order-free
sums) match the per-access loop bit for bit.  Inclusive hierarchies and
prefetchers couple the levels access by access; they run the per-access
loop over :class:`~repro.cachesim.cache.SetAssociativeCache` and count a
fallback.

:func:`analytic_hierarchy` is a different model: a vectorized
fully-associative-LRU approximation via
:class:`~repro.cachesim.misscurve.MissRatioCurve`, justified by the
paper's Figure 7a (conflict misses beyond L1 under 1%).  It returns an
:class:`AnalyticHierarchyResult` that keeps the post-L2 stream and its
miss-ratio curve, so L3 capacity sweeps and L4 studies reuse the same
pass.

For *sweeps* over many configurations of the same trace, prefer
:func:`repro.cachesim.fused.simulate_hierarchy_sweep`: it shares the
upstream L1/L2 replay across every point with the same upstream geometry
and derives whole associativity ladders from one L3 pass, bit-identical
to calling :func:`simulate_hierarchy` per point.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from repro.cachesim import fastsim
from repro.cachesim.cache import CacheGeometry, SetAssociativeCache
from repro.cachesim.fastsim import fast_lru_hits
from repro.cachesim.indexing import block_shift, lines_of_addrs
from repro.cachesim.misscurve import MissRatioCurve
from repro.cachesim.prefetch import PrefetcherBase
from repro.cachesim.results import HierarchyResult, LevelStats
from repro.errors import ConfigurationError, SimulationError
from repro.memtrace.trace import AccessKind, Trace


@dataclass(frozen=True)
class CacheLevelConfig:
    """One level of the hierarchy: a geometry plus whether it is shared."""

    name: str
    geometry: CacheGeometry
    shared: bool = False

    def scaled(self, factor: float) -> "CacheLevelConfig":
        """Scale capacity by ``factor`` keeping associativity and block size.

        Used to run paper-scale experiments at reduced ``scale``; sizes are
        rounded down to a power-of-two number of sets (at least one).
        ``factor`` must be finite and positive.
        """
        if not (math.isfinite(factor) and factor > 0):
            raise ConfigurationError(
                f"scale factor must be finite and positive, got {factor}"
            )
        geo = self.geometry
        new_size = max(
            geo.assoc * geo.block_size, int(geo.size * factor)
        )
        # Round down to a power-of-two set count.
        sets = max(1, new_size // (geo.assoc * geo.block_size))
        sets = 1 << (sets.bit_length() - 1)
        return replace(
            self,
            geometry=CacheGeometry(
                size=sets * geo.assoc * geo.block_size,
                assoc=geo.assoc,
                block_size=geo.block_size,
                ways_enabled=geo.ways_enabled,
            ),
        )


@dataclass(frozen=True)
class HierarchyConfig:
    """A three-level hierarchy configuration (L4 is modeled separately).

    ``inclusive`` enables L3 inclusion with back-invalidation of L1/L2 on L3
    eviction — the property the paper notes makes CAT experiments slightly
    conservative (§IV-B).  Only supported with uniform block sizes; it
    makes :func:`simulate_hierarchy` run the per-access loop.

    The paper's platforms are data in :mod:`repro.hw.catalog`;
    :func:`repro.hw.adapters.hierarchy_config` builds their configurations.
    """

    l1i: CacheLevelConfig
    l1d: CacheLevelConfig
    l2: CacheLevelConfig
    l3: CacheLevelConfig | None
    inclusive: bool = False

    def __post_init__(self) -> None:
        if self.l3 is not None and not self.l3.shared:
            raise ConfigurationError("the L3 must be configured as shared")
        if self.inclusive:
            blocks = {
                level.geometry.block_size
                for level in (self.l1i, self.l1d, self.l2, self.l3)
                if level is not None
            }
            if len(blocks) != 1:
                raise ConfigurationError(
                    "inclusive simulation requires a uniform block size"
                )

    def levels(self) -> tuple[CacheLevelConfig, ...]:
        """All configured levels in lookup order."""
        base = (self.l1i, self.l1d, self.l2)
        return base + ((self.l3,) if self.l3 is not None else ())

    def with_l3_ways(self, ways: int) -> "HierarchyConfig":
        """Return a copy with CAT restricting the L3 to ``ways`` ways."""
        if self.l3 is None:
            raise ConfigurationError("hierarchy has no L3 to partition")
        return replace(
            self,
            l3=replace(self.l3, geometry=self.l3.geometry.with_ways(ways)),
        )

    def with_l3_size(self, size: int, assoc: int | None = None) -> "HierarchyConfig":
        """Return a copy with a different L3 capacity."""
        if self.l3 is None:
            raise ConfigurationError("hierarchy has no L3 to resize")
        geo = self.l3.geometry
        new_assoc = assoc if assoc is not None else geo.assoc
        return replace(
            self,
            l3=replace(
                self.l3,
                geometry=CacheGeometry(size, new_assoc, geo.block_size),
            ),
        )

    def scaled(self, factor: float) -> "HierarchyConfig":
        """Scale every level's capacity by ``factor`` (for scaled runs)."""
        return HierarchyConfig(
            l1i=self.l1i.scaled(factor),
            l1d=self.l1d.scaled(factor),
            l2=self.l2.scaled(factor),
            l3=self.l3.scaled(factor) if self.l3 else None,
            inclusive=self.inclusive,
        )


class AnalyticHierarchyResult(HierarchyResult):
    """Hierarchy result that retains the post-L2 stream for reuse.

    ``l3_curve`` is the miss-ratio curve of the stream entering the L3:
    calling :meth:`l3_sweep` evaluates any number of L3 capacities without
    re-simulating.
    """

    def __init__(
        self,
        levels: dict[str, LevelStats],
        instruction_count: int,
        trace: Trace,
        l3_indices: np.ndarray,
        l3_curve: MissRatioCurve | None,
        l3_block_size: int,
    ) -> None:
        super().__init__(levels=levels, instruction_count=instruction_count)
        self.trace = trace
        self.l3_indices = l3_indices
        self.l3_curve = l3_curve
        self.l3_block_size = l3_block_size

    def _require_curve(self) -> MissRatioCurve:
        if self.l3_curve is None:
            raise SimulationError("hierarchy was simulated without an L3")
        return self.l3_curve

    def l3_sweep(self, capacities_bytes: list[int]) -> dict[int, LevelStats]:
        """Per-capacity L3 stats for a capacity sweep (Figure 6b/6c)."""
        curve = self._require_curve()
        segments = self.trace.segment[self.l3_indices]
        kinds = self.trace.kind[self.l3_indices]
        out: dict[int, LevelStats] = {}
        for capacity in capacities_bytes:
            lines = max(1, capacity // self.l3_block_size)
            hits = curve.hit_mask(lines)
            stats = LevelStats(name="L3")
            stats.record_arrays(segments, kinds, hits)
            out[capacity] = stats
        return out


def simulate_hierarchy(
    trace: Trace,
    config: HierarchyConfig,
    prefetchers: dict[str, PrefetcherBase] | None = None,
) -> HierarchyResult:
    """Simulate a trace through the hierarchy exactly; see module docstring."""
    if len(trace) == 0:
        raise SimulationError("cannot simulate an empty trace")
    if config.inclusive or prefetchers:
        fastsim.count_fallback()
        return _simulate_exact(trace, config, prefetchers or {})
    levels, l3_idx = _upstream_pass(trace, config, _lru_hits)
    if config.l3 is not None:
        levels["L3"] = LevelStats(name="L3")
        if len(l3_idx):
            _level_pass(trace, l3_idx, config.l3.geometry, levels["L3"], _lru_hits)
    return HierarchyResult(levels=levels, instruction_count=trace.instruction_count)


def analytic_hierarchy(
    trace: Trace, config: HierarchyConfig
) -> AnalyticHierarchyResult:
    """Fully-associative LRU approximation of the hierarchy, one curve per level.

    Every level's hits come from a :class:`MissRatioCurve` of its input
    stream at the level's capacity; the L3's curve is kept on the result
    for capacity sweeps and L4 demand streams.
    """
    if len(trace) == 0:
        raise SimulationError("cannot simulate an empty trace")
    levels, l3_idx = _upstream_pass(trace, config, _fully_associative_hits)
    l3_curve = None
    l3_block = 64
    if config.l3 is not None:
        levels["L3"] = LevelStats(name="L3")
        if len(l3_idx):
            geo = config.l3.geometry
            l3_block = geo.block_size
            l3_curve = MissRatioCurve(lines_of_addrs(trace.addr[l3_idx], l3_block))
            levels["L3"].record_arrays(
                trace.segment[l3_idx],
                trace.kind[l3_idx],
                l3_curve.hit_mask(geo.capacity_lines),
            )
    return AnalyticHierarchyResult(
        levels=levels,
        instruction_count=trace.instruction_count,
        trace=trace,
        l3_indices=l3_idx,
        l3_curve=l3_curve,
        l3_block_size=l3_block,
    )


# ----------------------------------------------------------------------
# Level-by-level replay
# ----------------------------------------------------------------------

#: Hit mask of one cache level over its input lines, from cold.
_HitFunction = Callable[[np.ndarray, CacheGeometry], np.ndarray]


def _lru_hits(lines: np.ndarray, geometry: CacheGeometry) -> np.ndarray:
    """Exact set-associative LRU (the vectorized kernel)."""
    return fast_lru_hits(lines, geometry.num_sets, geometry.effective_ways)


def _fully_associative_hits(
    lines: np.ndarray, geometry: CacheGeometry
) -> np.ndarray:
    """Fully-associative LRU approximation at the level's capacity."""
    return MissRatioCurve(lines).hit_mask(geometry.capacity_lines)


def _level_pass(
    trace: Trace,
    indices: np.ndarray,
    geometry: CacheGeometry,
    stats: LevelStats,
    hits_of: _HitFunction,
) -> np.ndarray:
    """Run one cache level over ``trace[indices]``; return the miss indices."""
    lines = lines_of_addrs(trace.addr[indices], geometry.block_size)
    hits = hits_of(lines, geometry)
    stats.record_arrays(trace.segment[indices], trace.kind[indices], hits)
    return indices[~hits]


def _upstream_pass(
    trace: Trace, config: HierarchyConfig, hits_of: _HitFunction
) -> tuple[dict[str, LevelStats], np.ndarray]:
    """Replay the trace through L1-I/L1-D/L2; return their stats + L3 input.

    Each private level sees its thread's stream filtered by the level
    above (the warm-state handoff of the per-access loop), and the
    returned indices are the program-order merge of every thread's L2
    misses.  ``hits_of`` decides each level's hits.
    """
    stats = {name: LevelStats(name=name) for name in ("L1I", "L1D", "L2")}
    is_instr = trace.kind == AccessKind.INSTR
    l2_parts: list[np.ndarray] = []
    for t in trace.thread_ids():
        of_thread = trace.thread == np.uint16(t)
        misses: list[np.ndarray] = []
        for name, level, select in (
            ("L1I", config.l1i, is_instr),
            ("L1D", config.l1d, ~is_instr),
        ):
            idx = np.flatnonzero(of_thread & select)
            if len(idx):
                misses.append(
                    _level_pass(trace, idx, level.geometry, stats[name], hits_of)
                )
        if not misses:
            continue
        l2_in = np.sort(np.concatenate(misses))
        if len(l2_in):
            l2_parts.append(
                _level_pass(trace, l2_in, config.l2.geometry, stats["L2"], hits_of)
            )
    l3_idx = (
        np.sort(np.concatenate(l2_parts)) if l2_parts else np.empty(0, np.int64)
    )
    return stats, l3_idx


# ----------------------------------------------------------------------
# Per-access loop (inclusion and prefetchers)
# ----------------------------------------------------------------------


def _shift(geometry: CacheGeometry) -> int:
    return block_shift(geometry.block_size)


def _simulate_exact(
    trace: Trace,
    config: HierarchyConfig,
    prefetchers: dict[str, PrefetcherBase],
) -> HierarchyResult:
    unknown = set(prefetchers) - {"L1I", "L1D", "L2", "L3"}
    if unknown:
        raise ConfigurationError(f"prefetchers for unknown levels: {unknown}")

    threads = trace.thread_ids()
    l1i = {t: SetAssociativeCache(config.l1i.geometry) for t in threads}
    l1d = {t: SetAssociativeCache(config.l1d.geometry) for t in threads}
    l2 = {t: SetAssociativeCache(config.l2.geometry) for t in threads}
    l3 = SetAssociativeCache(config.l3.geometry) if config.l3 else None

    stats = {
        name: LevelStats(name=name)
        for name in ("L1I", "L1D", "L2") + (("L3",) if l3 else ())
    }
    s1 = _shift(config.l1i.geometry)
    s1d = _shift(config.l1d.geometry)
    s2 = _shift(config.l2.geometry)
    s3 = _shift(config.l3.geometry) if config.l3 else 0

    addr_list = trace.addr.tolist()
    kind_list = trace.kind.tolist()
    seg_list = trace.segment.tolist()
    thr_list = trace.thread.tolist()
    instr = int(AccessKind.INSTR)
    inclusive = config.inclusive

    pf = {name: prefetchers.get(name) for name in ("L1I", "L1D", "L2", "L3")}

    for addr, kind, seg, thr in zip(addr_list, kind_list, seg_list, thr_list):
        if kind == instr:
            cache, shift, name = l1i[thr], s1, "L1I"
        else:
            cache, shift, name = l1d[thr], s1d, "L1D"
        line = addr >> shift
        hit, __ = cache.access(line)
        stats[name].record(seg, kind, hit)
        if hit:
            continue
        pf1 = pf[name]
        if pf1 is not None:
            for p in pf1.on_miss(line):
                cache.fill(p)

        line2 = addr >> s2
        hit, __ = l2[thr].access(line2)
        stats["L2"].record(seg, kind, hit)
        if not hit and pf["L2"] is not None:
            for p in pf["L2"].on_miss(line2):
                l2[thr].fill(p)
        if hit or l3 is None:
            continue

        line3 = addr >> s3
        hit, victim = l3.access(line3)
        stats["L3"].record(seg, kind, hit)
        if not hit and pf["L3"] is not None:
            for p in pf["L3"].on_miss(line3):
                l3.fill(p)
        if inclusive and victim is not None:
            # Back-invalidate the evicted line everywhere above the L3.
            for caches in (l1i, l1d, l2):
                for c in caches.values():
                    c.invalidate(victim)

    return HierarchyResult(levels=stats, instruction_count=trace.instruction_count)
