"""Fused whole-hierarchy sweeps: decode and replay a trace once per campaign.

The paper's headline figures are sweeps — L3 capacity 4 MiB → 2 GiB
(Figure 6), associativity 1 → full (Figure 7), L4 sizes (Figures 12–14) —
and a per-point replay spends the vectorized kernels' speedup N times
over: every sweep point re-filters the trace through L1-I/L1-D/L2 even
though only the last level changed.  This module fuses the campaign:

* **Shared upstream passes.**  Configurations are grouped by their
  (L1-I, L1-D, L2) geometries; each group replays the trace through the
  upstream levels exactly once — the same warm-state handoff as a
  per-point run, each level's miss stream feeding the next — and every
  configuration in the group receives its own copy of the shared
  :class:`~repro.cachesim.results.LevelStats`.
* **One-pass Mattson ladders.**  Within a group, last-level
  configurations that share ``(block_size, num_sets)`` form an
  associativity ladder: per-set LRU stack inclusion holds, so one
  stack-distance pass over the (already filtered) last-level stream
  yields every ladder entry's hit mask
  (:func:`repro.cachesim.fastsim.fast_lru_hits_ladder`).  Capacity
  ladders vary ``num_sets``, which breaks inclusion (lines migrate
  between sets) — those points fall back to one kernel call each, still
  sharing the upstream passes.

The L4 consumes the swept L3's miss stream
(:meth:`~repro.cachesim.composed.ComposedHierarchy.l4_demand`, built
once per L3 capacity and seed from the memoized L3 solves) through the
vectorized direct-mapped kernel.
Inclusive hierarchies couple the levels access by access, so inclusive
points in a sweep run :func:`~repro.cachesim.hierarchy.simulate_hierarchy`
one by one (its counted per-access fallback).

Everything here is bit-identical to per-point replay — enforced by the
Hypothesis differential suite (``tests/cachesim/test_fused.py``).
"""

from __future__ import annotations

import numpy as np

from repro.cachesim.fastsim import fast_lru_hits, fast_lru_hits_ladder
from repro.cachesim.hierarchy import (
    HierarchyConfig,
    _lru_hits,
    _upstream_pass,
    simulate_hierarchy,
)
from repro.cachesim.indexing import lines_of_addrs
from repro.cachesim.results import HierarchyResult, LevelStats
from repro.errors import ConfigurationError, SimulationError
from repro.memtrace.trace import Trace


def simulate_hierarchy_sweep(
    trace: Trace,
    configs: list[HierarchyConfig],
) -> list[HierarchyResult]:
    """Simulate many hierarchy configurations with shared passes.

    The campaign form of
    :func:`~repro.cachesim.hierarchy.simulate_hierarchy`: results are
    returned in ``configs`` order and each is bit-identical to a
    per-point ``simulate_hierarchy(trace, config)`` run.
    Work is shared at two levels — one upstream L1/L2 replay per distinct
    (L1-I, L1-D, L2) geometry triple, and one stack-distance pass per
    last-level associativity ladder (fixed block size and set count);
    capacity points that change the set count break Mattson inclusion
    and replay the (already filtered) L3 stream per point.

    Inclusive configurations are not vectorizable; each one runs
    :func:`~repro.cachesim.hierarchy.simulate_hierarchy` on its own.
    """
    if not configs:
        raise ConfigurationError("need at least one hierarchy configuration")
    if len(trace) == 0:
        raise SimulationError("cannot simulate an empty trace")
    results: list[HierarchyResult | None] = [None] * len(configs)
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        if config.inclusive:
            results[i] = simulate_hierarchy(trace, config)
            continue
        key = (config.l1i.geometry, config.l1d.geometry, config.l2.geometry)
        groups.setdefault(key, []).append(i)

    for members in groups.values():
        upstream, l3_idx = _upstream_pass(trace, configs[members[0]], _lru_hits)

        # Sub-group the last level into associativity ladders.
        ladders: dict[tuple[int, int], list[int]] = {}
        for i in members:
            l3 = configs[i].l3
            if l3 is None or not len(l3_idx):
                levels = {name: s.copy() for name, s in upstream.items()}
                if l3 is not None:
                    # Nothing reached the L3; keep its zeroed stats so the
                    # result matches a per-point run level for level.
                    levels["L3"] = LevelStats(name="L3")
                results[i] = HierarchyResult(
                    levels=levels,
                    instruction_count=trace.instruction_count,
                )
                continue
            geo = l3.geometry
            ladders.setdefault((geo.block_size, geo.num_sets), []).append(i)

        lines_by_block: dict[int, np.ndarray] = {}
        for (block_size, num_sets), ladder in ladders.items():
            lines = lines_by_block.get(block_size)
            if lines is None:
                lines = lines_of_addrs(trace.addr[l3_idx], block_size)
                lines_by_block[block_size] = lines
            segments = trace.segment[l3_idx]
            kinds = trace.kind[l3_idx]
            ways = [configs[i].l3.geometry.effective_ways for i in ladder]
            if len(ladder) > 1:
                masks = fast_lru_hits_ladder(lines, num_sets, ways)
            else:
                masks = [fast_lru_hits(lines, num_sets, ways[0])]
            for i, hits in zip(ladder, masks):
                stats = {name: s.copy() for name, s in upstream.items()}
                l3_stats = LevelStats(name="L3")
                l3_stats.record_arrays(segments, kinds, hits)
                stats["L3"] = l3_stats
                results[i] = HierarchyResult(
                    levels=stats, instruction_count=trace.instruction_count
                )

    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]
