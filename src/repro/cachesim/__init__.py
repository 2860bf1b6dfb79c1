"""Trace-driven cache simulation.

Two models implement the paper's methodology (§III-A):

* **exact** — functional set-associative LRU simulation with way-masking
  (Intel CAT), optional inclusion with back-invalidation, and optional
  prefetchers (:func:`~repro.cachesim.hierarchy.simulate_hierarchy`).
  Used for L1/L2 studies and validation.
* **analytic** — a single-pass reuse-distance / footprint-theory model
  that produces the entire LRU miss-ratio curve of a cache level from one
  numpy pass (:func:`~repro.cachesim.hierarchy.analytic_hierarchy`), plus
  an exact vectorized direct-mapped simulation for the L4.  Used for the
  GiB-scale capacity sweeps, where the paper shows conflict misses are
  negligible (Figure 7a).

Exact simulation has one behaviour and each entry point picks its
implementation from the request: the NumPy-vectorized kernels of
:mod:`repro.cachesim.fastsim` whenever they are exact (LRU, no
inclusion, no prefetchers), otherwise the per-access loop of
:class:`~repro.cachesim.cache.SetAssociativeCache`, counted as a
fallback.  The differential suite in
``tests/cachesim/test_fastsim_differential.py`` pins the two to each
other bit for bit.

:mod:`repro.cachesim.fused` raises that contract from single runs to whole
*campaigns*: :func:`~repro.cachesim.fused.simulate_hierarchy_sweep` replays
a trace once per upstream-hierarchy group instead of once per sweep point,
and derives associativity ladders from one per-set stack-distance pass
(Mattson inclusion) — bit-identical to per-point runs.  The speed ladder is
documented in docs/PERFORMANCE.md.
"""

from repro.cachesim.cache import CacheGeometry, SetAssociativeCache
from repro.cachesim.directmapped import simulate_direct_mapped
from repro.cachesim.fastsim import (
    CASCADE_MAX_WAYS,
    fast_lru_hits,
    fast_lru_hits_ladder,
    fast_stack_distances,
)
from repro.cachesim.indexing import (
    block_shift,
    line_of_addr,
    lines_of_addrs,
    set_index,
    set_indices,
)
from repro.cachesim.mattson import hit_rate_for_capacities, hit_rate_for_ways
from repro.cachesim.opt import opt_hit_rate, simulate_opt
from repro.cachesim.misscurve import MissRatioCurve
from repro.cachesim.results import HierarchyResult, LevelStats
from repro.cachesim.hierarchy import (
    CacheLevelConfig,
    HierarchyConfig,
    analytic_hierarchy,
    simulate_hierarchy,
)
from repro.cachesim.prefetch import StreamPrefetcher
from repro.cachesim.missclass import classify_misses, MissBreakdown
from repro.cachesim.fused import simulate_hierarchy_sweep

__all__ = [
    "CacheGeometry",
    "SetAssociativeCache",
    "CASCADE_MAX_WAYS",
    "fast_lru_hits",
    "fast_lru_hits_ladder",
    "fast_stack_distances",
    "block_shift",
    "line_of_addr",
    "lines_of_addrs",
    "set_index",
    "set_indices",
    "simulate_direct_mapped",
    "hit_rate_for_capacities",
    "hit_rate_for_ways",
    "opt_hit_rate",
    "simulate_opt",
    "MissRatioCurve",
    "HierarchyResult",
    "LevelStats",
    "CacheLevelConfig",
    "HierarchyConfig",
    "simulate_hierarchy",
    "analytic_hierarchy",
    "StreamPrefetcher",
    "classify_misses",
    "MissBreakdown",
    "simulate_hierarchy_sweep",
]
