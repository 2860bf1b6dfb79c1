"""Benchmarks for the vectorized cache-simulation kernels.

``test_fig7_replay_speedup`` is the headline pair: the fig7 associativity
panel's exact trace replay (base + fully-associative hierarchies) run
through the per-access loop (``hierarchy._simulate_exact``) and through
:func:`~repro.cachesim.hierarchy.simulate_hierarchy`'s vectorized
level-by-level replay, with a hard >=10x floor on the speedup (measured
~23x).  The outputs must also agree — the differential suite proves
bit-identity; this just guards against a benchmark that silently
measures two different computations.

The remaining benchmarks time the individual kernels under normal
pytest-benchmark repetition, like ``bench_substrates.py``.
"""

import time
from dataclasses import replace

import numpy as np

from repro.cachesim.cache import CacheGeometry
from repro.cachesim.directmapped import simulate_direct_mapped
from repro.cachesim.fastsim import fast_lru_hits, fast_stack_distances
from repro.cachesim.hierarchy import (
    HierarchyConfig,
    _simulate_exact,
    simulate_hierarchy,
)
from repro.experiments.common import platform_hierarchy
from repro.memtrace.synthetic import generate_trace
from repro.workloads.profiles import get_profile

MIN_SPEEDUP = 10.0
_LEVELS = ("L1I", "L1D", "L2", "L3")


def _fig7_workload(preset):
    profile = get_profile("s1-leaf")
    trace = generate_trace(
        profile.memory.scaled(preset.scale), 60_000, seed=preset.seed, threads=2
    )
    base = platform_hierarchy("plt1", preset)
    full = HierarchyConfig(
        l1i=_fully(base.l1i),
        l1d=_fully(base.l1d),
        l2=_fully(base.l2),
        l3=_fully(base.l3),
    )
    return trace, (base, full)


def _fully(level):
    geo = level.geometry
    return replace(
        level,
        geometry=CacheGeometry.fully_associative(geo.size, geo.block_size),
    )


def test_fig7_replay_speedup(preset, run_once, benchmark):
    trace, configs = _fig7_workload(preset)
    t0 = time.perf_counter()
    reference = [_simulate_exact(trace, c, {}) for c in configs]
    ref_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast = run_once(lambda: [simulate_hierarchy(trace, c) for c in configs])
    fast_seconds = time.perf_counter() - t0

    for ref_result, fast_result in zip(reference, fast):
        for level in _LEVELS:
            assert (
                fast_result.level(level).total_misses
                == ref_result.level(level).total_misses
            )

    speedup = ref_seconds / fast_seconds
    benchmark.extra_info["reference_seconds"] = round(ref_seconds, 3)
    benchmark.extra_info["fast_seconds"] = round(fast_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    assert speedup >= MIN_SPEEDUP


def _synthetic_lines(n=200_000, span=50_000, seed=7):
    rng = np.random.default_rng(seed)
    return rng.integers(0, span, n, dtype=np.int64)


def test_lru_kernel(benchmark):
    lines = _synthetic_lines()
    hits = benchmark(fast_lru_hits, lines, 4096, 16)
    assert hits.shape == lines.shape


def test_direct_mapped_kernel(benchmark):
    lines = _synthetic_lines()
    hits = benchmark(simulate_direct_mapped, lines, 32_768)
    assert hits.shape == lines.shape


def test_stack_distance_kernel(benchmark):
    lines = _synthetic_lines()
    distances = benchmark(fast_stack_distances, lines)
    assert distances.shape == lines.shape
