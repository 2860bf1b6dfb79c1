"""Tests for the multi-level hierarchy driver (exact and analytic)."""

import pytest

from repro._units import KiB, MiB
from repro.cachesim.cache import CacheGeometry
from repro.cachesim.hierarchy import (
    AnalyticHierarchyResult,
    CacheLevelConfig,
    HierarchyConfig,
    analytic_hierarchy,
    simulate_hierarchy,
)
from repro.cachesim.prefetch import StreamPrefetcher
from repro.errors import ConfigurationError, SimulationError
from repro.hw import catalog
from repro.hw.adapters import hierarchy_config
from repro.memtrace.synthetic import SyntheticWorkload, WorkloadConfig
from repro.memtrace.trace import AccessKind, Trace

#: The §III-A simulated PLT1-like hierarchy, from the hardware catalog.
PLT1_SIM = hierarchy_config(catalog.plt1_simulated())


@pytest.fixture(scope="module")
def trace():
    workload = SyntheticWorkload(WorkloadConfig().scaled(1 / 256), seed=11)
    return workload.generate(60_000, threads=2)


@pytest.fixture
def config():
    return PLT1_SIM.with_l3_size(2 * MiB, assoc=8)


class TestHierarchyConfig:
    def test_plt1_defaults(self):
        config = PLT1_SIM
        assert config.l1i.geometry.size == 32 * KiB
        assert config.l2.geometry.size == 256 * KiB
        assert config.l3.geometry.size == 40 * MiB
        assert config.l3.shared

    def test_plt2_block_size(self):
        config = hierarchy_config(catalog.plt2())
        assert config.l1d.geometry.block_size == 128
        assert config.l3.geometry.size == 96 * MiB

    def test_l3_must_be_shared(self):
        with pytest.raises(ConfigurationError):
            HierarchyConfig(
                l1i=CacheLevelConfig("L1I", CacheGeometry(32 * KiB, 8)),
                l1d=CacheLevelConfig("L1D", CacheGeometry(32 * KiB, 8)),
                l2=CacheLevelConfig("L2", CacheGeometry(256 * KiB, 8)),
                l3=CacheLevelConfig("L3", CacheGeometry(4 * MiB, 8), shared=False),
            )

    def test_with_l3_ways(self):
        config = PLT1_SIM.with_l3_ways(4)
        assert config.l3.geometry.effective_size == 8 * MiB

    def test_with_l3_size(self):
        config = PLT1_SIM.with_l3_size(10 * MiB)
        assert config.l3.geometry.size == 10 * MiB

    def test_scaled_preserves_structure(self):
        config = PLT1_SIM.scaled(1 / 16)
        assert config.l1i.geometry.size == 2 * KiB
        assert config.l1i.geometry.assoc == 8
        assert config.l3.geometry.size <= 40 * MiB // 16

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan"), float("inf")])
    def test_scaled_rejects_bad_factor(self, factor):
        """Typed error, not a one-set cache, ValueError or OverflowError."""
        with pytest.raises(ConfigurationError, match="scale factor"):
            PLT1_SIM.l3.scaled(factor)
        with pytest.raises(ConfigurationError, match="scale factor"):
            PLT1_SIM.scaled(factor)

    def test_levels_listing(self):
        config = PLT1_SIM
        assert [level.name for level in config.levels()] == ["L1I", "L1D", "L2", "L3"]


class TestExactEngine:
    def test_basic_invariants(self, trace, config):
        result = simulate_hierarchy(trace, config.scaled(1 / 256))
        l1i = result.level("L1I")
        l2 = result.level("L2")
        l3 = result.level("L3")
        # L2 sees exactly the L1 misses; L3 sees exactly the L2 misses.
        l1_misses = l1i.total_misses + result.level("L1D").total_misses
        assert l2.total_accesses == l1_misses
        assert l3.total_accesses == l2.total_misses

    def test_instr_only_in_l1i(self, trace, config):
        result = simulate_hierarchy(trace, config.scaled(1 / 256))
        l1i = result.level("L1I")
        assert l1i.misses_for(kinds=(AccessKind.LOAD,)) == 0
        l1d = result.level("L1D")
        assert l1d.misses_for(kinds=(AccessKind.INSTR,)) == 0

    def test_bigger_l3_fewer_misses(self, trace):
        small = simulate_hierarchy(
            trace, PLT1_SIM.with_l3_size(64 * KiB, assoc=8)
        )
        large = simulate_hierarchy(
            trace, PLT1_SIM.with_l3_size(4 * MiB, assoc=8)
        )
        assert large.level("L3").total_misses <= small.level("L3").total_misses

    def test_inclusive_never_better(self, trace):
        """Back-invalidations can only add upper-level misses."""
        base_config = PLT1_SIM.with_l3_size(128 * KiB, assoc=8).scaled(1 / 4)
        base = simulate_hierarchy(trace, base_config)
        from dataclasses import replace

        inclusive = simulate_hierarchy(
            trace, replace(base_config, inclusive=True)
        )
        assert (
            inclusive.level("L2").total_misses
            >= base.level("L2").total_misses
        )

    def test_prefetcher_reduces_misses(self, config):
        """A stream prefetcher must help the sequential shard scans."""
        workload = SyntheticWorkload(
            WorkloadConfig(shard_fraction=0.6, heap_fraction=0.2, stack_fraction=0.2).scaled(1 / 256),
            seed=3,
        )
        trace = workload.generate(40_000)
        scaled = config.scaled(1 / 64)
        base = simulate_hierarchy(trace, scaled)
        prefetched = simulate_hierarchy(
            trace,
            scaled,
            prefetchers={"L2": StreamPrefetcher(degree=4)},
        )
        assert (
            prefetched.level("L2").total_misses < base.level("L2").total_misses
        )

    def test_unknown_prefetcher_level_rejected(self, trace, config):
        with pytest.raises(ConfigurationError):
            simulate_hierarchy(
                trace, config, prefetchers={"L5": StreamPrefetcher()}
            )

    def test_empty_trace_rejected(self, config):
        with pytest.raises(SimulationError):
            simulate_hierarchy(Trace.empty(), config)


class TestAnalyticEngine:
    def test_agrees_with_exact(self, trace, config):
        scaled = config.scaled(1 / 64)
        exact = simulate_hierarchy(trace, scaled)
        analytic = analytic_hierarchy(trace, scaled)
        for level in ("L1I", "L1D", "L2", "L3"):
            e = exact.level(level)
            a = analytic.level(level)
            if e.total_accesses == 0:
                continue
            e_rate = e.total_misses / e.total_accesses
            a_rate = a.total_misses / max(1, a.total_accesses)
            assert a_rate == pytest.approx(e_rate, abs=0.08)

    def test_returns_analytic_result(self, trace, config):
        result = analytic_hierarchy(trace, config.scaled(1 / 64))
        assert isinstance(result, AnalyticHierarchyResult)
        assert result.l3_curve is not None

    def test_l3_sweep_monotone(self, trace, config):
        result = analytic_hierarchy(trace, config.scaled(1 / 64))
        capacities = [32 * KiB, 128 * KiB, 512 * KiB]
        sweep = result.l3_sweep(capacities)
        misses = [sweep[c].total_misses for c in capacities]
        assert misses == sorted(misses, reverse=True)

