"""Tests for the composed multi-level hierarchy engine."""

import dataclasses

import numpy as np
import pytest

from repro._units import MiB
from repro.cachesim.composed import ComposedHierarchy, SegmentRates
from repro.cachesim.composition import CompositeCache
from repro.cachesim.misscurve import MissRatioCurve
from repro.errors import ConfigurationError, SimulationError
from repro.hw import catalog
from repro.hw.adapters import hierarchy_config
from repro.memtrace.synthetic import SyntheticWorkload, WorkloadConfig
from repro.memtrace.trace import Segment

#: The §III-A simulated PLT1-like hierarchy, from the hardware catalog.
PLT1_SIM = hierarchy_config(catalog.plt1_simulated())


@pytest.fixture(scope="module")
def streams():
    workload = SyntheticWorkload(WorkloadConfig().scaled(1 / 64), seed=5)
    return workload.segment_streams(
        {
            Segment.CODE: 120_000,
            Segment.HEAP: 400_000,
            Segment.SHARD: 250_000,
            Segment.STACK: 30_000,
        }
    )


@pytest.fixture(scope="module")
def hierarchy(streams):
    config = PLT1_SIM.scaled(1 / 64)
    return ComposedHierarchy(streams, SegmentRates(), config, threads=8)


class TestConstruction:
    def test_requires_core_segments(self):
        config = PLT1_SIM.scaled(1 / 64)
        with pytest.raises(ConfigurationError):
            ComposedHierarchy({}, SegmentRates(), config)

    def test_rejects_mixed_block_sizes(self, streams):
        from dataclasses import replace

        from repro.cachesim.cache import CacheGeometry
        from repro.cachesim.hierarchy import CacheLevelConfig

        config = PLT1_SIM.scaled(1 / 64)
        bad = replace(
            config,
            l1d=CacheLevelConfig("L1D", CacheGeometry(1024, 8, 128)),
        )
        with pytest.raises(ConfigurationError):
            ComposedHierarchy(streams, SegmentRates(), bad)

    def test_rejects_bad_threads(self, streams):
        config = PLT1_SIM.scaled(1 / 64)
        with pytest.raises(ConfigurationError):
            ComposedHierarchy(streams, SegmentRates(), config, threads=0)

    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            SegmentRates(code=0.0)


class TestLevelStructure:
    def test_code_only_in_l1i(self, hierarchy):
        assert set(hierarchy.l1i.components) == {"code"}

    def test_data_segments_in_l1d(self, hierarchy):
        assert set(hierarchy.l1d.components) == {"heap", "shard", "stack"}

    def test_mpki_decreases_down_hierarchy(self, hierarchy):
        code = [hierarchy.mpki(level, Segment.CODE) for level in ("L1I", "L2", "L3")]
        assert code[0] >= code[1] >= code[2]
        heap = [hierarchy.mpki(level, Segment.HEAP) for level in ("L1D", "L2", "L3")]
        assert heap[0] >= heap[1] >= heap[2]

    def test_mpki_absent_segment_zero(self, hierarchy):
        assert hierarchy.mpki("L1I", Segment.HEAP) == 0.0

    def test_unknown_level_rejected(self, hierarchy):
        with pytest.raises(ConfigurationError):
            hierarchy.mpki("L9")

    def test_total_mpki_sums_segments(self, hierarchy):
        total = hierarchy.mpki("L3")
        parts = sum(hierarchy.mpki("L3", seg) for seg in Segment)
        assert total == pytest.approx(parts)


class TestReleasedCurves:
    """The L1 and L2 curves drop their per-access arrays once the next
    level is derived; the curves the L3 shares keep them."""

    @staticmethod
    def _upstream(hierarchy):
        return [
            component
            for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
            for component in cache.components.values()
        ]

    def test_unshared_l1_l2_curves_raise_typed_error(self, hierarchy):
        shared = {id(c.curve) for c in hierarchy.l3.components.values()}
        released = [
            c for c in self._upstream(hierarchy) if id(c.curve) not in shared
        ]
        assert len(released) >= 5
        for component in released:
            mask = np.zeros(len(component.lines), bool)
            mask[::2] = True
            with pytest.raises(SimulationError):
                component.curve.filtered(mask)
            with pytest.raises(SimulationError):
                component.curve.hit_mask(64)

    def test_released_hit_rates_unchanged(self, hierarchy):
        for component in self._upstream(hierarchy):
            fresh = MissRatioCurve(component.lines)
            for capacity in (8, 64, 512, 4096):
                assert component.curve.hit_rate(capacity) == fresh.hit_rate(
                    capacity
                )
        for level, cache in (
            ("L1I", hierarchy.l1i),
            ("L1D", hierarchy.l1d),
            ("L2", hierarchy.l2),
        ):
            rebuilt = CompositeCache(
                [
                    dataclasses.replace(c, curve=MissRatioCurve(c.lines))
                    for c in cache.components.values()
                ],
                cache.capacity_lines,
            )
            for name in cache.components:
                assert cache.hit_rate(name) == rebuilt.hit_rate(name)
                assert cache.mpki(name) == rebuilt.mpki(name), level

    def test_l3_inputs_keep_per_access_arrays(self, hierarchy):
        for name in hierarchy.l3.components:
            assert hierarchy.l3.miss_component(name) is not None
            hierarchy.l3_at(MiB).hit_mask(name)


class TestPaperShapes:
    """The composed S1-like run must show the paper's qualitative shapes
    even at the tiny test scale."""

    def test_l3_captures_code(self, hierarchy):
        scale = 1 / 64
        big = int(64 * MiB * scale)
        assert hierarchy.l3_hit_rate(big, Segment.CODE) > 0.9

    def test_shard_worse_than_heap_at_any_capacity(self, hierarchy):
        scale = 1 / 64
        for paper_mib in (16, 128, 1024):
            capacity = int(paper_mib * MiB * scale)
            assert hierarchy.l3_hit_rate(capacity, Segment.SHARD) < hierarchy.l3_hit_rate(
                capacity, Segment.HEAP
            )

    def test_l3_hit_rate_monotone(self, hierarchy):
        scale = 1 / 64
        rates = [
            hierarchy.l3_hit_rate(int(mib * MiB * scale))
            for mib in (4, 16, 64, 256, 1024)
        ]
        assert rates == sorted(rates)

    def test_l3_mpki_antitone(self, hierarchy):
        scale = 1 / 64
        mpkis = [
            hierarchy.l3_mpki(int(mib * MiB * scale))
            for mib in (4, 16, 64, 256, 1024)
        ]
        assert mpkis == sorted(mpkis, reverse=True)

    def test_stack_dies_before_l3(self, hierarchy):
        assert hierarchy.mpki("L3", Segment.STACK) < 0.2


class TestL4Demand:
    def test_demand_rate_shrinks_with_l3(self, hierarchy):
        """A bigger L3 leaves fewer misses per kilo-instruction for the L4.

        (Stream *lengths* are span-normalized during the merge, so the
        per-KI miss rate is the meaningful quantity.)
        """
        small = hierarchy.l3_mpki(int(4 * MiB / 64))
        big = hierarchy.l3_mpki(int(64 * MiB / 64))
        assert big <= small

    def test_segments_aligned(self, hierarchy):
        lines, segments = hierarchy.l4_demand(int(16 * MiB / 64))
        assert len(lines) == len(segments)
        present = set(int(s) for s in np.unique(segments))
        assert int(Segment.HEAP) in present
        assert int(Segment.SHARD) in present

    def test_demand_has_reuse(self, hierarchy):
        """The L3 miss stream must retain heap reuse for the L4 to catch."""
        lines, segments = hierarchy.l4_demand(int(16 * MiB / 64))
        heap_lines = lines[segments == int(Segment.HEAP)]
        assert len(np.unique(heap_lines)) < 0.9 * len(heap_lines)

    def test_huge_l3_leaves_only_cold_demand(self, hierarchy):
        """An L3 bigger than every working set passes only cold misses on,
        so the residual demand stream is (almost) all first touches."""
        lines, __ = hierarchy.l4_demand(1 << 40)
        unique_fraction = len(np.unique(lines)) / len(lines)
        assert unique_fraction > 0.95
