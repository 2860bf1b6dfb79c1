"""Cross-module integration tests.

These tie the substrates together the way the experiments do, and validate
the central methodological claims: the analytic engines agree with exact
simulation, the composed engine agrees with direct interleaved simulation,
and the mini search engine's emitted traces behave like the calibrated
synthetic ones.
"""

import numpy as np
import pytest

from repro._units import MiB
from repro.cachesim import analytic_hierarchy, simulate_hierarchy
from repro.cachesim.composed import ComposedHierarchy, SegmentRates
from repro.cachesim.composition import CompositeCache, StreamComponent
from repro.hw import catalog
from repro.hw.adapters import hierarchy_config
from repro.memtrace.synthetic import SyntheticWorkload, WorkloadConfig
from repro.memtrace.trace import AccessKind, Segment
from repro.search.cluster import SearchCluster
from repro.search.documents import CorpusConfig
from repro.search.querygen import QueryGenerator, QueryGeneratorConfig

#: The §III-A simulated PLT1-like hierarchy, from the hardware catalog.
PLT1_SIM = hierarchy_config(catalog.plt1_simulated())


class TestEngineAgreement:
    """exact vs analytic on the same trace, across configurations."""

    @pytest.fixture(scope="class")
    def trace(self):
        workload = SyntheticWorkload(WorkloadConfig().scaled(1 / 256), seed=21)
        return workload.generate(80_000, threads=2)

    @pytest.mark.parametrize("l3_mib", [0.25, 1, 4])
    def test_l3_miss_rates_agree(self, trace, l3_mib):
        config = PLT1_SIM.with_l3_size(int(l3_mib * MiB), assoc=8).scaled(1 / 64)
        exact = simulate_hierarchy(trace, config)
        analytic = analytic_hierarchy(trace, config)
        e = exact.level("L3")
        a = analytic.level("L3")
        e_rate = e.total_misses / max(1, e.total_accesses)
        a_rate = a.total_misses / max(1, a.total_accesses)
        assert a_rate == pytest.approx(e_rate, abs=0.08)

    def test_segment_mpki_ordering_agrees(self, trace):
        config = PLT1_SIM.with_l3_size(1 * MiB, assoc=8).scaled(1 / 64)
        exact = simulate_hierarchy(trace, config)
        analytic = analytic_hierarchy(trace, config)
        for level in ("L2", "L3"):
            e_order = sorted(
                Segment, key=lambda s: exact.segment_mpki(level, s)
            )
            a_order = sorted(
                Segment, key=lambda s: analytic.segment_mpki(level, s)
            )
            assert e_order[-1] == a_order[-1]  # same dominant segment


class TestComposedVsDirect:
    """The composed engine against a literal interleaved simulation at
    matched rates — the validation behind the paper-scale sweeps."""

    def test_l3_hit_rates_match(self):
        rates = SegmentRates(code=100.0, heap=40.0, shard=25.0, stack=15.0)
        config = WorkloadConfig(
            loads_per_ki=rates.heap + rates.shard + rates.stack,
            stores_per_ki=0.0,
            heap_fraction=rates.heap / 80.0,
            shard_fraction=rates.shard / 80.0,
            stack_fraction=rates.stack / 80.0,
            instructions_per_fetch=10.0,
        ).scaled(1 / 256)
        hierarchy = PLT1_SIM.with_l3_size(4 * MiB, assoc=8).scaled(
            1 / 64
        )

        # Direct: generate a literal trace at these rates and simulate.
        workload = SyntheticWorkload(config, seed=33)
        trace = workload.generate_thread(120_000)
        direct = analytic_hierarchy(trace, hierarchy)

        # Composed: independent per-segment streams at the same rates.
        workload2 = SyntheticWorkload(config, seed=33)
        streams = workload2.segment_streams(
            {
                Segment.CODE: 140_000,
                Segment.HEAP: 60_000,
                Segment.SHARD: 40_000,
                Segment.STACK: 25_000,
            }
        )
        composed = ComposedHierarchy(streams, rates, hierarchy, threads=1)

        for segment in (Segment.CODE, Segment.HEAP):
            direct_mpki = direct.segment_mpki("L3", segment)
            composed_mpki = composed.mpki("L3", segment)
            assert composed_mpki == pytest.approx(direct_mpki, abs=2.0)

    def test_thread_scaling_increases_pressure(self):
        workload = SyntheticWorkload(WorkloadConfig().scaled(1 / 64), seed=5)
        streams = workload.segment_streams(
            {
                Segment.CODE: 150_000,
                Segment.HEAP: 400_000,
                Segment.SHARD: 200_000,
                Segment.STACK: 40_000,
            }
        )
        config = PLT1_SIM.scaled(1 / 64)
        one = ComposedHierarchy(streams, SegmentRates(), config, threads=1)
        many = ComposedHierarchy(streams, SegmentRates(), config, threads=16)
        capacity = int(8 * MiB / 64)
        assert many.l3_hit_rate(capacity, Segment.HEAP) <= one.l3_hit_rate(
            capacity, Segment.HEAP
        ) + 1e-9


class TestSearchEngineTraces:
    """The mini search engine's emitted traces show the paper's structure."""

    @pytest.fixture(scope="class")
    def cluster_trace(self):
        cluster = SearchCluster.build(
            corpus_config=CorpusConfig(
                num_documents=2500, vocabulary_size=20_000, seed=17
            ),
            num_leaves=4,
            result_cache_capacity=256,
            seed=17,
        )
        generator = QueryGenerator(
            QueryGeneratorConfig(
                vocabulary_size=20_000, distinct_queries=1500, seed=17
            )
        )
        cluster.serve_generated(generator, 800)
        return cluster.leaf_trace()

    def test_shard_is_read_only(self, cluster_trace):
        shard = cluster_trace.only_segment(Segment.SHARD)
        assert not (shard.kind == AccessKind.STORE).any()

    def test_heap_has_more_reuse_than_shard(self, cluster_trace):
        from repro.memtrace.stats import cold_fraction

        heap = cluster_trace.only_segment(Segment.HEAP)
        shard = cluster_trace.only_segment(Segment.SHARD)
        assert cold_fraction(heap) < cold_fraction(shard)

    def test_code_fits_small_cache(self, cluster_trace):
        from repro.memtrace.stats import working_set_bytes

        code_ws = working_set_bytes(cluster_trace.only_segment(Segment.CODE))
        heap_ws = working_set_bytes(cluster_trace.only_segment(Segment.HEAP))
        assert code_ws < heap_ws

    def test_hierarchy_simulation_runs(self, cluster_trace):
        config = PLT1_SIM.with_l3_size(2 * MiB, assoc=8).scaled(1 / 16)
        result = analytic_hierarchy(cluster_trace, config)
        # Code is absorbed before memory; the L3's residual misses are data.
        assert result.segment_mpki("L3", Segment.CODE) < result.instr_mpki("L1I")


class TestCompositionTheory:
    """Sanity properties of the composition math."""

    def test_window_grows_with_capacity(self):
        rng = np.random.default_rng(0)
        lines = (rng.zipf(1.3, 20_000) % 3000).astype(np.int64)
        component = StreamComponent("x", lines, rate=10.0)
        windows = [
            CompositeCache([component], capacity).global_window_ki
            for capacity in (16, 64, 256, 1024)
        ]
        assert windows == sorted(windows)

    def test_combined_footprint_at_window_fits(self):
        rng = np.random.default_rng(1)
        components = [
            StreamComponent(
                "a", (rng.zipf(1.3, 10_000) % 1000).astype(np.int64), rate=8.0
            ),
            StreamComponent(
                "b", (rng.zipf(1.2, 10_000) % 2000).astype(np.int64), rate=3.0
            ),
        ]
        capacity = 512
        cache = CompositeCache(components, capacity)
        occupancy = sum(
            c.curve.footprint_clamped(c.rate * cache.global_window_ki)
            for c in components
        )
        assert occupancy <= capacity * 1.001
