"""Tests for repro.memtrace.synthetic."""

import numpy as np
import pytest

from repro._units import GiB
from repro.errors import ConfigurationError
from repro.memtrace.stats import unique_lines
from repro.memtrace.synthetic import StackModel, SyntheticWorkload, WorkloadConfig
from repro.memtrace.trace import AccessKind, Segment


@pytest.fixture
def config():
    return WorkloadConfig().scaled(1 / 256)


@pytest.fixture
def workload(config):
    return SyntheticWorkload(config, seed=42)


class TestWorkloadConfig:
    def test_defaults_valid(self):
        WorkloadConfig()

    def test_scale_bounds(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(scale=0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(scale=1.5)

    def test_fractions_must_sum(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(heap_fraction=0.5, shard_fraction=0.5, stack_fraction=0.5)

    def test_scaled_copies(self):
        cfg = WorkloadConfig().scaled(1 / 4)
        assert cfg.scale == 1 / 4
        assert cfg.micro_scale == 1 / 4
        cfg2 = WorkloadConfig().scaled(1 / 4, micro_scale=1.0)
        assert cfg2.micro_scale == 1.0

    def test_scaled_sizes(self):
        cfg = WorkloadConfig(heap_pool_bytes=GiB).scaled(1 / 16)
        assert cfg.scaled_heap_bytes == GiB // 16
        assert cfg.scaled_code_bytes == cfg.code_footprint // 16

    def test_scaled_sizes_have_floors(self):
        cfg = WorkloadConfig().scaled(1e-9)
        assert cfg.scaled_heap_bytes >= cfg.heap_object_bytes
        assert cfg.scaled_code_bytes >= cfg.scaled_function_bytes
        assert cfg.scaled_stack_bytes >= 2 * cfg.scaled_frame_bytes

    def test_event_rates(self):
        cfg = WorkloadConfig()
        assert cfg.data_events_per_ki == cfg.loads_per_ki + cfg.stores_per_ki
        assert cfg.fetch_events_per_ki == pytest.approx(
            1000 / cfg.instructions_per_fetch
        )


class TestSegmentModels:
    def test_code_addresses_within_footprint(self, config, workload):
        addrs = workload.code.generate(10_000)
        base = workload.address_space.code.base
        assert addrs.min() >= base
        assert addrs.max() < base + workload.code.footprint_bytes

    def test_code_reuse_exists(self, workload):
        addrs = workload.code.generate(20_000)
        assert len(np.unique(addrs)) < len(addrs) / 2

    def test_heap_addresses_within_pool(self, workload):
        addrs = workload.heap.generate(10_000)
        base = workload.address_space.heap.base
        assert addrs.min() >= base
        assert addrs.max() < base + workload.heap.pool_bytes

    def test_heap_zipf_reuse(self, workload):
        addrs = workload.heap.generate(50_000)
        lines, counts = np.unique(addrs >> 6, return_counts=True)
        # Zipfian popularity: the hottest line far exceeds the median.
        assert counts.max() > 10 * np.median(counts)

    def test_shard_addresses_in_region(self, workload):
        addrs = workload.shard.generate(10_000)
        region = workload.address_space.shard
        assert addrs.min() >= region.base
        assert addrs.max() < region.end

    def test_shard_sequential_runs(self, workload):
        addrs = workload.shard.generate(10_000)
        lines = addrs >> 6
        deltas = np.diff(lines)
        # Most steps advance by exactly one line (sequential scans).
        assert np.count_nonzero(deltas == 1) > 0.5 * len(deltas)

    def test_stack_window_bounded(self, config, workload):
        region = workload.address_space.thread_stack(0)
        model = StackModel(config, region.base, np.random.default_rng(0))
        addrs = model.generate(10_000)
        assert addrs.min() >= region.base
        assert addrs.max() < region.base + config.scaled_stack_bytes + config.scaled_frame_bytes

    def test_zero_events(self, workload):
        assert len(workload.code.generate(0)) == 0
        assert len(workload.heap.generate(0)) == 0
        assert len(workload.shard.generate(0)) == 0


class TestGenerate:
    def test_trace_instruction_count(self, workload):
        trace = workload.generate_thread(100_000)
        assert trace.instruction_count == 100_000

    def test_event_mix_matches_config(self, config, workload):
        trace = workload.generate_thread(100_000)
        counts = trace.kind_counts()
        ki = 100.0
        assert counts[AccessKind.LOAD] == pytest.approx(
            config.loads_per_ki * ki, rel=0.05
        )
        assert counts[AccessKind.STORE] == pytest.approx(
            config.stores_per_ki * ki, rel=0.05
        )

    def test_segments_match_address_space(self, workload):
        trace = workload.generate_thread(20_000)
        space = workload.address_space
        for addr, kind, segment, thread in list(trace)[:500]:
            assert space.classify(addr) == segment

    def test_shard_never_written(self, workload):
        trace = workload.generate_thread(50_000)
        shard = trace.only_segment(Segment.SHARD)
        assert not (shard.kind == AccessKind.STORE).any()

    def test_code_is_instr_only(self, workload):
        trace = workload.generate_thread(50_000)
        code = trace.only_segment(Segment.CODE)
        assert (code.kind == AccessKind.INSTR).all()

    def test_multi_thread_trace(self, workload):
        trace = workload.generate(20_000, threads=4)
        assert trace.thread_ids() == [0, 1, 2, 3]
        assert trace.instruction_count == 80_000

    def test_threads_share_heap(self, config):
        workload = SyntheticWorkload(config, seed=0)
        trace = workload.generate(30_000, threads=4)
        heap = trace.only_segment(Segment.HEAP)
        per_thread_unique = [
            unique_lines(heap.only_thread(t)) for t in range(4)
        ]
        union = unique_lines(heap)
        # Shared Zipf pool: the union is far below the sum (overlap).
        assert union < 0.8 * sum(per_thread_unique)

    def test_threads_do_not_share_shard(self, config):
        workload = SyntheticWorkload(config, seed=0)
        trace = workload.generate(30_000, threads=4)
        shard = trace.only_segment(Segment.SHARD)
        per_thread_unique = [unique_lines(shard.only_thread(t)) for t in range(4)]
        union = unique_lines(shard)
        # Disjoint random scans: near-additive working sets.
        assert union > 0.8 * sum(per_thread_unique)

    def test_rejects_non_positive(self, workload):
        with pytest.raises(ConfigurationError):
            workload.generate_thread(0)
        with pytest.raises(ConfigurationError):
            workload.generate(1000, threads=0)


class TestSegmentStreams:
    def test_independent_lengths(self, workload):
        streams = workload.segment_streams(
            {Segment.CODE: 1000, Segment.HEAP: 5000, Segment.SHARD: 2000}
        )
        assert len(streams[Segment.CODE]) == 1000
        assert len(streams[Segment.HEAP]) == 5000
        assert len(streams[Segment.SHARD]) == 2000

    def test_block_size_respected(self, workload):
        s64 = workload.segment_streams({Segment.HEAP: 1000})[Segment.HEAP]
        workload2 = SyntheticWorkload(workload.config, seed=42)
        s128 = workload2.segment_streams({Segment.HEAP: 1000}, block_size=128)
        assert s128[Segment.HEAP].max() <= s64.max()

    def test_rejects_zero_events(self, workload):
        with pytest.raises(ConfigurationError):
            workload.segment_streams({Segment.CODE: 0})

    def test_stack_stream_available(self, workload):
        streams = workload.segment_streams({Segment.STACK: 500})
        assert len(streams[Segment.STACK]) == 500
