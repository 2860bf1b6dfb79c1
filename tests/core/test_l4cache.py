"""Tests for the eDRAM L4 cache model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._units import MiB
from repro.cachesim.misscurve import MissRatioCurve
from repro.core.l4cache import L4Cache, L4Config
from repro.errors import ConfigurationError
from repro.memtrace.trace import Segment


def demand_stream(n=20_000, pool=4000, seed=0):
    """A victim stream with heap-like reuse and shard-like cold scans."""
    rng = np.random.default_rng(seed)
    heap = (rng.zipf(1.3, n // 2) % pool).astype(np.int64)
    shard = rng.integers(1 << 20, 1 << 24, n - n // 2)
    lines = np.concatenate([heap, shard])
    segments = np.concatenate(
        [
            np.full(n // 2, Segment.HEAP, np.uint8),
            np.full(n - n // 2, Segment.SHARD, np.uint8),
        ]
    )
    order = rng.permutation(n)
    return lines[order], segments[order]


class TestL4Config:
    def test_defaults(self):
        config = L4Config()
        assert config.capacity == 1024 * MiB
        assert config.capacity_lines == 1024 * MiB // 64
        assert config.associativity == "direct"
        assert config.technology == "edram"

    def test_variants(self):
        pessimistic = L4Config().pessimistic()
        assert pessimistic.hit_ns == 60.0
        assert pessimistic.miss_penalty_ns == 5.0
        assert L4Config().fully_associative().associativity == "full"

    def test_with_capacity(self):
        assert L4Config().with_capacity(128 * MiB).capacity == 128 * MiB

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            L4Config(capacity=0)
        with pytest.raises(ConfigurationError):
            L4Config(associativity="2-way")
        with pytest.raises(ConfigurationError):
            L4Config(technology="sram")
        with pytest.raises(ConfigurationError):
            L4Config(capacity=100)  # not a multiple of block

    def test_describe(self):
        assert "direct" in L4Config().describe()


class TestSimulation:
    def test_hit_rate_monotone_in_capacity(self):
        lines, segments = demand_stream()
        rates = []
        for mib in (1, 4, 16, 64):
            result = L4Cache(L4Config(capacity=mib * MiB)).simulate(lines, segments)
            rates.append(result.hit_rate)
        assert rates == sorted(rates)

    def test_heap_beats_shard(self):
        lines, segments = demand_stream()
        result = L4Cache(L4Config(capacity=16 * MiB)).simulate(lines, segments)
        assert result.segment_hit_rate(Segment.HEAP) > result.segment_hit_rate(
            Segment.SHARD
        )

    def test_fully_associative_at_least_as_good(self):
        lines, segments = demand_stream()
        direct = L4Cache(L4Config(capacity=4 * MiB)).simulate(lines, segments)
        full = L4Cache(L4Config(capacity=4 * MiB).fully_associative()).simulate(
            lines, segments
        )
        assert full.hit_rate >= direct.hit_rate - 0.02

    def test_direct_close_to_associative_when_large(self):
        """The paper: direct-mapped costs about one point at 1 GiB."""
        lines, segments = demand_stream()
        capacity = 64 * MiB  # far above the stream's working set
        direct = L4Cache(L4Config(capacity=capacity)).simulate(lines, segments)
        full = L4Cache(
            L4Config(capacity=capacity).fully_associative()
        ).simulate(lines, segments)
        assert full.hit_rate - direct.hit_rate < 0.05

    def test_mpki(self):
        lines, segments = demand_stream(n=1000)
        result = L4Cache(L4Config(capacity=MiB)).simulate(lines, segments)
        misses = result.accesses - result.hits
        assert result.mpki(10_000) == pytest.approx(misses / 10.0)

    def test_segment_mpki_sums(self):
        lines, segments = demand_stream(n=2000)
        result = L4Cache(L4Config(capacity=MiB)).simulate(lines, segments)
        total = sum(result.segment_mpki(s, 10_000) for s in Segment)
        assert total == pytest.approx(result.mpki(10_000))

    def test_supplied_curve_serves_every_capacity(self):
        lines, segments = demand_stream(n=5000)
        curve = MissRatioCurve(lines)
        for capacity in (MiB // 4, MiB, 4 * MiB):
            cache = L4Cache(L4Config(capacity=capacity, associativity="full"))
            assert cache.simulate(lines, segments, curve=curve) == cache.simulate(
                lines, segments
            )

    def test_curve_of_another_stream_rejected(self):
        lines, segments = demand_stream(n=2000)
        cache = L4Cache(L4Config(capacity=MiB, associativity="full"))
        with pytest.raises(ConfigurationError, match="curve"):
            cache.simulate(lines, segments, curve=MissRatioCurve(lines[:-1]))

    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            L4Cache(L4Config()).simulate(np.empty(0, np.int64), np.empty(0, np.uint8))

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            L4Cache(L4Config()).simulate(np.array([1, 2]), np.array([1], np.uint8))

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([0, -1, 2], np.int64),
            np.array([0, len(Segment), 1], np.int64),
            np.array([0, 255, 1], np.uint8),
            np.array([0.0, 1.0, 2.0]),
        ],
        ids=["negative", "past-last", "uint8-past-last", "float"],
    )
    @pytest.mark.parametrize("associativity", ["direct", "full"])
    def test_non_segment_codes_rejected(self, bad, associativity):
        config = L4Config(capacity=MiB, associativity=associativity)
        with pytest.raises(ConfigurationError, match="segments"):
            L4Cache(config).simulate(np.array([1, 2, 3], np.int64), bad)

    @given(
        codes=st.lists(st.integers(-8, 12), min_size=1, max_size=64),
    )
    def test_accepts_exactly_segment_codes(self, codes):
        """Every stream of valid codes simulates; any other value raises."""
        segments = np.array(codes, np.int64)
        lines = np.arange(len(codes), dtype=np.int64)
        cache = L4Cache(L4Config(capacity=MiB))
        if all(0 <= code < len(Segment) for code in codes):
            result = cache.simulate(lines, segments)
            assert sum(result.segment_accesses.values()) == len(codes)
        else:
            with pytest.raises(ConfigurationError):
                cache.simulate(lines, segments)


class TestPhysicalDesign:
    def test_edram_die_count(self):
        assert L4Cache(L4Config(capacity=128 * MiB)).edram_dies == 1
        assert L4Cache(L4Config(capacity=1024 * MiB)).edram_dies == 8

    def test_controller_overhead_small(self):
        assert L4Cache(L4Config()).controller_die_overhead <= 0.01
