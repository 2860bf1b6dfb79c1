"""Differential tests of the L4 demand stream and the L4's per-segment counts.

:meth:`ComposedHierarchy.l4_demand` builds each (L3 capacity, seed)
stream once, from the L3 miss lines alone, and memoizes it read-only on
the run.  The reference here is the construction it replaced: one
:class:`StreamComponent` per L3 miss stream (each with its derived
miss-ratio curve) interleaved by the component-based rate merge, kept
below.  :meth:`L4Cache.simulate` counts per-segment accesses and hits
with one bincount over (segment, hit) pairs; its reference is one mask
pass per segment.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._units import MiB
from repro.cachesim import composed as composed_module
from repro.cachesim.composed import ComposedHierarchy, SegmentRates
from repro.cachesim.composition import CompositeCache, StreamComponent
from repro.cachesim.directmapped import simulate_direct_mapped
from repro.cachesim.misscurve import MissRatioCurve
from repro.core.l4cache import L4Cache, L4Config
from repro.core.optimizer import SensitivityScenario
from repro.errors import ConfigurationError
from repro.experiments import fig14
from repro.experiments.common import RunPreset
from repro.hw import catalog
from repro.hw.adapters import hierarchy_config
from repro.memtrace.synthetic import SyntheticWorkload, WorkloadConfig
from repro.memtrace.trace import Segment

PLT1_SIM = hierarchy_config(catalog.plt1_simulated())


# ---------------------------------------------------------------------------
# Reference: the component-based construction
# ---------------------------------------------------------------------------


def merge_components_by_rate(
    components: list[StreamComponent],
    rng: np.random.Generator,
    minor_rate_fraction: float = 0.25,
) -> tuple[np.ndarray, np.ndarray]:
    """The rate merge over :class:`StreamComponent` objects."""
    total_rate = sum(c.rate for c in components)
    by_span = sorted(components, key=lambda c: len(c.lines) / c.rate)
    span_ki = len(by_span[0].lines) / by_span[0].rate
    minor_rate = 0.0
    for position, component in enumerate(by_span[:-1]):
        if (minor_rate + component.rate) / total_rate > minor_rate_fraction:
            break
        minor_rate += component.rate
        successor = by_span[position + 1]
        span_ki = len(successor.lines) / successor.rate

    counts = [
        max(1, min(len(c.lines), int(c.rate * span_ki))) for c in components
    ]
    truncated = [c.lines[:count] for c, count in zip(components, counts)]
    tags = np.concatenate(
        [np.full(count, i, np.int32) for i, count in enumerate(counts)]
    )
    rng.shuffle(tags)
    lines = np.empty(sum(counts), np.int64)
    for i, lines_i in enumerate(truncated):
        lines[tags == i] = lines_i
    return lines, tags


def reference_miss_component(
    cache: CompositeCache, name: str
) -> StreamComponent | None:
    """One stream's misses as a component with its derived curve."""
    component = cache.components[name]
    miss_mask = ~cache.hit_mask(name)
    misses = int(np.count_nonzero(miss_mask))
    if misses < 2:
        return None
    accesses = len(component.lines)
    miss_lines = (
        component.lines if misses == accesses else component.lines[miss_mask]
    )
    return StreamComponent(
        name=name,
        lines=miss_lines,
        rate=component.rate * (misses / accesses),
        multiplicity=component.multiplicity,
        curve=component.curve.filtered(miss_mask),
    )


def reference_demand(
    cache: CompositeCache, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """L4 demand of an L3 cache, built through miss components."""
    miss_components = [
        reference_miss_component(cache, name) for name in cache.components
    ]
    miss_components = [c for c in miss_components if c is not None]
    if not miss_components:
        raise ConfigurationError("the L3 absorbed everything at this capacity")
    lines, tags = merge_components_by_rate(
        miss_components, np.random.default_rng(seed)
    )
    segment_of_tag = np.array(
        [int(Segment[c.name.upper()]) for c in miss_components], np.uint8
    )
    return lines, segment_of_tag[tags]


def reference_segment_counts(
    hits: np.ndarray, segments: np.ndarray
) -> tuple[dict[Segment, int], dict[Segment, int]]:
    """Per-segment (accesses, hits) dicts, one mask pass per segment."""
    accesses: dict[Segment, int] = {}
    seg_hits: dict[Segment, int] = {}
    for seg in Segment:
        mask = segments == seg
        count = int(np.count_nonzero(mask))
        if count:
            accesses[seg] = count
            seg_hits[seg] = int(np.count_nonzero(hits[mask]))
    return accesses, seg_hits


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def streams():
    workload = SyntheticWorkload(WorkloadConfig().scaled(1 / 64), seed=3)
    return workload.segment_streams(
        {
            Segment.CODE: 60_000,
            Segment.HEAP: 200_000,
            Segment.SHARD: 120_000,
            Segment.STACK: 20_000,
        }
    )


def fresh_run(streams) -> ComposedHierarchy:
    return ComposedHierarchy(
        streams, SegmentRates(), PLT1_SIM.scaled(1 / 64), threads=8
    )


@pytest.fixture(scope="module")
def run(streams):
    return fresh_run(streams)


def with_l3(run: ComposedHierarchy, cache: CompositeCache, monkeypatch):
    """Make ``run`` resolve every L3 capacity to ``cache``."""
    monkeypatch.setattr(run, "l3_at", lambda capacity_bytes: cache)
    return run


def assert_same_demand(actual, expected):
    lines, segments = actual
    ref_lines, ref_segments = expected
    assert lines.dtype == ref_lines.dtype
    assert segments.dtype == ref_segments.dtype
    np.testing.assert_array_equal(lines, ref_lines)
    np.testing.assert_array_equal(segments, ref_segments)


# ---------------------------------------------------------------------------
# l4_demand against the reference
# ---------------------------------------------------------------------------


class TestMatchesComponentConstruction:
    @pytest.mark.parametrize("l3_mib", [0.25, 1, 4, 16, 1 << 14])
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_composed_run(self, run, l3_mib, seed):
        capacity = int(l3_mib * MiB / 64)
        expected = reference_demand(run.l3_at(capacity), seed)
        assert_same_demand(run.l4_demand(capacity, seed=seed), expected)

    def test_miss_component_agrees(self, run):
        cache = run.l3_at(MiB // 64)
        for name in cache.components:
            expected = reference_miss_component(cache, name)
            actual = cache.miss_component(name)
            if expected is None:
                assert actual is None
                continue
            np.testing.assert_array_equal(actual.lines, expected.lines)
            assert actual.rate == expected.rate
            assert actual.multiplicity == expected.multiplicity
            assert cache.miss_stream(name)[1] == expected.rate

    def test_all_miss_component_shares_lines(self, streams, monkeypatch):
        heap = StreamComponent("heap", np.arange(5_000, dtype=np.int64), rate=4.0)
        shard = StreamComponent(
            "shard", np.random.default_rng(1).integers(0, 300, 8_000), rate=2.0
        )
        cache = CompositeCache([heap, shard], 64)
        assert cache.miss_stream("heap")[0] is heap.lines
        run = with_l3(fresh_run(streams), cache, monkeypatch)
        assert_same_demand(run.l4_demand(64 * 64, seed=5), reference_demand(cache, 5))

    def test_component_with_one_miss_is_dropped(self, streams, monkeypatch):
        code = StreamComponent("code", np.full(500, 9, np.int64), rate=1.0)
        heap = StreamComponent(
            "heap", np.random.default_rng(2).integers(0, 4_000, 6_000), rate=3.0
        )
        cache = CompositeCache([code, heap], 1_000)
        assert cache.miss_stream("code") is None
        run = with_l3(fresh_run(streams), cache, monkeypatch)
        lines, segments = run.l4_demand(1_000 * 64, seed=2)
        assert_same_demand((lines, segments), reference_demand(cache, 2))
        assert set(np.unique(segments).tolist()) == {int(Segment.HEAP)}

    def test_l3_absorbed_everything(self, streams, monkeypatch):
        cache = CompositeCache(
            [
                StreamComponent("heap", np.full(100, 1, np.int64), rate=1.0),
                StreamComponent("shard", np.full(100, 2, np.int64), rate=1.0),
            ],
            1_000,
        )
        with pytest.raises(ConfigurationError, match="absorbed"):
            reference_demand(cache, 0)
        run = with_l3(fresh_run(streams), cache, monkeypatch)
        with pytest.raises(ConfigurationError, match="absorbed"):
            run.l4_demand(1_000 * 64)


# ---------------------------------------------------------------------------
# Memoization
# ---------------------------------------------------------------------------


def count_builds(monkeypatch) -> list[int]:
    """Count demand builds (one rate merge each) from now on."""
    calls: list[int] = []
    merge = composed_module.merge_streams_by_rate

    def counting(*args, **kwargs):
        calls.append(1)
        return merge(*args, **kwargs)

    monkeypatch.setattr(composed_module, "merge_streams_by_rate", counting)
    return calls


class TestMemo:
    def test_repeat_returns_same_arrays(self, streams, monkeypatch):
        run = fresh_run(streams)
        builds = count_builds(monkeypatch)
        capacity = 4 * MiB // 64
        first = run.l4_demand(capacity, seed=7)
        second = run.l4_demand(capacity, seed=7)
        assert second[0] is first[0] and second[1] is first[1]
        # Same capacity in lines, different byte count: still one build.
        third = run.l4_demand(capacity + 63, seed=7)
        assert third[0] is first[0]
        assert len(builds) == 1
        other_seed = run.l4_demand(capacity, seed=8)
        assert other_seed[0] is not first[0]
        assert len(builds) == 2

    def test_arrays_are_read_only(self, run):
        lines, segments = run.l4_demand(4 * MiB // 64, seed=7)
        with pytest.raises(ValueError):
            lines[0] = 0
        with pytest.raises(ValueError):
            segments[0] = 0

    def test_fig14_grid_builds_one_demand(self, monkeypatch):
        evaluator = fig14.evaluator(RunPreset.quick())
        builds = count_builds(monkeypatch)
        evaluations = [
            evaluator.evaluate(scenario, mib * MiB)
            for scenario in SensitivityScenario.all_scenarios()
            for mib in fig14.L4_SIZES_MIB
        ]
        assert len(evaluations) == 20
        assert len(builds) == 1


# ---------------------------------------------------------------------------
# L4Cache.simulate per-segment counts against the mask loop
# ---------------------------------------------------------------------------


def simulate_both(lines, segments, associativity, capacity_lines):
    config = L4Config(capacity=capacity_lines * 64, associativity=associativity)
    result = L4Cache(config).simulate(lines, segments)
    if associativity == "direct":
        hits = simulate_direct_mapped(lines, capacity_lines)
    else:
        hits = MissRatioCurve(lines).hit_mask(capacity_lines)
    return result, hits


class TestSegmentCounts:
    @pytest.mark.parametrize("associativity", ["direct", "full"])
    def test_absent_and_zero_hit_segments(self, associativity):
        rng = np.random.default_rng(4)
        heap = rng.integers(0, 64, 3_000)  # reused: hits
        shard = np.arange(1 << 20, (1 << 20) + 1_000)  # cold scan: no hits
        lines = np.concatenate([heap, shard]).astype(np.int64)
        segments = np.concatenate(
            [
                np.full(len(heap), Segment.HEAP, np.uint8),
                np.full(len(shard), Segment.SHARD, np.uint8),
            ]
        )
        order = rng.permutation(len(lines))
        lines, segments = lines[order], segments[order]
        result, hits = simulate_both(lines, segments, associativity, 256)
        accesses, seg_hits = reference_segment_counts(hits, segments)
        assert result.segment_accesses == accesses
        assert result.segment_hits == seg_hits
        assert list(result.segment_accesses) == [Segment.HEAP, Segment.SHARD]
        assert result.segment_hits[Segment.SHARD] == 0
        assert Segment.CODE not in result.segment_hits
        assert Segment.STACK not in result.segment_accesses
        assert result.segment_hit_rate(Segment.CODE) == 0.0

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 40), st.sampled_from(list(Segment))),
            min_size=1,
            max_size=300,
        ),
        associativity=st.sampled_from(["direct", "full"]),
        capacity_lines=st.sampled_from([1, 4, 16]),
    )
    def test_matches_mask_loop(self, data, associativity, capacity_lines):
        lines = np.array([line for line, __ in data], np.int64)
        segments = np.array([int(seg) for __, seg in data], np.uint8)
        result, hits = simulate_both(lines, segments, associativity, capacity_lines)
        accesses, seg_hits = reference_segment_counts(hits, segments)
        assert result.segment_accesses == accesses
        assert result.segment_hits == seg_hits
        assert list(result.segment_accesses) == list(accesses)
        assert result.hits == int(np.count_nonzero(hits))
