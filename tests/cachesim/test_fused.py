"""Differential verification of the fused campaign engine.

The contract of :mod:`repro.cachesim.fused` extends the fastsim one from
single runs to whole sweeps: a fused multi-level sweep must equal
sequential per-level simulation with warm-state handoff, a one-pass
Mattson associativity ladder must equal per-size replay, a filtered
and a filtered miss-ratio curve must equal one built from scratch — all
bit for bit.

Run with ``HYPOTHESIS_PROFILE=ci`` for the heavy fixed-corpus version
(see ``tests/conftest.py``).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cachesim import fastsim
from repro.cachesim.cache import CacheGeometry
from repro.cachesim.composed import ComposedHierarchy, SegmentRates
from repro.cachesim.composition import CompositeCache, solve_windows
from repro.cachesim.fastsim import fast_lru_hits, fast_lru_hits_ladder
from repro.cachesim.fused import simulate_hierarchy_sweep
from repro.cachesim.hierarchy import (
    CacheLevelConfig,
    HierarchyConfig,
    _simulate_exact,
    simulate_hierarchy,
)
from repro.cachesim.mattson import COLD, hit_rate_for_ways
from repro.cachesim.misscurve import MissRatioCurve
from repro.errors import ConfigurationError, TraceError
from repro.hw import catalog
from repro.hw.adapters import hierarchy_config
from repro.memtrace.trace import AccessKind, Segment, Trace
from tests.cachesim import loop_oracles
from tests.cachesim.loop_oracles import set_stack_distances, stack_distances

#: The §III-A simulated PLT1-like hierarchy, from the hardware catalog.
PLT1_SIM = hierarchy_config(catalog.plt1_simulated())

line_streams = st.lists(
    st.integers(min_value=0, max_value=300), min_size=1, max_size=400
).map(lambda values: np.asarray(values, np.int64))

ways_ladders = st.lists(
    st.integers(min_value=1, max_value=24), min_size=1, max_size=6, unique=True
)


def _tiny_hierarchy(l3_assoc: int = 4, l3_sets: int = 8) -> HierarchyConfig:
    """A hierarchy small enough that every level actually misses."""
    return HierarchyConfig(
        l1i=CacheLevelConfig("L1I", CacheGeometry(4 * 2 * 64, 2)),
        l1d=CacheLevelConfig("L1D", CacheGeometry(4 * 2 * 64, 2)),
        l2=CacheLevelConfig("L2", CacheGeometry(8 * 4 * 64, 4)),
        l3=CacheLevelConfig(
            "L3",
            CacheGeometry(l3_sets * l3_assoc * 64, l3_assoc),
            shared=True,
        ),
    )


@st.composite
def traces(draw):
    """Small multi-thread traces with at least one instruction fetch."""
    n = draw(st.integers(min_value=1, max_value=300))
    addrs = draw(
        st.lists(
            st.integers(min_value=0, max_value=500),
            min_size=n,
            max_size=n,
        )
    )
    kinds = draw(
        st.lists(
            st.sampled_from(
                [AccessKind.INSTR, AccessKind.LOAD, AccessKind.STORE]
            ),
            min_size=n,
            max_size=n,
        )
    )
    kinds[0] = AccessKind.INSTR  # HierarchyResult needs instructions
    segments = draw(
        st.lists(st.sampled_from(list(Segment)), min_size=n, max_size=n)
    )
    threads = draw(
        st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n)
    )
    return Trace(
        addr=np.asarray(addrs, np.uint64) * np.uint64(64),
        kind=np.asarray([int(k) for k in kinds], np.uint8),
        segment=np.asarray([int(s) for s in segments], np.uint8),
        thread=np.asarray(threads, np.uint16),
    )


def _results_equal(a, b):
    assert sorted(a.levels) == sorted(b.levels)
    assert list(a.levels) == list(b.levels)  # render() depends on order
    for name in a.levels:
        assert a.levels[name].accesses.tobytes() == b.levels[name].accesses.tobytes()
        assert a.levels[name].misses.tobytes() == b.levels[name].misses.tobytes()
    assert a.instruction_count == b.instruction_count


class TestMattsonLadder:
    """One stack-distance pass == per-size replay (LRU inclusion)."""

    @given(line_streams, st.integers(1, 32), ways_ladders)
    def test_ladder_matches_per_ways_kernel(self, lines, num_sets, ladder):
        masks = fast_lru_hits_ladder(lines, num_sets, ladder)
        for ways, mask in zip(ladder, masks):
            assert np.array_equal(mask, fast_lru_hits(lines, num_sets, ways))

    @given(line_streams, st.integers(1, 32), ways_ladders)
    def test_ladder_matches_reference_cache(self, lines, num_sets, ladder):
        for ways, mask in zip(ladder, fast_lru_hits_ladder(lines, num_sets, ladder)):
            geometry = CacheGeometry(num_sets * ways * 64, ways)
            expected = loop_oracles.lru_hits(geometry, lines)
            assert np.array_equal(mask, expected)

    @given(line_streams, st.integers(1, 32))
    def test_set_stack_distances_single_set_degenerates(self, lines, num_sets):
        assert np.array_equal(
            set_stack_distances(lines, 1), stack_distances(lines)
        )
        distances = set_stack_distances(lines, num_sets)
        # A hit at W ways is exactly "per-set distance <= W".
        for ways in (1, 3, 7):
            expected = (distances != COLD) & (distances <= ways)
            assert np.array_equal(
                expected, fast_lru_hits(lines, num_sets, ways)
            )

    @given(line_streams, st.integers(1, 16), ways_ladders)
    def test_hit_rate_for_ways_engines_agree(self, lines, num_sets, ladder):
        """Ladder rates equal per-ways counts of the per-set Mattson loop."""
        distances = set_stack_distances(lines, num_sets)
        expected = np.array(
            [np.count_nonzero(distances <= w) / len(lines) for w in ladder]
        )
        got = hit_rate_for_ways(lines, num_sets, ladder)
        assert got.tobytes() == expected.tobytes()

    def test_ladder_rejects_bad_inputs(self):
        lines = np.arange(5, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            fast_lru_hits_ladder(lines, 0, [1])
        with pytest.raises(ConfigurationError):
            fast_lru_hits_ladder(lines, 4, [])
        with pytest.raises(ConfigurationError):
            fast_lru_hits_ladder(lines, 4, [0])


class TestFusedSweep:
    """Fused multi-level sweep == per-point runs with warm handoff."""

    @given(traces(), st.lists(st.integers(1, 4), min_size=1, max_size=4))
    def test_ways_sweep_matches_per_point_fast(self, trace, ways):
        base = _tiny_hierarchy()
        configs = [base.with_l3_ways(w) for w in ways]
        for fused_result, config in zip(
            simulate_hierarchy_sweep(trace, configs), configs
        ):
            _results_equal(fused_result, simulate_hierarchy(trace, config))

    @given(traces(), st.lists(st.integers(1, 5), min_size=1, max_size=3))
    def test_capacity_sweep_matches_per_point_exact(self, trace, set_bits):
        base = _tiny_hierarchy()
        configs = [
            base.with_l3_size((1 << bits) * 4 * 64) for bits in set_bits
        ]
        for fused_result, config in zip(
            simulate_hierarchy_sweep(trace, configs), configs
        ):
            _results_equal(fused_result, _simulate_exact(trace, config, {}))

    @given(traces())
    def test_mixed_upstream_groups_and_no_l3(self, trace):
        base = _tiny_hierarchy()
        bigger_l2 = dataclasses.replace(
            base,
            l2=CacheLevelConfig("L2", CacheGeometry(16 * 4 * 64, 4)),
        )
        no_l3 = dataclasses.replace(base, l3=None)
        configs = [base, bigger_l2, no_l3, base.with_l3_ways(1)]
        for fused_result, config in zip(
            simulate_hierarchy_sweep(trace, configs), configs
        ):
            _results_equal(fused_result, _simulate_exact(trace, config, {}))

    @given(traces())
    def test_auto_reference_fallback_on_inclusive(self, trace):
        """Inclusive points run the per-access loop, one fallback each."""
        base = _tiny_hierarchy()
        inclusive = dataclasses.replace(base, inclusive=True)
        fastsim.reset_counters()
        got = simulate_hierarchy_sweep(trace, [inclusive, base, inclusive])
        assert fastsim.counters_snapshot()["fallbacks"] == 2
        _results_equal(got[0], _simulate_exact(trace, inclusive, {}))
        _results_equal(got[1], _simulate_exact(trace, base, {}))
        _results_equal(got[2], got[0])

    def test_empty_inputs_rejected(self):
        trace = Trace(
            addr=np.zeros(1, np.uint64),
            kind=np.full(1, int(AccessKind.INSTR), np.uint8),
            segment=np.zeros(1, np.uint8),
            thread=np.zeros(1, np.uint16),
        )
        with pytest.raises(ConfigurationError):
            simulate_hierarchy_sweep(trace, [])


class TestFilteredCurve:
    """Curve rebuilt from a parent's sort == curve built from scratch."""

    @given(line_streams, st.data())
    def test_filtered_matches_fresh(self, lines, data):
        mask = np.asarray(
            data.draw(
                st.lists(
                    st.booleans(), min_size=len(lines), max_size=len(lines)
                )
            ),
            bool,
        )
        if not mask.any():
            mask[0] = True
        filtered = MissRatioCurve(lines).filtered(mask)
        fresh = MissRatioCurve(lines[mask])
        capacities = [1, 2, 5, 17, 120, 4000]
        assert [filtered.hit_rate(c) for c in capacities] == [
            fresh.hit_rate(c) for c in capacities
        ]

    def test_filtered_validates(self):
        curve = MissRatioCurve(np.arange(10, dtype=np.int64))
        with pytest.raises(TraceError):
            curve.filtered(np.ones(3, bool))
        with pytest.raises(TraceError):
            curve.filtered(np.zeros(10, bool))

    def test_filtered_rejects_non_bool_mask(self):
        """Regression: an int mask was silently cast to bool."""
        curve = MissRatioCurve(np.arange(10, dtype=np.int64))
        with pytest.raises(TraceError, match="bool"):
            curve.filtered(np.array([1, 0] * 5))


class TestComposedFusion:
    """Composed-hierarchy fusion: memoized solves and derived curves."""

    @pytest.fixture(scope="class")
    def streams(self):
        rng = np.random.default_rng(9)
        return {
            Segment.CODE: rng.integers(0, 60, 4000).astype(np.int64),
            Segment.HEAP: rng.integers(100, 400, 6000).astype(np.int64),
            Segment.SHARD: rng.integers(1000, 1800, 5000).astype(np.int64),
        }

    def _run(self, streams, **kwargs):
        config = PLT1_SIM.scaled(1 / 256)
        return ComposedHierarchy(
            streams, SegmentRates(), config, threads=2, **kwargs
        )

    def test_fused_matches_unfused_and_reference(self, streams):
        """Filtered curves and batched solves == fresh curves and bisection.

        Rebuilds the L2 and L3 levels of the composed run from fresh
        ``MissRatioCurve(miss_lines)`` curves and the scalar bisection,
        and checks every hit rate matches bit for bit.
        """
        run = self._run(streams)

        def rebuilt(cache):
            return [
                dataclasses.replace(c, curve=MissRatioCurve(c.lines))
                for c in cache.components.values()
            ]

        for cache in (run.l2, run.l3):
            fresh = rebuilt(cache)
            window = loop_oracles.solve_window(fresh, cache.capacity_lines)
            assert cache.global_window_ki == window
            oracle = CompositeCache(fresh, cache.capacity_lines, window=window)
            for name in cache.components:
                assert cache.hit_rate(name) == oracle.hit_rate(name)

        capacities = [4096, 8192, 65536, 262144]
        fresh_l3 = rebuilt(run.l3)
        for capacity in capacities:
            lines = capacity // run.block_size
            window = loop_oracles.solve_window(fresh_l3, lines)
            assert run.l3_at(capacity).global_window_ki == window

    def test_solve_windows_matches_bisection(self, streams):
        run = self._run(streams)
        inputs = list(run.l3.components.values())
        capacities = [1, 7, 64, 1000, 4096, 10**9]
        batched = solve_windows(inputs, capacities)
        for capacity, window in zip(capacities, batched.tolist()):
            assert window == loop_oracles.solve_window(inputs, capacity)

    def test_solve_l3_sweep_matches_per_point(self, streams):
        capacities = [4096, 16384, 131072]
        batched = self._run(streams)
        pointwise = self._run(streams)
        swept = batched.solve_l3_sweep(capacities)
        singles = [pointwise.l3_at(c) for c in capacities]
        for a, b in zip(swept, singles):
            assert a.global_window_ki == b.global_window_ki
            assert a.total_mpki() == b.total_mpki()

    def test_l3_at_memoizes_when_fused(self, streams):
        run = self._run(streams)
        assert run.l3_at(8192) is run.l3_at(8192)
        assert run.solve_l3_sweep([8192])[0] is run.l3_at(8192)
