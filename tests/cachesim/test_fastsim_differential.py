"""Differential verification of the vectorized kernels against the loops.

The equivalence contract of :mod:`repro.cachesim.fastsim`: for every
geometry (including CAT way-masking) and every trace, the vectorized
kernels produce exactly the hits and misses of the per-access
reference simulator (``SetAssociativeCache.access`` and
the Mattson loops).  Hypothesis drives random geometries and streams;
the adversarial classes the cascade kernel could plausibly get wrong —
single-set storms, strided streams, sawtooth working sets, the wide-ways
stack-distance path — are pinned explicitly.

Run with ``HYPOTHESIS_PROFILE=ci`` for the heavy fixed-corpus version
(see ``tests/conftest.py``).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cachesim import fastsim
from repro.cachesim.cache import CacheGeometry
from repro.cachesim.directmapped import simulate_direct_mapped
from repro.cachesim.fastsim import (
    CASCADE_MAX_WAYS,
    fast_lru_hits,
    fast_stack_distances,
)
from repro.cachesim.hierarchy import (
    HierarchyConfig,
    _simulate_exact,
    simulate_hierarchy,
)
from repro.cachesim.mattson import COLD, hit_rate_for_capacities
from repro.cachesim.missclass import MissBreakdown, classify_misses
from repro.errors import TraceError
from repro.hw import catalog
from repro.hw.adapters import hierarchy_config
from repro.memtrace.synthetic import generate_trace
from repro.workloads.profiles import get_profile
from tests.cachesim.loop_oracles import lru_hits, stack_distances

#: The §III-A simulated PLT1-like hierarchy, from the hardware catalog.
PLT1_SIM = hierarchy_config(catalog.plt1_simulated())


@st.composite
def geometries(draw):
    """Random cache geometries, CAT way-masking included."""
    assoc = draw(st.integers(1, 16))
    sets = draw(st.integers(1, 64))
    block = draw(st.sampled_from([16, 32, 64, 128, 256]))
    ways_enabled = draw(st.one_of(st.none(), st.integers(1, assoc)))
    return CacheGeometry(
        size=sets * assoc * block,
        assoc=assoc,
        block_size=block,
        ways_enabled=ways_enabled,
    )


# Negative ids included: no kernel may reserve a line id as a sentinel.
line_streams = st.lists(
    st.integers(min_value=-300, max_value=300), min_size=1, max_size=400
).map(lambda values: np.asarray(values, np.int64))


def _direct_mapped_loop(lines, num_sets):
    """Direct-mapped hit mask, one access at a time."""
    tags = {}
    hits = []
    for line in lines.tolist():
        hits.append(tags.get(line % num_sets) == line)
        tags[line % num_sets] = line
    return np.array(hits, bool)


def _classify_loop(lines, geometry):
    """The 3C breakdown from the access loop and the Mattson loop."""
    hits = lru_hits(geometry, lines)
    distances = stack_distances(lines)
    miss = ~hits
    cold = miss & (distances == COLD)
    capacity = miss & (distances != COLD) & (distances > geometry.capacity_lines)
    return MissBreakdown(
        accesses=len(lines),
        hits=int(np.count_nonzero(hits)),
        cold=int(np.count_nonzero(cold)),
        capacity=int(np.count_nonzero(capacity)),
        conflict=int(np.count_nonzero(miss & ~cold & ~capacity)),
    )


class TestRandomizedDifferential:
    @given(geometries(), line_streams)
    def test_hit_mask_matches_reference(self, geometry, lines):
        expected = lru_hits(geometry, lines)
        got = fast_lru_hits(
            lines, geometry.num_sets, geometry.effective_ways
        )
        assert np.array_equal(expected, got)

    @given(line_streams)
    def test_stack_distances_match_reference(self, lines):
        assert np.array_equal(
            stack_distances(lines), fast_stack_distances(lines)
        )

    @given(line_streams, st.integers(1, 128))
    def test_direct_mapped_matches_reference(self, lines, num_sets):
        assert np.array_equal(
            _direct_mapped_loop(lines, num_sets),
            simulate_direct_mapped(lines, num_sets),
        )

    @given(geometries(), line_streams)
    def test_classify_misses_engines_agree(self, geometry, lines):
        """The vectorized breakdown equals the loops' one."""
        assert classify_misses(lines, geometry) == _classify_loop(lines, geometry)

    @given(line_streams)
    def test_mattson_capacity_rates_engines_agree(self, lines):
        """Vectorized capacity rates equal per-capacity counts of the loop."""
        capacities = [1, 2, 3, 8, 31, 400]
        distances = stack_distances(lines)
        expected = np.array(
            [np.count_nonzero(distances <= c) / len(lines) for c in capacities]
        )
        got = hit_rate_for_capacities(lines, capacities)
        assert got.tobytes() == expected.tobytes()


class TestHierarchyReplay:
    """Level-by-level vectorized replay == the per-access hierarchy loop."""

    def test_fig7_shape_matches_loop(self):
        """Base plus fully-associative hierarchies on a 2-thread trace."""
        scale = 1 / 64
        trace = generate_trace(
            get_profile("s1-leaf").memory.scaled(scale), 8_000, seed=7, threads=2
        )
        base = PLT1_SIM.scaled(scale)

        def fully(level):
            geo = level.geometry
            return replace(
                level,
                geometry=CacheGeometry.fully_associative(geo.size, geo.block_size),
            )

        full = HierarchyConfig(
            l1i=fully(base.l1i),
            l1d=fully(base.l1d),
            l2=fully(base.l2),
            l3=fully(base.l3),
        )
        for config in (base, full):
            got = simulate_hierarchy(trace, config)
            expected = _simulate_exact(trace, config, {})
            assert list(got.levels) == list(expected.levels)
            for name, stats in expected.levels.items():
                assert got.levels[name].accesses.tobytes() == stats.accesses.tobytes()
                assert got.levels[name].misses.tobytes() == stats.misses.tobytes()


# ----------------------------------------------------------------------
# Adversarial trace classes
# ----------------------------------------------------------------------

_ADVERSARIAL_GEOMETRIES = [
    CacheGeometry(size=8 * 64, assoc=1),  # direct-mapped
    CacheGeometry(size=16 * 4 * 64, assoc=4),
    CacheGeometry(size=16 * 8 * 64, assoc=8, ways_enabled=3),  # CAT mask
    CacheGeometry(size=1 * 16 * 64, assoc=16),  # single set
    CacheGeometry.fully_associative(128 * 64),  # ways > CASCADE_MAX_WAYS
]


def _adversarial_traces(geometry):
    num_sets = geometry.num_sets
    ways = geometry.effective_ways
    n = 600
    idx = np.arange(n, dtype=np.int64)
    return {
        # Every access lands in one set while the others starve.
        "single-set storm": (idx % (ways + 1)) * num_sets,
        # Constant stride; hits exactly when the stride ring fits.
        "strided": (idx * 3) % (num_sets * (ways + 2)),
        # Sawtooth working set alternately inside and beyond capacity.
        "sawtooth": np.concatenate(
            [np.arange(k, dtype=np.int64) for k in (ways, 2 * ways + 1) * 8]
        ),
        # Ping-pong between two lines of the same set.
        "ping-pong": (idx % 2) * num_sets,
    }


class TestAdversarialTraces:
    @pytest.mark.parametrize(
        "geometry", _ADVERSARIAL_GEOMETRIES, ids=lambda g: str(g)
    )
    def test_adversarial_hit_masks_match(self, geometry):
        for name, lines in _adversarial_traces(geometry).items():
            expected = lru_hits(geometry, lines)
            got = fast_lru_hits(
                lines, geometry.num_sets, geometry.effective_ways
            )
            assert np.array_equal(expected, got), name

    def test_wide_ways_takes_stack_distance_path(self):
        """Geometries past CASCADE_MAX_WAYS stay exact on the other path."""
        geometry = CacheGeometry.fully_associative(3 * CASCADE_MAX_WAYS * 64)
        assert geometry.effective_ways > CASCADE_MAX_WAYS
        rng = np.random.default_rng(11)
        lines = rng.integers(0, 5 * CASCADE_MAX_WAYS, 3000).astype(np.int64)
        assert np.array_equal(
            lru_hits(geometry, lines),
            fast_lru_hits(lines, geometry.num_sets, geometry.effective_ways),
        )

    def test_explicit_set_indices_variant(self):
        """The explicit-set-index kernel behind ``fast_lru_hits``."""
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 400, 2000).astype(np.int64)
        num_sets, ways = 13, 3
        sets = (lines % num_sets).astype(np.int64)
        geometry = CacheGeometry(size=num_sets * ways * 64, assoc=ways)
        assert np.array_equal(
            lru_hits(geometry, lines),
            fastsim._hits_for_set_stream(lines, sets, ways),
        )


# ----------------------------------------------------------------------
# The merge-count kernel under every distance
# ----------------------------------------------------------------------


def _brute_preceding_leq(values):
    """#{j < i : values[j] <= values[i]} for every i, as one (n, n) mask."""
    n = len(values)
    earlier = np.tri(n, k=-1, dtype=bool)
    return np.count_nonzero(earlier & (values[None, :] <= values[:, None]), axis=1)


@st.composite
def prev_like_values(draw):
    """Previous-occurrence-shaped arrays: heavy ties on the -1 sentinel."""
    n = draw(st.sampled_from([0, 1, 2, 3, 5, 6, 7, 9, 31, 33, 100, 257]))
    return draw(
        st.lists(
            st.one_of(st.just(-1), st.integers(-1, max(n, 1))),
            min_size=n,
            max_size=n,
        )
    )


def _brute_removal_distances(lines, removals):
    """Stack distances where ``line`` leaves the stack after ``after``."""
    gone_after = {line: after for after, line in removals}
    out = []
    for i, line in enumerate(lines):
        p = max((j for j in range(i) if lines[j] == line), default=None)
        if p is None:
            out.append(fastsim.COLD)
            continue
        window = {
            lines[j]
            for j in range(p + 1, i)
            if gone_after.get(lines[j], i) >= i
        }
        out.append(len(window) + 1)
    return out


class TestMergeCount:
    @given(prev_like_values())
    def test_matches_brute_force(self, values):
        array = np.asarray(values, np.int64)
        got = fastsim._count_preceding_leq(array)
        assert np.array_equal(got, _brute_preceding_leq(array))

    @given(st.lists(st.integers(-(2**62), 2**62), max_size=70))
    def test_wide_values_are_ranked_first(self, values):
        array = np.asarray(values, np.int64)
        got = fastsim._count_preceding_leq(array)
        assert np.array_equal(got, _brute_preceding_leq(array))

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=80), st.data())
    def test_removals_drop_lines_from_later_windows(self, values, data):
        lines = np.asarray(values, np.int64)
        last = {line: i for i, line in enumerate(values)}
        removed = data.draw(
            st.lists(st.sampled_from(sorted(last)), unique=True, max_size=4)
        )
        # Each removed line leaves at or after its last access.
        pairs = sorted(
            (data.draw(st.integers(last[line], len(values) - 1)), line)
            for line in removed
        )
        after = np.asarray([a for a, __ in pairs], np.int64)
        lasts = np.asarray([last[line] for __, line in pairs], np.int64)
        got = fastsim._stack_distances(lines, (after, lasts))
        assert got.tolist() == _brute_removal_distances(values, pairs)
        no_op = fastsim._stack_distances(
            lines, (np.empty(0, np.int64), np.empty(0, np.int64))
        )
        assert np.array_equal(no_op, fast_stack_distances(lines))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_live_rows_at_power_of_two_boundaries(self, k):
        """n = 2**k - 1, 2**k, 2**k + 1: the last live row is full, exact
        or a single entry, for narrow (prev-shaped) and wide values."""
        rng = np.random.default_rng(k)
        for n in ((1 << k) - 1, 1 << k, (1 << k) + 1):
            for values in (
                rng.integers(-1, n, n),
                rng.integers(-(2**62), 2**62, n),
            ):
                got = fastsim._count_preceding_leq(values)
                assert got.dtype == np.int64
                assert got.shape == (n,)
                assert np.array_equal(got, _brute_preceding_leq(values))

    @pytest.mark.parametrize(
        "n, removed", [(60, 5), (62, 3), (126, 3), (255, 2), (250, 7)]
    )
    def test_removal_markers_cross_a_power_of_two(self, n, removed):
        """``n`` accesses pad to one power of two, ``n + removed`` markers
        to the next: the markers land in rows beyond the accesses' own."""
        assert (n - 1).bit_length() < (n + removed - 1).bit_length()
        rng = np.random.default_rng(n)
        values = rng.integers(0, 12, n).tolist()
        last = {line: i for i, line in enumerate(values)}
        lines_out = rng.choice(sorted(last), removed, replace=False).tolist()
        pairs = sorted(
            (int(rng.integers(last[line], n)), line) for line in lines_out
        )
        after = np.asarray([a for a, __ in pairs], np.int64)
        lasts = np.asarray([last[line] for __, line in pairs], np.int64)
        got = fastsim._stack_distances(np.asarray(values, np.int64), (after, lasts))
        assert got.dtype == np.int64
        assert got.tolist() == _brute_removal_distances(values, pairs)

    @given(st.integers(0, 1 << 31))
    def test_key_width_bound_is_a_function_of_n(self, n):
        bits = fastsim._position_bits(n)
        assert bits == max(1, (n - 1).bit_length())
        assert (n + 2) << bits <= 1 << 63  # largest key + 1 fits in int64

    def test_key_width_guard_raises_typed_error(self):
        assert fastsim._position_bits(1 << 31) == 31
        with pytest.raises(TraceError):
            fastsim._position_bits((1 << 31) + 1)

        class Huge:
            def __len__(self):
                return (1 << 31) + 1

        with pytest.raises(TraceError):
            fastsim._count_preceding_leq(Huge())


# ----------------------------------------------------------------------
# Fallbacks and counters
# ----------------------------------------------------------------------


class TestEngineSelection:
    """Requests the kernels cannot serve exactly run the loop and count."""

    def test_kernels_count_accesses(self):
        fastsim.reset_counters()
        lines = np.arange(100, dtype=np.int64)
        fast_lru_hits(lines, 4, 2)
        fast_stack_distances(lines)
        snapshot = fastsim.counters_snapshot()
        assert snapshot == {"accesses": 200, "kernel_calls": 2, "fallbacks": 0}

    def test_record_metrics_publishes_counters(self):
        from repro.obs.metrics import MetricsRegistry

        fastsim.reset_counters()
        fast_lru_hits(np.arange(50, dtype=np.int64), 4, 2)
        registry = MetricsRegistry()
        fastsim.record_metrics(registry)
        payload = registry.snapshot().to_dict()
        assert payload["repro.fastsim.accesses"]["value"] == 50
        assert payload["repro.fastsim.kernel_calls"]["value"] == 1
        assert sorted(k for k in payload if k.startswith("repro.fastsim.")) == [
            "repro.fastsim.accesses",
            "repro.fastsim.fallbacks",
            "repro.fastsim.kernel_calls",
        ]

    def test_inclusive_and_prefetched_hierarchies_count(self):
        from repro.cachesim.prefetch import StreamPrefetcher
        from repro.memtrace.trace import AccessKind, Trace

        trace = Trace(
            addr=np.arange(64, dtype=np.uint64) * np.uint64(64),
            kind=np.full(64, int(AccessKind.INSTR), np.uint8),
            segment=np.zeros(64, np.uint8),
            thread=np.zeros(64, np.uint16),
        )
        config = PLT1_SIM.scaled(1 / 256)
        fastsim.reset_counters()
        simulate_hierarchy(trace, config)
        assert fastsim.counters_snapshot()["fallbacks"] == 0
        simulate_hierarchy(trace, replace(config, inclusive=True))
        simulate_hierarchy(trace, config, prefetchers={"L2": StreamPrefetcher()})
        assert fastsim.counters_snapshot()["fallbacks"] == 2
