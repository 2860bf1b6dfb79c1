"""Block-computed keyed seed words against ``numpy.random.SeedSequence``.

``FaultInjector`` seeds the keyed stream of ``(leaf, query, attempt)``
as ``SeedSequence(entropy=seed, spawn_key=(leaf, query, attempt))`` would,
but hashes a block of consecutive query keys at once
(``KeyedSeedWords``).  The words must equal ``SeedSequence``'s for every
seed size, across block edges, and keys from ``2**32`` on must fall back
to ``SeedSequence`` itself; ``plan_rpc`` must deal exactly the draws and
counts of the per-RPC ``SeedSequence`` injector it replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.search.faults import (
    FaultInjector,
    FaultSpec,
    KeyedSeedWords,
    RpcDraw,
    _SeedWords,
)

_BLOCK = 256
_ONE_WORD = 2**32

seeds = st.one_of(
    st.just(0),
    st.integers(1, 1_000),
    st.integers(_ONE_WORD, 2**64),
    st.integers(2**128, 2**160),
)
leaves = st.one_of(st.integers(0, 64), st.integers(_ONE_WORD, 2**40))
attempts = st.one_of(
    st.integers(1, 4), st.integers(1_000, 1_003), st.just(_ONE_WORD + 1)
)
# Key runs that start inside a block, straddle block edges, end at the
# one-word limit, or lie wholly past it.
key_bases = st.one_of(
    st.integers(0, 3 * _BLOCK),
    st.integers(_BLOCK - 8, _BLOCK + 8),
    st.integers(_ONE_WORD - 2 * _BLOCK, _ONE_WORD - 1),
    st.integers(_ONE_WORD, 2**40),
)


def _seed_sequence_words(seed, leaf, key, attempt):
    return np.random.SeedSequence(
        entropy=seed, spawn_key=(leaf, key, attempt)
    ).generate_state(4, np.uint64)


class SeedSequenceInjector(FaultInjector):
    """The injector as it was: one ``SeedSequence`` per keyed RPC."""

    def rng_for(self, leaf_id, query_key, attempt=1):
        if query_key < 0 or attempt < 1:
            raise ConfigurationError("bad key")
        sequence = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(int(leaf_id), int(query_key), int(attempt))
        )
        return np.random.default_rng(sequence)

    def plan_rpc(self, leaf_id, query_key=None, attempt=1):
        self._calls.inc()
        rng = (
            self._rng
            if query_key is None
            else self.rng_for(leaf_id, query_key, attempt)
        )
        u_hard, u_transient, u_spike = rng.uniform(size=3)
        latency = self.model.sample_leaf_ms(rng, self.spec.utilization)

        if self.is_dead(leaf_id):
            return RpcDraw(kind="dead", latency_ms=self.spec.hard_fail_detect_ms)
        if u_hard < self.spec.hard_failure_rate:
            self._hard_failures.inc()
            self.died_at_ms[leaf_id] = self.clock.now_ms
            return RpcDraw(kind="hard", latency_ms=self.spec.hard_fail_detect_ms)
        if u_transient < self.spec.transient_error_rate:
            self._transient_errors.inc()
            return RpcDraw(kind="transient", latency_ms=latency)
        spiked = u_spike < self.spec.latency_spike_rate
        if spiked:
            self._spikes.inc()
            latency *= self.spec.spike_multiplier
        return RpcDraw(kind="ok", latency_ms=latency, spiked=spiked)


class TestBlockWords:
    @given(
        seed=seeds,
        leaf=leaves,
        attempt=attempts,
        first=st.one_of(
            st.integers(0, 4 * _BLOCK),
            st.integers(_ONE_WORD - 3 * _BLOCK, _ONE_WORD - 1),
        ),
        count=st.integers(1, 2 * _BLOCK),
        picks=st.lists(st.integers(0, 2 * _BLOCK - 1), max_size=6),
    )
    def test_words_equal_seed_sequence(self, seed, leaf, attempt, first, count, picks):
        count = min(count, _ONE_WORD - first)
        block = KeyedSeedWords(seed, leaf, attempt).block(first, count)
        assert block.shape == (count, 4) and block.dtype == np.uint64
        for row in {0, count - 1, *(p % count for p in picks)}:
            np.testing.assert_array_equal(
                block[row], _seed_sequence_words(seed, leaf, first + row, attempt)
            )

    @given(
        seed=seeds,
        leaf=leaves,
        attempt=attempts,
        base=key_bases,
        offsets=st.lists(st.integers(0, 3 * _BLOCK), min_size=1, max_size=12),
    )
    def test_injector_generators_match_seed_sequence(
        self, seed, leaf, attempt, base, offsets
    ):
        injector = FaultInjector(seed=seed)
        for offset in offsets:
            key = base + offset
            expected = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(leaf, key, attempt))
            )
            rng = injector.rng_for(leaf, key, attempt)
            assert rng.bit_generator.state == expected.bit_generator.state
            assert rng.random(2).tolist() == expected.random(2).tolist()

    def test_precomputed_words_serve_only_pcg64(self):
        with pytest.raises(ConfigurationError):
            np.random.MT19937(_SeedWords(np.zeros(4, np.uint64)))

    @pytest.mark.parametrize(
        ("first", "count"), [(-1, 2), (_ONE_WORD - 1, 2), (_ONE_WORD, 1)]
    )
    def test_keys_past_one_word_rejected(self, first, count):
        with pytest.raises(ConfigurationError):
            KeyedSeedWords(0, 0, 1).block(first, count)


rpc = st.tuples(
    st.integers(0, 5),
    st.one_of(st.none(), key_bases),
    st.one_of(st.integers(1, 3), st.just(1_001)),
)


class TestPlanRpcAgainstSeedSequenceOracle:
    @given(
        seed=seeds,
        rpcs=st.lists(rpc, min_size=1, max_size=40),
        spec=st.builds(
            FaultSpec,
            latency_spike_rate=st.sampled_from([0.0, 0.2, 1.0]),
            transient_error_rate=st.sampled_from([0.0, 0.1, 0.5]),
            hard_failure_rate=st.sampled_from([0.0, 0.02, 0.3]),
            utilization=st.sampled_from([0.0, 0.5]),
        ),
    )
    def test_same_draws_and_counts(self, seed, rpcs, spec):
        injector = FaultInjector(spec, seed=seed)
        oracle = SeedSequenceInjector(spec, seed=seed)
        for step, (leaf, key, attempt) in enumerate(rpcs):
            for side in (injector, oracle):
                side.clock.advance_to(float(step))
            draw = injector.plan_rpc(leaf, query_key=key, attempt=attempt)
            assert draw == oracle.plan_rpc(leaf, query_key=key, attempt=attempt)
            assert type(draw.latency_ms) is float
        for counter in ("calls", "spikes", "transient_errors", "hard_failures"):
            assert getattr(injector, counter) == getattr(oracle, counter)
        assert injector.died_at_ms == oracle.died_at_ms

    def test_sequential_keys_cross_blocks(self):
        """The engine's pattern: every leaf, query keys counting up."""
        spec = FaultSpec(latency_spike_rate=0.1, transient_error_rate=0.05)
        injector = FaultInjector(spec, seed=7)
        oracle = SeedSequenceInjector(spec, seed=7)
        for key in range(3 * _BLOCK + 5):
            for leaf in range(3):
                assert injector.plan_rpc(leaf, key, 1) == oracle.plan_rpc(leaf, key, 1)
        assert injector.spikes == oracle.spikes
        assert injector.transient_errors == oracle.transient_errors
