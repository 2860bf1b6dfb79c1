"""Differential suite: the vectorized tournament against the per-branch oracle.

``TournamentPredictor.predict`` computes the bimodal counters, the local
histories, the pattern counters and the chooser for a whole stream at
once; ``branch_oracle.OracleTournamentPredictor`` steps the same tables
one branch at a time.  They must agree on every prediction, and
``measure_branch_mpki`` on the oracle's mispredict count, for any PCs —
aliasing within every table, negative, or above 2**31 — any run length
on one PC, any warm-up fraction and any stream length down to zero.

Run with ``HYPOTHESIS_PROFILE=ci`` for the heavy fixed-corpus version.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.branch import BranchStream, TournamentPredictor, measure_branch_mpki
from repro.errors import ConfigurationError
from tests.cpu import branch_oracle
from tests.cpu.branch_oracle import OracleTournamentPredictor

#: Strides that alias PCs in the chooser (4096), bimodal and history
#: (16384) and pattern (2**18) tables, and across 32-bit boundaries.
ALIAS_STRIDES = (1, 4096, 16384, 1 << 18, 1 << 31, 1 << 32, 1 << 40)


@st.composite
def streams(draw, max_size=300):
    """PCs built from a few bases plus aliasing strides (either sign),
    with biased, periodic or random outcomes."""
    bases = draw(st.lists(st.integers(-64, 64), min_size=1, max_size=6))
    stride = draw(st.sampled_from(ALIAS_STRIDES))
    n = draw(st.integers(0, max_size))
    pick = draw(
        st.lists(st.integers(0, len(bases) - 1), min_size=n, max_size=n)
    )
    shifts = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    pcs = np.asarray(bases, np.int64)[pick] + np.asarray(shifts, np.int64) * stride
    kind = draw(st.sampled_from(["random", "biased", "periodic"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "random":
        outcomes = rng.random(n) < 0.5
    elif kind == "biased":
        outcomes = rng.random(n) < 0.95
    else:
        outcomes = np.arange(n) % draw(st.integers(2, 20)) != 0
    return BranchStream(pcs=pcs, outcomes=outcomes, instruction_count=10 * n + 1000)


def assert_matches_oracle(stream, **sizes):
    vectorized = TournamentPredictor(**sizes).predict(stream)
    oracle = branch_oracle.predictions(OracleTournamentPredictor(**sizes), stream)
    assert vectorized.dtype == bool
    assert np.array_equal(vectorized, oracle)


class TestPredictionsMatchOracle:
    @given(streams())
    def test_bit_identical(self, stream):
        assert_matches_oracle(stream)

    @given(
        streams(max_size=120),
        st.sampled_from([1, 2, 64, 16384]),
        st.integers(1, 24),
        st.sampled_from([1, 16, 4096]),
    )
    def test_any_table_sizes(self, stream, entries, history_bits, chooser):
        assert_matches_oracle(
            stream,
            entries=entries,
            history_bits=history_bits,
            chooser_entries=chooser,
        )

    @settings(max_examples=5)
    @given(st.integers(0, 2**16), st.sampled_from([3, 7, 1000]))
    def test_runs_longer_than_the_history_table(self, seed, period):
        """More than 2**14 consecutive branches on one PC, then a mix."""
        rng = np.random.default_rng(seed)
        run = (1 << 14) + 1000
        pcs = np.concatenate(
            [np.full(run, 5, np.int64), rng.integers(0, 8, 2000) * 4096 + 5]
        )
        outcomes = np.arange(len(pcs)) % period != 0
        outcomes[run:] ^= rng.random(2000) < 0.2
        stream = BranchStream(pcs=pcs, outcomes=outcomes, instruction_count=len(pcs))
        assert_matches_oracle(stream)

    @pytest.mark.parametrize("pc", [0, -1, 2**31 + 7, -(2**40) - 3, 2**63 + 5])
    @pytest.mark.parametrize("taken", [False, True])
    def test_single_branch(self, pc, taken):
        stream = BranchStream(
            pcs=np.array([pc]), outcomes=np.array([taken]), instruction_count=10
        )
        assert_matches_oracle(stream)

    def test_empty(self):
        stream = BranchStream(
            pcs=np.empty(0, np.int64), outcomes=np.empty(0, bool), instruction_count=10
        )
        assert TournamentPredictor().predict(stream).shape == (0,)


def mpki_or_error(measure, predictor, stream, warmup):
    try:
        return measure(predictor, stream, warmup)
    except ConfigurationError as exc:
        return str(exc)


class TestMpkiMatchesOracle:
    @given(streams(), st.floats(0.0, 1.0, exclude_max=True))
    def test_any_warmup_fraction(self, stream, warmup):
        """Equal MPKI, or the same typed error when the measured
        instructions round to zero."""
        assert mpki_or_error(
            measure_branch_mpki, TournamentPredictor(), stream, warmup
        ) == mpki_or_error(
            branch_oracle.measure_branch_mpki,
            OracleTournamentPredictor(),
            stream,
            warmup,
        )

    @given(st.floats(0.0, 0.99))
    def test_empty_stream_is_zero(self, warmup):
        stream = BranchStream(
            pcs=np.empty(0, np.int64),
            outcomes=np.empty(0, bool),
            instruction_count=1000,
        )
        assert measure_branch_mpki(TournamentPredictor(), stream, warmup) == 0.0
