"""Tests for branch-stream generation and predictors.

The bimodal, gshare and local-history predictors live in the per-branch
oracle (``branch_oracle.py``); the tournament is the vectorized one.
"""

import numpy as np
import pytest

from repro.cpu.branch import (
    BranchStream,
    BranchWorkloadConfig,
    TournamentPredictor,
    branch_mpki,
    generate_branch_stream,
    measure_branch_mpki,
)
from repro.errors import ConfigurationError
from tests.cpu.branch_oracle import (
    BimodalPredictor,
    GSharePredictor,
    LocalHistoryPredictor,
    simulate_predictor,
)


def count_mispredicts(predictor, stream):
    """Mispredict count of the vectorized tournament or an oracle."""
    if isinstance(predictor, TournamentPredictor):
        return int(np.count_nonzero(predictor.predict(stream) != stream.outcomes))
    return simulate_predictor(predictor, stream)


def config(**kw):
    defaults = dict(
        static_branches=512,
        biased_fraction=0.6,
        loop_fraction=0.25,
        data_dependent_fraction=0.15,
    )
    defaults.update(kw)
    return BranchWorkloadConfig(**defaults)


class TestConfig:
    def test_fractions_must_sum(self):
        with pytest.raises(ConfigurationError):
            config(biased_fraction=0.9)

    def test_bias_range(self):
        with pytest.raises(ConfigurationError):
            config(data_dependent_bias=0.7)

    def test_positive_branches(self):
        with pytest.raises(ConfigurationError):
            config(static_branches=0)


class TestStreamGeneration:
    def test_length_matches_rate(self):
        stream = generate_branch_stream(config(branches_per_ki=100), 50_000)
        assert len(stream) == 5000
        assert stream.instruction_count == 50_000

    def test_pcs_in_range(self):
        stream = generate_branch_stream(config(), 20_000)
        assert stream.pcs.min() >= 0
        assert stream.pcs.max() < 512

    def test_deterministic_by_seed(self):
        a = generate_branch_stream(config(), 10_000, seed=3)
        b = generate_branch_stream(config(), 10_000, seed=3)
        assert (a.pcs == b.pcs).all()
        assert (a.outcomes == b.outcomes).all()

    def test_different_seeds_differ(self):
        a = generate_branch_stream(config(), 10_000, seed=3)
        b = generate_branch_stream(config(), 10_000, seed=4)
        assert not (a.outcomes == b.outcomes).all()

    def test_rejects_non_positive_instructions(self):
        with pytest.raises(ConfigurationError):
            generate_branch_stream(config(), 0)

    def test_loop_branches_mostly_taken(self):
        stream = generate_branch_stream(
            config(
                biased_fraction=0.0,
                loop_fraction=1.0,
                data_dependent_fraction=0.0,
                loop_trip_mean=16,
            ),
            100_000,
        )
        taken_rate = stream.outcomes.mean()
        assert 0.8 < taken_rate < 0.99


class TestBranchStreamBoundaries:
    def stream(self, pcs=(1, 2, 3), outcomes=(True, False, True), count=100):
        return BranchStream(
            pcs=np.asarray(pcs), outcomes=np.asarray(outcomes), instruction_count=count
        )

    @pytest.mark.parametrize(
        "pcs, outcomes",
        [
            (np.zeros((2, 2), np.int64), np.zeros(4, bool)),
            (np.zeros(4, np.int64), np.zeros((2, 2), bool)),
            (np.int64(3), np.bool_(True)),
        ],
    )
    def test_rejects_non_1d(self, pcs, outcomes):
        with pytest.raises(ConfigurationError, match="1-D"):
            BranchStream(pcs=pcs, outcomes=outcomes, instruction_count=10)

    @pytest.mark.parametrize("pcs", [[1.0, 2.0, 3.0], ["a", "b", "c"], [1, None, 3]])
    def test_rejects_non_integer_pcs(self, pcs):
        with pytest.raises(ConfigurationError, match="integers"):
            self.stream(pcs=pcs)

    @pytest.mark.parametrize(
        "outcomes", [[0, 1, 2], [-1, 0, 1], [0.0, 1.0, 1.0], ["T", "N", "T"]]
    )
    def test_rejects_non_binary_outcomes(self, outcomes):
        with pytest.raises(ConfigurationError, match="0/1"):
            self.stream(outcomes=outcomes)

    @pytest.mark.parametrize("count", [0, -5])
    def test_rejects_non_positive_instruction_count(self, count):
        with pytest.raises(ConfigurationError, match="instruction_count"):
            self.stream(count=count)

    def test_rejects_misaligned(self):
        with pytest.raises(ConfigurationError, match="align"):
            self.stream(pcs=[1, 2])

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64])
    def test_integer_outcomes_match_bool(self, dtype):
        bools = generate_branch_stream(config(), 60_000, seed=5)
        ints = BranchStream(
            pcs=bools.pcs,
            outcomes=bools.outcomes.astype(dtype),
            instruction_count=bools.instruction_count,
        )
        assert ints.outcomes.dtype == bool
        assert measure_branch_mpki(TournamentPredictor(), ints) == measure_branch_mpki(
            TournamentPredictor(), bools
        )

    def test_empty_stream_measures_zero(self):
        stream = BranchStream(pcs=[], outcomes=[], instruction_count=1000)
        assert len(stream) == 0
        assert measure_branch_mpki(TournamentPredictor(), stream) == 0.0


class TestTournamentConfig:
    @pytest.mark.parametrize(
        "sizes",
        [
            dict(entries=1000),
            dict(entries=0),
            dict(chooser_entries=3),
            dict(history_bits=0),
        ],
    )
    def test_rejects_bad_sizes(self, sizes):
        with pytest.raises(ConfigurationError):
            TournamentPredictor(**sizes)

    def test_frozen_defaults(self):
        predictor = TournamentPredictor()
        assert (predictor.entries, predictor.history_bits) == (16384, 16)
        assert predictor.chooser_entries == 4096
        with pytest.raises(AttributeError):
            predictor.entries = 8


class TestPredictors:
    def stream(self, **kw):
        return generate_branch_stream(config(**kw), 120_000, seed=1)

    @pytest.mark.parametrize(
        "predictor_cls",
        [BimodalPredictor, LocalHistoryPredictor, TournamentPredictor],
    )
    def test_better_than_random(self, predictor_cls):
        stream = self.stream()
        assert count_mispredicts(predictor_cls(), stream) / len(stream) < 0.35

    def test_gshare_learns_single_branch_pattern(self):
        """Global history only helps when the dynamic branch sequence is
        structured.  The synthetic streams interleave Zipf-random PCs, so
        history is noise there (which is why the tournament does not use
        gshare); on a single periodic branch, gshare must learn."""
        pcs = np.zeros(6000, np.int64)
        outcomes = np.tile([True, True, False], 2000)
        stream = BranchStream(pcs=pcs, outcomes=outcomes, instruction_count=6000)
        mispredicts = simulate_predictor(GSharePredictor(), stream)
        assert mispredicts / len(stream) < 0.05

    def test_bimodal_learns_bias(self):
        stream = self.stream(
            biased_fraction=1.0,
            loop_fraction=0.0,
            data_dependent_fraction=0.0,
            biased_rate=0.02,
        )
        mispredicts = simulate_predictor(BimodalPredictor(), stream)
        assert mispredicts / len(stream) < 0.08

    def test_local_history_learns_short_loops(self):
        """A fixed trip-4 loop pattern is fully learnable locally."""
        pcs = np.zeros(4000, np.int64)
        outcomes = np.tile([True, True, True, False], 1000)
        stream = BranchStream(pcs=pcs, outcomes=outcomes, instruction_count=4000)
        local = simulate_predictor(LocalHistoryPredictor(), stream)
        bimodal = simulate_predictor(BimodalPredictor(), stream)
        assert local < bimodal

    def test_data_dependent_unpredictable(self):
        stream = self.stream(
            biased_fraction=0.0, loop_fraction=0.0, data_dependent_fraction=1.0
        )
        assert count_mispredicts(TournamentPredictor(), stream) / len(stream) > 0.4

    def test_tournament_beats_components_on_mix(self):
        stream = self.stream()
        tournament = count_mispredicts(TournamentPredictor(), stream)
        bimodal = simulate_predictor(BimodalPredictor(), stream)
        assert tournament <= bimodal * 1.05


class TestMpki:
    def test_branch_mpki(self):
        assert branch_mpki(50, 10_000) == pytest.approx(5.0)

    def test_branch_mpki_rejects_zero_instructions(self):
        with pytest.raises(ConfigurationError):
            branch_mpki(1, 0)

    def test_warmup_reduces_measured_mpki(self):
        stream = generate_branch_stream(config(), 200_000, seed=2)
        cold = branch_mpki(
            count_mispredicts(TournamentPredictor(), stream), stream.instruction_count
        )
        warm = measure_branch_mpki(TournamentPredictor(), stream)
        assert warm <= cold * 1.02

    def test_warmup_fraction_validated(self):
        stream = generate_branch_stream(config(), 10_000)
        with pytest.raises(ConfigurationError):
            measure_branch_mpki(TournamentPredictor(), stream, warmup_fraction=1.0)

    def test_more_data_dependent_more_mispredicts(self):
        low = generate_branch_stream(
            config(data_dependent_fraction=0.05, biased_fraction=0.70), 150_000
        )
        high = generate_branch_stream(
            config(data_dependent_fraction=0.40, biased_fraction=0.35), 150_000
        )
        assert measure_branch_mpki(
            TournamentPredictor(), high
        ) > measure_branch_mpki(TournamentPredictor(), low)
