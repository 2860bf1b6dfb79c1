"""Tests for the ablation studies."""

import pytest


@pytest.fixture(scope="module")
def result(campaign):
    # The session's shared tiny-preset run; the ablations table is the
    # same at any ``branch_instructions``.
    return campaign.results["ablations"]


def by_series(result, name):
    return {r["config"]: r for r in result.rows if r["series"] == name}


class TestAblations:
    def test_l4_synergy_positive(self, result):
        """The paper's smaller-L3-feeds-hotter-L4 claim must be emergent."""
        rows = by_series(result, "l4-synergy")
        design = rows["23 MiB L3 (design)"]["l4_hit"]
        baseline = rows["45 MiB L3 (baseline)"]["l4_hit"]
        assert design > baseline

    def test_opt_barely_beats_lru(self, result):
        """Capacity, not replacement policy, is search's problem."""
        rows = by_series(result, "lru-vs-opt")
        gap = rows["Belady OPT"]["hit"] - rows["LRU"]["hit"]
        assert 0 <= gap < 0.08

    def test_shard_prefix_is_load_bearing(self, result):
        rows = by_series(result, "shard-prefix")
        with_prefix = rows["prefix-biased scans"]["shard_hit_at_2gib"]
        without = rows["uniform windows"]["shard_hit_at_2gib"]
        assert with_prefix > 4 * without

    def test_bigger_l4_blocks_exploit_shard_sequentiality(self, result):
        rows = by_series(result, "l4-block")
        assert rows["4096 B blocks"]["l4_hit"] > rows["64 B blocks"]["l4_hit"]

    def test_composition_tracks_flat_trace(self, result):
        for row in result.rows:
            if row["series"] != "composition-vs-flat":
                continue
            flat = row["flat_l3_mpki"]
            composed = row["composed_l3_mpki"]
            assert composed == pytest.approx(flat, abs=max(1.5, 0.2 * flat))
