"""Tests for the cache-for-cores optimizer (Figures 9-11)."""

import pytest

from repro._units import MiB
from repro.core.area import AreaModel
from repro.core.hitcurve import LogLinearHitCurve
from repro.core.perf_model import SearchPerfModel
from repro.core.rebalance import CacheForCoresOptimizer
from repro.errors import ConfigurationError

#: The paper's Eq. 1 and area models.
MODELS = dict(perf_model=SearchPerfModel(), area_model=AreaModel())


@pytest.fixture
def optimizer():
    return CacheForCoresOptimizer(
        hit_rate_fn=LogLinearHitCurve.fig10_effective(), **MODELS
    )


RATIOS = [2.25, 2.0, 1.75, 1.5, 1.25, 1.0, 0.75, 0.5]


class TestEvaluate:
    def test_baseline_ratio_is_neutral(self, optimizer):
        point = optimizer.evaluate(2.5, quantize=True)
        assert point.cores == 18
        assert point.qps_vs_baseline == pytest.approx(1.0)

    def test_paper_sweet_spot(self, optimizer):
        """c = 1 MiB/core -> 23 cores, ~+14% (the paper's optimum)."""
        point = optimizer.evaluate(1.0, quantize=True)
        assert point.cores == 23
        assert point.l3_mib == pytest.approx(23.0)
        assert point.improvement == pytest.approx(0.14, abs=0.015)

    def test_optimum_location(self, optimizer):
        best = optimizer.optimum(RATIOS, quantize=True)
        assert best.l3_mib_per_core == 1.0

    def test_falls_off_both_sides(self, optimizer):
        points = {p.l3_mib_per_core: p.improvement for p in optimizer.sweep(RATIOS)}
        assert points[1.0] > points[2.0]
        assert points[1.0] > points[0.5]

    def test_unquantized_upper_bound(self, optimizer):
        ideal = optimizer.evaluate(1.0, quantize=False)
        quantized = optimizer.evaluate(1.0, quantize=True)
        assert ideal.qps_vs_baseline >= quantized.qps_vs_baseline

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CacheForCoresOptimizer(lambda c: 0.5, **MODELS, baseline_cores=0)
        with pytest.raises(ConfigurationError):
            CacheForCoresOptimizer(lambda c: 0.5, **MODELS, baseline_l3_mib=0)


class TestDecompose:
    def test_signs(self, optimizer):
        gain, loss = optimizer.decompose(1.0)
        assert gain > 0
        assert loss < 0

    def test_gap_maximal_at_one(self, optimizer):
        nets = {r: optimizer.evaluate(r).improvement for r in RATIOS}
        assert max(nets, key=nets.get) == 1.0

    def test_gain_grows_with_smaller_cache(self, optimizer):
        gain_small_cache, __ = optimizer.decompose(0.5)
        gain_large_cache, __ = optimizer.decompose(2.0)
        assert gain_small_cache > gain_large_cache

    def test_loss_grows_with_smaller_cache(self, optimizer):
        __, loss_small = optimizer.decompose(0.5)
        __, loss_large = optimizer.decompose(2.0)
        assert loss_small < loss_large


class TestGrid:
    def test_grid_shape(self, optimizer):
        rows = optimizer.fixed_cache_qps_grid([4, 9, 11], [13.5, 22.5])
        assert len(rows) == 6

    def test_fig9_eleven_core_beats_nine_core(self, optimizer):
        """The paper's highlighted iso-area comparison at ~58 MiB."""
        rows = {
            (cores, l3): qps
            for cores, l3, __, qps in optimizer.fixed_cache_qps_grid(
                [9, 11], [13.5, 22.5]
            )
        }
        assert rows[(11, 13.5)] > rows[(9, 22.5)]

    def test_qps_monotone_in_cores_at_fixed_cache(self, optimizer):
        rows = optimizer.fixed_cache_qps_grid([4, 8, 12, 16], [22.5])
        qps = [q for *_ , q in rows]
        assert qps == sorted(qps)
