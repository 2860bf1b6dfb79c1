"""Tests for the combined design evaluator (Figure 14)."""

import numpy as np
import pytest

from repro._units import MiB
from repro.core.area import AreaModel
from repro.core.hitcurve import LogLinearHitCurve
from repro.core.optimizer import HierarchyDesignEvaluator, SensitivityScenario
from repro.core.perf_model import SearchPerfModel
from repro.errors import ConfigurationError

#: The paper's Eq. 1 and area models.
MODELS = dict(perf_model=SearchPerfModel(), area_model=AreaModel())


class FakeStreamSource:
    """A stream source with heap-like reuse, standing in for a composed run."""

    block_size = 64

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        heap = (rng.zipf(1.25, 40_000) % 20_000).astype(np.int64)
        shard = rng.integers(1 << 22, 1 << 26, 20_000)
        self._lines = np.concatenate([heap, shard])[rng.permutation(60_000)]
        self._segments = np.where(self._lines < 1 << 22, 1, 2).astype(np.uint8)

    def l3_hit_rate(self, capacity_bytes):
        from repro.cachesim.misscurve import MissRatioCurve

        return MissRatioCurve(self._lines).hit_rate(max(1, capacity_bytes // 64))

    def l4_demand(self, l3_capacity_bytes):
        from repro.cachesim.misscurve import MissRatioCurve

        curve = MissRatioCurve(self._lines)
        miss = curve.miss_mask(max(1, l3_capacity_bytes // 64))
        return self._lines[miss], self._segments[miss]


@pytest.fixture(scope="module")
def evaluator():
    return HierarchyDesignEvaluator(
        stream_source=FakeStreamSource(),
        scale=1 / 512,
        l3_hit_fn=LogLinearHitCurve.fig10_effective(),
        **MODELS,
    )


class TestScenarios:
    def test_all_four(self):
        names = [s.name for s in SensitivityScenario.all_scenarios()]
        assert names == ["baseline", "pessimistic", "associative", "future"]

    def test_future_scales_misses(self):
        assert SensitivityScenario.future().l3_miss_scale == pytest.approx(1.10)

    def test_miss_scale_validated(self):
        with pytest.raises(ConfigurationError):
            SensitivityScenario(name="x", l3_miss_scale=0.9)


class TestEvaluate:
    def test_rebalance_improvement_matches_fig10(self, evaluator):
        evaluation = evaluator.evaluate(SensitivityScenario.baseline(), 1024 * MiB)
        assert evaluation.rebalance_only_improvement == pytest.approx(0.14, abs=0.02)

    def test_l4_adds_on_top(self, evaluator):
        evaluation = evaluator.evaluate(SensitivityScenario.baseline(), 1024 * MiB)
        assert evaluation.qps_improvement > evaluation.rebalance_only_improvement

    def test_bigger_l4_bigger_gain(self, evaluator):
        small = evaluator.evaluate(SensitivityScenario.baseline(), 128 * MiB)
        large = evaluator.evaluate(SensitivityScenario.baseline(), 2048 * MiB)
        assert large.qps_improvement >= small.qps_improvement

    def test_pessimistic_worse_than_baseline(self, evaluator):
        base = evaluator.evaluate(SensitivityScenario.baseline(), 1024 * MiB)
        pessimistic = evaluator.evaluate(
            SensitivityScenario.pessimistic(), 1024 * MiB
        )
        assert pessimistic.qps_improvement < base.qps_improvement

    def test_associative_at_least_as_good(self, evaluator):
        base = evaluator.evaluate(SensitivityScenario.baseline(), 256 * MiB)
        assoc = evaluator.evaluate(SensitivityScenario.associative(), 256 * MiB)
        assert assoc.l4_hit_rate >= base.l4_hit_rate - 0.02

    def test_render(self, evaluator):
        evaluation = evaluator.evaluate(SensitivityScenario.baseline(), 1024 * MiB)
        assert "baseline" in evaluation.render()

    def test_associative_grid_builds_one_curve(self, monkeypatch):
        """Every fully-associative L4 capacity reads one curve of the one
        demand stream, with the hit rates of a curve built per capacity."""
        from repro.cachesim.misscurve import MissRatioCurve
        from repro.core import optimizer
        from repro.core.l4cache import L4Cache, L4Config

        source = FakeStreamSource()
        fresh = HierarchyDesignEvaluator(
            stream_source=source,
            scale=1 / 512,
            l3_hit_fn=LogLinearHitCurve.fig10_effective(),
            **MODELS,
        )
        builds = []

        class CountingCurve(MissRatioCurve):
            def __init__(self, lines):
                builds.append(len(lines))
                super().__init__(lines)

        monkeypatch.setattr(optimizer, "MissRatioCurve", CountingCurve)
        capacities = [size * MiB for size in (128, 256, 512, 1024, 2048)]
        scenario = SensitivityScenario.associative()
        rows = [fresh.evaluate(scenario, capacity) for capacity in capacities]
        assert len(builds) == 1
        monkeypatch.undo()

        lines, segments = source.l4_demand(
            fresh._scaled_bytes(fresh.design_l3_mib * MiB)
        )
        for row, capacity in zip(rows, capacities):
            config = L4Config(
                capacity=fresh._scaled_bytes(capacity), associativity="full"
            )
            assert row.l4_hit_rate == L4Cache(config).simulate(
                lines, segments
            ).hit_rate

    def test_scale_validated(self):
        with pytest.raises(ConfigurationError):
            HierarchyDesignEvaluator(
                stream_source=FakeStreamSource(), scale=2.0, **MODELS
            )
