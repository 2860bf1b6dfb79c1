"""Tests for the L3 hit-rate curves."""

import pytest

from repro._units import MiB
from repro.core.hitcurve import LogLinearHitCurve
from repro.errors import ConfigurationError


class TestLogLinear:
    def test_anchor_recovered(self):
        curve = LogLinearHitCurve(45 * MiB, 0.73, 0.1)
        assert curve(45 * MiB) == pytest.approx(0.73)

    def test_monotone_without_curvature(self):
        curve = LogLinearHitCurve(45 * MiB, 0.73, 0.1)
        values = [curve(int(m * MiB)) for m in (4, 8, 16, 32, 64)]
        assert values == sorted(values)

    def test_clamped(self):
        curve = LogLinearHitCurve(45 * MiB, 0.73, 0.3, floor=0.1, ceiling=0.9)
        assert curve(1024) == 0.1
        assert curve(1 << 50) == 0.9

    def test_fig8_demand_anchors(self):
        """53% at 4.5 MiB, 73% at 45 MiB."""
        curve = LogLinearHitCurve.fig8_demand()
        assert curve(int(4.5 * MiB)) == pytest.approx(0.53, abs=0.005)
        assert curve(45 * MiB) == pytest.approx(0.73, abs=0.005)

    def test_fig10_effective_steeper_than_demand(self):
        demand = LogLinearHitCurve.fig8_demand()
        effective = LogLinearHitCurve.fig10_effective()
        drop_demand = demand(45 * MiB) - demand(23 * MiB)
        drop_effective = effective(45 * MiB) - effective(23 * MiB)
        assert drop_effective > drop_demand

    def test_smt_off_variant_shallower(self):
        on = LogLinearHitCurve.fig10_effective(smt=True)
        off = LogLinearHitCurve.fig10_effective(smt=False)
        assert off(23 * MiB) - on(23 * MiB) > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LogLinearHitCurve(0, 0.5, 0.1)
        with pytest.raises(ConfigurationError):
            LogLinearHitCurve(MiB, 1.5, 0.1)
        with pytest.raises(ConfigurationError):
            LogLinearHitCurve(MiB, 0.5, 0.1, curvature=-1)
        with pytest.raises(ConfigurationError):
            LogLinearHitCurve(MiB, 0.5, 0.1)(0)
