"""Tests for the core-count scaling model."""

import pytest

from repro.cpu.scaling import CoreScalingModel
from repro.errors import ConfigurationError


class TestCoreScaling:
    def test_reference_normalized_to_one(self):
        model = CoreScalingModel(reference_cores=8)
        assert model.normalized_qps(8) == pytest.approx(1.0)

    def test_near_linear_at_72_cores(self):
        """Figure 2a: excellent scaling to 72 cores."""
        model = CoreScalingModel()
        qps = model.normalized_qps(72)
        assert 8.0 < qps <= 9.0  # ideal would be 9.0

    def test_efficiency_never_increases(self):
        model = CoreScalingModel()
        effs = [model.efficiency(n) for n in (8, 16, 32, 64)]
        assert effs == sorted(effs, reverse=True)

    def test_curve(self):
        model = CoreScalingModel()
        curve = model.curve([8, 16])
        assert curve[16] > curve[8]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CoreScalingModel(loss_per_core=0.5)
        with pytest.raises(ConfigurationError):
            CoreScalingModel().normalized_qps(0)
