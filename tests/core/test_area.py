"""Tests for the iso-area model."""

import pytest

from repro.core.area import AreaModel
from repro.errors import ConfigurationError


class TestAreaModel:
    def test_plt1_baseline_area(self):
        """18 cores + 45 MiB at 4 MiB/core-equivalent = 117 MiB."""
        assert AreaModel().total_area_mib(18, 45.0) == pytest.approx(117.0)

    def test_cores_for_area_paper_sweet_spot(self):
        """117 MiB at 1 MiB/core quantizes to the paper's 23 cores."""
        model = AreaModel()
        assert model.cores_for_area(117.0, 1.0) == 23.0
        assert model.cores_for_area(117.0, 1.0, quantize=False) == pytest.approx(
            23.4
        )

    def test_baseline_ratio_recovers_baseline(self):
        model = AreaModel()
        assert model.cores_for_area(117.0, 2.5) == 18.0

    def test_total_area(self):
        assert AreaModel().total_area_mib(10, 20.0) == 60.0

    def test_more_cache_per_core_fewer_cores(self):
        model = AreaModel()
        assert model.cores_for_area(117, 0.5) > model.cores_for_area(117, 2.5)

    def test_validation(self):
        model = AreaModel()
        with pytest.raises(ConfigurationError):
            AreaModel(core_equiv_mib=0)
        with pytest.raises(ConfigurationError):
            model.total_area_mib(0, 10)
        with pytest.raises(ConfigurationError):
            model.cores_for_area(2.0, 10.0)  # cannot fit one core
