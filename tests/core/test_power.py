"""Tests for the power/energy model (§IV-C anchors)."""

import pytest

from repro.core.area import AreaModel
from repro.core.power import PowerModel
from repro.errors import ConfigurationError


@pytest.fixture
def model():
    return PowerModel()


class TestSocketPower:
    def test_paper_core_fraction(self, model):
        """Each core contributes 3.77% of baseline socket power."""
        assert model.core_watts() / model.baseline_socket_watts == pytest.approx(
            0.0377
        )

    def test_five_extra_cores_anchor(self, model):
        """+5 cores -> +18.9% socket power, ~27 W."""
        assert model.power_increase_fraction(23) == pytest.approx(0.189, abs=0.002)
        added = model.socket_watts(23) - model.socket_watts(18)
        assert added == pytest.approx(27.0, abs=1.0)

    def test_tdp_margin(self, model):
        """The paper: the 23-core point is within 3.8% of published TDP
        (slightly above it)."""
        assert abs(model.tdp_margin_fraction(23)) < 0.038

    def test_linear_in_cores(self, model):
        delta1 = model.socket_watts(19) - model.socket_watts(18)
        delta2 = model.socket_watts(24) - model.socket_watts(23)
        assert delta1 == pytest.approx(delta2)

    def test_validation(self, model):
        with pytest.raises(ConfigurationError):
            model.socket_watts(0)
        with pytest.raises(ConfigurationError):
            PowerModel(core_fraction_of_socket=1.5)


class TestEnergy:
    def test_energy_per_query_improves_with_qps(self, model):
        base = model.energy_per_query(model.socket_watts(18), 1.0)
        improved = model.energy_per_query(model.socket_watts(23), 1.27)
        assert improved < base

    def test_l4_reduces_memory_energy_at_high_hit(self, model):
        without = model.memory_energy_per_ki(3.0)
        with_l4 = model.memory_energy_per_ki(3.0, l4_hit_rate=0.5)
        assert with_l4 < without

    def test_l4_probe_energy_charged(self, model):
        """A useless (0%-hit) L4 costs extra energy, not less."""
        without = model.memory_energy_per_ki(3.0)
        useless = model.memory_energy_per_ki(3.0, l4_hit_rate=0.0)
        assert useless > without

    def test_validation(self, model):
        with pytest.raises(ConfigurationError):
            model.memory_energy_per_ki(-1.0)
        with pytest.raises(ConfigurationError):
            model.memory_energy_per_ki(1.0, l4_hit_rate=1.5)
        with pytest.raises(ConfigurationError):
            model.energy_per_query(100.0, 0.0)


class TestIsoPower:
    def test_area_saving_anchor(self, model):
        """18 cores at 1 MiB/core cuts core+cache area ~23%."""
        assert model.iso_power_area_saving(AreaModel(), 1.0) == pytest.approx(
            0.23, abs=0.01
        )

    def test_no_saving_at_baseline_ratio(self, model):
        assert model.iso_power_area_saving(AreaModel(), 2.5) == pytest.approx(0.0)
