"""Tests for the per-query latency model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SaturatedQueueError
from repro.search.latency import QueryLatencyModel


@pytest.fixture
def model():
    return QueryLatencyModel(base_service_ms=8.0, fanout=32, overhead_ms=2.0)


class TestQueueing:
    def test_latency_grows_with_utilization(self, model):
        low = model.query_quantile_ms(0.99, 0.3)
        high = model.query_quantile_ms(0.99, 0.8)
        assert high > low

    def test_tail_above_mean(self, model):
        assert model.query_quantile_ms(0.99, 0.5) > model.mean_query_ms(0.5)

    def test_fanout_amplifies_tail(self):
        narrow = QueryLatencyModel(fanout=1)
        wide = QueryLatencyModel(fanout=64)
        assert wide.query_quantile_ms(0.99, 0.5) > narrow.query_quantile_ms(0.99, 0.5)

    def test_faster_design_lower_tail(self, model):
        """At fixed offered load, a higher-throughput design runs at lower
        utilization and with shorter service — double win on the tail."""
        offered = 0.6
        base = model.query_quantile_ms(
            0.99, model.utilization_for_load(offered, 1.0), 1.0
        )
        improved = model.query_quantile_ms(
            0.99, model.utilization_for_load(offered, 1.27), 1.27
        )
        assert improved < base

    def test_slo_check(self, model):
        assert model.tail_within_slo(10_000.0, 0.5)
        assert not model.tail_within_slo(1.0, 0.9)

    def test_saturation_representable(self, model):
        # Overload no longer raises: the utilization is clamped to 1.0
        # and flagged, with the offered load preserved for reporting.
        rho = model.utilization_for_load(1.5, 1.0)
        assert float(rho) == 1.0
        assert rho.saturated
        assert rho.offered == pytest.approx(1.5)
        healthy = model.utilization_for_load(0.6, 1.0)
        assert float(healthy) == pytest.approx(0.6)
        assert not healthy.saturated

    def test_quantiles_raise_saturated_error(self, model):
        rho = model.utilization_for_load(1.3, 1.0)
        with pytest.raises(SaturatedQueueError) as info:
            model.query_quantile_ms(0.99, rho)
        assert info.value.utilization == pytest.approx(1.3)
        # SaturatedQueueError is a ServingError, not a config error.
        assert not isinstance(info.value, ConfigurationError)

    def test_validation(self, model):
        with pytest.raises(ConfigurationError):
            model.query_quantile_ms(1.0, 0.5)
        with pytest.raises(SaturatedQueueError):
            model.leaf_quantile_ms(0.99, 1.0)
        with pytest.raises(ConfigurationError):
            model.leaf_quantile_ms(0.99, -0.1)
        with pytest.raises(ConfigurationError):
            QueryLatencyModel(fanout=0)
        with pytest.raises(ConfigurationError):
            model.service_ms(0.0)

    @pytest.mark.parametrize("field", ["base_service_ms", "overhead_ms"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, field, value):
        """Regression: NaN built a model whose mean latency was NaN."""
        with pytest.raises(ConfigurationError, match=field):
            QueryLatencyModel(**{field: value})

    @pytest.mark.parametrize("throughput", [float("nan"), float("inf")])
    def test_non_finite_throughput_rejected(self, model, throughput):
        """Regression: NaN gave a NaN service time and inf gave 0 ms."""
        with pytest.raises(ConfigurationError, match="finite"):
            model.service_ms(throughput)

    @pytest.mark.parametrize(
        "throughput", [0.0, float("nan"), float("inf"), -1.0]
    )
    def test_load_with_bad_throughput_rejected(self, model, throughput):
        """Regression: ``utilization_for_load`` divided first, so 0 raised a
        raw ``ZeroDivisionError``, NaN gave NaN, inf gave 0 and -1 gave
        -0.5."""
        with pytest.raises(ConfigurationError, match="relative_throughput"):
            model.utilization_for_load(0.5, throughput)
        with pytest.raises(ConfigurationError, match="relative_throughput"):
            model.tail_within_slo(200.0, 0.5, throughput)

    def test_nan_utilization_rejected(self, model):
        """Regression: NaN passed the check and the quantile was NaN."""
        with pytest.raises(ConfigurationError):
            model.leaf_quantile_ms(0.99, float("nan"))
        with pytest.raises(ConfigurationError):
            model.utilization_for_load(float("nan"))
        with pytest.raises(SaturatedQueueError):
            model.leaf_quantile_ms(0.99, float("inf"))


class TestSampling:
    def test_sample_mean_matches_sojourn(self, model):
        rng = np.random.default_rng(5)
        draws = [model.sample_leaf_ms(rng, 0.5) for __ in range(4000)]
        # M/M/1 sojourn mean at rho=0.5: 8 / (1 - 0.5) = 16 ms.
        assert np.mean(draws) == pytest.approx(16.0, rel=0.1)

    def test_sample_deterministic_given_rng_state(self, model):
        a = [model.sample_leaf_ms(np.random.default_rng(1), 0.4) for __ in range(5)]
        b = [model.sample_leaf_ms(np.random.default_rng(1), 0.4) for __ in range(5)]
        assert a == b

    def test_sample_scales_with_throughput(self, model):
        slow = model.sample_leaf_ms(np.random.default_rng(2), 0.0, 1.0)
        fast = model.sample_leaf_ms(np.random.default_rng(2), 0.0, 2.0)
        assert fast == pytest.approx(slow / 2.0)

    def test_sample_validation(self, model):
        rng = np.random.default_rng(0)
        with pytest.raises(SaturatedQueueError):
            model.sample_leaf_ms(rng, 1.0)
        with pytest.raises(ConfigurationError):
            model.sample_leaf_ms(rng, -0.1)
