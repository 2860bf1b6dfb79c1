"""Tests for the simulated-clock fault-injection substrate."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.search.faults import FaultInjector, FaultSpec, SimulatedClock
from repro.search.latency import QueryLatencyModel


class TestSimulatedClock:
    def test_starts_at_zero_and_advances(self):
        clock = SimulatedClock()
        assert clock.now_ms == 0.0
        assert clock.advance(12.5) == 12.5
        clock.advance(0.0)
        assert clock.now_ms == 12.5

    def test_monotonic(self):
        clock = SimulatedClock(start_ms=5.0)
        with pytest.raises(ConfigurationError):
            clock.advance(-1.0)

    def test_advance_to_lands_exactly_and_never_goes_back(self):
        clock = SimulatedClock()
        clock.advance(1.1)
        target = 5.416179938894346
        # The relative step misses the target in the last bit...
        assert 1.1 + (target - 1.1) != target
        # ...the absolute one does not.
        assert clock.advance_to(target) == target
        assert clock.advance_to(2.0) == target
        assert clock.now_ms == target

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulatedClock(start_ms=-1.0)


class TestFaultSpec:
    def test_defaults_are_healthy(self):
        spec = FaultSpec()
        assert spec.latency_spike_rate == 0.0
        assert spec.transient_error_rate == 0.0
        assert spec.hard_failure_rate == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"latency_spike_rate": 1.5},
            {"transient_error_rate": -0.1},
            {"hard_failure_rate": 2.0},
            {"spike_multiplier": 0.5},
            {"hard_fail_detect_ms": -1.0},
            {"utilization": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultSpec(**kwargs)


class TestFaultInjector:
    def model(self):
        return QueryLatencyModel(base_service_ms=8.0, fanout=4, overhead_ms=2.0)

    def test_deterministic_given_seed(self):
        a = FaultInjector(FaultSpec(latency_spike_rate=0.3), seed=42)
        b = FaultInjector(FaultSpec(latency_spike_rate=0.3), seed=42)
        assert [a.plan_rpc(0) for __ in range(50)] == [
            b.plan_rpc(0) for __ in range(50)
        ]

    def test_healthy_draws_match_model_mean(self):
        spec = FaultSpec(utilization=0.5)
        injector = FaultInjector(spec, model=self.model(), seed=7)
        draws = [injector.plan_rpc(0).latency_ms for __ in range(4000)]
        # M/M/1 sojourn at rho=0.5: mean 8 / 0.5 = 16 ms.
        assert np.mean(draws) == pytest.approx(16.0, rel=0.1)

    def test_spikes_multiply_latency(self):
        calm = FaultInjector(FaultSpec(utilization=0.0), seed=3)
        spiky = FaultInjector(
            FaultSpec(latency_spike_rate=1.0, spike_multiplier=6.0, utilization=0.0),
            seed=3,
        )
        # Same seed, same variate consumption: draws are coupled 6x.
        for __ in range(20):
            assert spiky.plan_rpc(1).latency_ms == pytest.approx(
                6.0 * calm.plan_rpc(1).latency_ms
            )
        assert spiky.spikes == 20

    def test_transient_errors_fail_and_count(self):
        injector = FaultInjector(FaultSpec(transient_error_rate=1.0), seed=0)
        draw = injector.plan_rpc(2)
        assert draw.failed and draw.kind == "transient"
        assert not injector.is_dead(2)
        assert draw.latency_ms > 0
        assert injector.transient_errors == 1

    def test_hard_failure_is_fail_stop(self):
        injector = FaultInjector(FaultSpec(hard_failure_rate=1.0), seed=0)
        injector.clock.advance(100.0)
        draw = injector.plan_rpc(5)
        assert draw.kind == "hard"
        assert injector.is_dead(5)
        assert injector.died_at_ms[5] == 100.0
        # Dead leaves keep failing even when the dice would be kind.
        healthy_other = FaultSpec(hard_failure_rate=0.0)
        injector.spec = healthy_other
        assert injector.plan_rpc(5).kind == "dead"
        # ... but other leaves still answer.
        draw = injector.plan_rpc(6)
        assert draw.kind == "ok" and draw.latency_ms > 0

    def test_revive(self):
        injector = FaultInjector(FaultSpec(hard_failure_rate=1.0), seed=0)
        assert injector.plan_rpc(1).failed
        injector.revive(1)
        injector.spec = FaultSpec()
        draw = injector.plan_rpc(1)
        assert draw.kind == "ok" and draw.latency_ms > 0

    def test_variate_consumption_is_rate_independent(self):
        """Runs at different fault rates share one latency stream."""
        quiet = FaultInjector(FaultSpec(utilization=0.3), seed=9)
        noisy = FaultInjector(
            FaultSpec(transient_error_rate=0.5, utilization=0.3), seed=9
        )
        quiet_draws, noisy_draws = [], []
        for __ in range(30):
            quiet_draws.append(quiet.plan_rpc(0).latency_ms)
            noisy_draws.append(noisy.plan_rpc(0).latency_ms)
        assert noisy_draws == pytest.approx(quiet_draws)

    def test_negative_seed_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="seed"):
            FaultInjector(seed=-1)

    @pytest.mark.parametrize(
        ("leaf_id", "query_key", "attempt"), [(-1, 0, 1), (0, -1, 1), (0, 0, 0)]
    )
    def test_bad_stream_ids_are_configuration_errors(self, leaf_id, query_key, attempt):
        with pytest.raises(ConfigurationError):
            FaultInjector(seed=1).rng_for(leaf_id, query_key, attempt)
