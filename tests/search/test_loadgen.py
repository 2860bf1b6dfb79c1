"""Tests for open-loop load generation and measured-tail convergence."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SaturatedQueueError
from repro.search.engine import QueueConfig, ServingEngine
from repro.search.faults import FaultInjector, FaultSpec
from repro.search.latency import QueryLatencyModel
from repro.search.loadgen import (
    LoadReport,
    poisson_arrival_times_ms,
    run_open_loop,
)
from repro.search.policies import RetryPolicy, ServingPolicy
from repro.search.root import SearchResultPage

_SERVICE_MS = 8.0


def _page(complete=True, leaves_answered=1, latency_ms=1.0):
    return SearchResultPage(
        terms=(),
        hits=(),
        snippets=(),
        complete=complete,
        leaves_answered=leaves_answered,
        leaves_total=1,
        latency_ms=latency_ms,
    )


def _mm1_engine(seed, max_depth=None):
    """A fault-free single-server engine: exactly M/M/1."""
    model = QueryLatencyModel(base_service_ms=_SERVICE_MS, fanout=1, overhead_ms=0.0)
    return ServingEngine(
        num_leaves=1,
        injector=FaultInjector(FaultSpec(utilization=0.0), model=model, seed=seed),
        policy=ServingPolicy(retry=RetryPolicy(max_attempts=1), overhead_ms=0.0),
        queue=QueueConfig(max_depth=max_depth),
    )


def _open_loop(rho, num_queries, seed, max_depth=None):
    qps = 1000.0 * rho / _SERVICE_MS
    engine = _mm1_engine(seed, max_depth=max_depth)
    arrivals = poisson_arrival_times_ms(qps, num_queries, seed=seed + 500)
    return run_open_loop(engine, arrivals)


class TestArrivalSchedules:
    def test_poisson_validation(self):
        with pytest.raises(ConfigurationError):
            poisson_arrival_times_ms(0.0, 10)
        with pytest.raises(ConfigurationError):
            poisson_arrival_times_ms(100.0, 0)
        with pytest.raises(ConfigurationError):
            poisson_arrival_times_ms(100.0, 10, start_ms=-1.0)

    def test_poisson_deterministic_and_calibrated(self):
        first = poisson_arrival_times_ms(125.0, 5000, seed=3)
        again = poisson_arrival_times_ms(125.0, 5000, seed=3)
        assert first == again
        assert first != poisson_arrival_times_ms(125.0, 5000, seed=4)
        assert first == sorted(first)
        gaps = np.diff([0.0] + first)
        assert float(np.mean(gaps)) == pytest.approx(8.0, rel=0.05)

    def test_poisson_start_offset(self):
        base = poisson_arrival_times_ms(100.0, 10, seed=1)
        offset = poisson_arrival_times_ms(100.0, 10, seed=1, start_ms=50.0)
        assert offset == pytest.approx([t + 50.0 for t in base])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"qps": float("nan")},
            {"qps": float("inf")},
            {"start_ms": float("nan")},
            {"start_ms": float("inf")},
        ],
        ids=["qps-nan", "qps-inf", "start-nan", "start-inf"],
    )
    def test_poisson_rejects_non_finite(self, kwargs):
        """Regression: NaN passed the ``<= 0``/``< 0`` checks, inf qps gave
        0 ms gaps and inf start_ms gave inf arrivals."""
        args = {"qps": 100.0, "count": 3, **kwargs}
        with pytest.raises(ConfigurationError, match="finite"):
            poisson_arrival_times_ms(**args)


class TestLoadReport:
    def test_observe_classifies_pages(self):
        report = LoadReport()
        report.observe(_page(complete=True, latency_ms=10.0))
        report.observe(_page(complete=False, leaves_answered=1, latency_ms=20.0))
        report.observe(_page(complete=False, leaves_answered=0, latency_ms=0.0))
        assert (report.complete, report.degraded, report.failed) == (1, 1, 1)
        assert report.pages == 3
        assert report.degraded_rate == pytest.approx(2 / 3)

    def test_rates_and_quantiles(self):
        report = LoadReport(arrivals=4, duration_ms=2000.0)
        for latency_ms in (10.0, 20.0, 30.0, 40.0):
            report.observe(_page(latency_ms=latency_ms))
        assert report.offered_qps == pytest.approx(2.0)
        assert report.completed_qps == pytest.approx(2.0)
        assert report.served_qps == pytest.approx(2.0)
        assert report.quantile_ms(0.5) == 20.0
        assert report.p99_ms() == 40.0
        assert report.mean_ms() == pytest.approx(25.0)
        assert "p50" in report.render()

    def test_empty_report_validation(self):
        report = LoadReport()
        with pytest.raises(ConfigurationError):
            report.quantile_ms(0.5)
        with pytest.raises(ConfigurationError):
            LoadReport(latencies_ms=[1.0]).quantile_ms(1.0)
        # mean_ms is defined (0.0) on an empty report: overload sweeps
        # reach points where admission sheds everything.
        assert report.mean_ms() == 0.0
        assert not report.starved  # no arrivals yet — idle, not starved
        assert report.offered_qps == 0.0 and report.degraded_rate == 0.0
        assert "no latencies" in report.render()

    def test_starved_run_reports_instead_of_crashing(self):
        # Admission shed every query: arrivals happened, nothing served.
        report = LoadReport(arrivals=50, duration_ms=1000.0)
        for _ in range(50):
            report.observe(
                _page(latency_ms=None, complete=False, leaves_answered=0)
            )
        assert report.starved
        assert report.served_qps == 0.0
        assert report.completed_qps == pytest.approx(50.0)  # failed pages
        assert report.mean_ms() == 0.0
        with pytest.raises(ConfigurationError, match="starved"):
            report.p99_ms()
        assert "STARVED" in report.render()

    def test_run_open_loop_validation(self):
        engine = _mm1_engine(seed=0)
        with pytest.raises(ConfigurationError):
            run_open_loop(engine, [])
        with pytest.raises(ConfigurationError):
            run_open_loop(engine, [5.0, 4.0])


class TestMeasuredTailsConvergeToTheory:
    """The tentpole's differential test: open-loop measured quantiles
    against the closed-form M/M/1 sojourn quantiles, at several offered
    loads.  Sample quantiles of correlated sojourns are noisy (the FIFO
    queue induces long-range correlation, worse as rho grows), so each
    point averages independent replications and the tolerance widens
    with rho.
    """

    @pytest.mark.parametrize(
        "rho,p50_rel,p99_rel",
        [(0.3, 0.05, 0.10), (0.5, 0.05, 0.10), (0.7, 0.08, 0.15)],
    )
    def test_open_loop_quantiles_match_closed_form(self, rho, p50_rel, p99_rel):
        model = QueryLatencyModel(
            base_service_ms=_SERVICE_MS, fanout=1, overhead_ms=0.0
        )
        replications = 4
        reports = [
            _open_loop(rho, num_queries=8_000, seed=11 * replica)
            for replica in range(replications)
        ]
        assert all(report.degraded_rate == 0.0 for report in reports)
        measured_p50 = float(np.mean([r.p50_ms() for r in reports]))
        measured_p99 = float(np.mean([r.p99_ms() for r in reports]))
        assert measured_p50 == pytest.approx(
            model.leaf_quantile_ms(0.5, rho), rel=p50_rel
        )
        assert measured_p99 == pytest.approx(
            model.leaf_quantile_ms(0.99, rho), rel=p99_rel
        )


class TestSaturation:
    """Regression for the headline bugfix: offered load past capacity is
    representable — the engine completes degraded where the closed-form
    model can only raise."""

    def test_closed_form_is_silent_past_saturation(self):
        model = QueryLatencyModel(base_service_ms=_SERVICE_MS, fanout=1)
        with pytest.raises(SaturatedQueueError):
            model.leaf_quantile_ms(0.99, 1.3)

    def test_overload_completes_degraded(self):
        report = _open_loop(1.3, num_queries=3_000, seed=2, max_depth=32)
        assert report.pages == report.arrivals == 3_000
        assert report.failed > 0
        assert report.degraded_rate > 0.1
        # Served throughput plateaus at capacity; offered load exceeds it.
        capacity_qps = 1000.0 / _SERVICE_MS
        assert report.offered_qps > capacity_qps
        assert report.served_qps <= capacity_qps * 1.05
        # Waiting stays bounded by the admission limit: roughly
        # max_depth service times, not the unbounded backlog.
        assert report.p99_ms() < 32 * _SERVICE_MS * 3

    def test_overload_latency_grows_with_offered_load(self):
        p99 = [
            _open_loop(rho, num_queries=2_000, seed=9, max_depth=64).p99_ms()
            for rho in (0.5, 1.2)
        ]
        assert p99[1] > 2 * p99[0]
