"""Per-query latency model for the serving tree.

The paper evaluates throughput but notes (§IV-B) that it "also evaluated
per-query average and tail latency, and found it remained well within the
margins of our service level objective" after rebalancing.  This model
makes that checkable: leaves are M/M/1 queues whose service rate scales
with per-leaf throughput (cores × IPC), and a query's latency is the
*maximum* over its fan-out — the classic tail-at-scale amplification.

For an M/M/1 queue at utilization ρ with mean service time S, the sojourn
time is exponential with mean S/(1-ρ), so the p-quantile is
``-ln(1-p) · S / (1-ρ)``; a fan-out-N query's p-quantile needs the
per-leaf ``p**(1/N)`` quantile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SaturatedQueueError
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    log_spaced_bounds,
)

#: Outcome-latency buckets: 0.1 ms .. 100 s of simulated time.
_OUTCOME_BOUNDS = log_spaced_bounds(lo=0.1, hi=100_000.0, per_decade=4)


class Utilization(float):
    """A utilization ρ that knows whether the offered load saturated it.

    Behaves as a plain float (clamped to [0, 1]) everywhere a ρ is
    expected, while carrying the overload diagnosis: ``saturated`` is
    True when the raw offered-to-capacity ratio reached 1, and
    ``offered`` preserves that unclamped ratio (1.3 means 30% more load
    than the design can drain).  :meth:`QueryLatencyModel.
    utilization_for_load` returns these instead of raising, so callers
    can *represent* overload — the closed-form quantile helpers are the
    ones that must refuse it (:class:`~repro.errors.SaturatedQueueError`).
    """

    saturated: bool
    offered: float

    def __new__(cls, offered: float) -> "Utilization":
        value = super().__new__(cls, min(float(offered), 1.0))
        value.saturated = offered >= 1.0
        value.offered = float(offered)
        return value


def _check_utilization(utilization: float) -> None:
    """Reject ρ outside [0, 1) for the closed-form helpers.

    Negative or NaN utilization is a configuration mistake; ρ >= 1
    (``inf`` included) is the *saturated regime* and raises the dedicated
    :class:`~repro.errors.SaturatedQueueError` (carrying ρ) so callers
    can distinguish "no stationary tail exists" from "bad argument".
    """
    if not utilization >= 0:
        raise ConfigurationError(
            f"utilization must be >= 0, got {utilization}"
        )
    if utilization >= 1:
        offered = getattr(utilization, "offered", utilization)
        raise SaturatedQueueError(float(offered))


def _check_throughput(relative_throughput: float) -> None:
    """Reject a throughput ratio that is not positive and finite."""
    if not (math.isfinite(relative_throughput) and relative_throughput > 0):
        raise ConfigurationError(
            "relative_throughput must be positive and finite, "
            f"got {relative_throughput}"
        )


@dataclass(frozen=True)
class QueryLatencyModel:
    """Latency of fan-out queries over queueing leaves."""

    #: Mean leaf service time at the baseline design, milliseconds.
    base_service_ms: float = 8.0
    #: Number of leaves a query fans out to.
    fanout: int = 32
    #: Fixed network + aggregation time per query, milliseconds.
    overhead_ms: float = 2.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.base_service_ms) and self.base_service_ms > 0):
            raise ConfigurationError(
                f"base_service_ms must be positive and finite, "
                f"got {self.base_service_ms}"
            )
        if not (math.isfinite(self.overhead_ms) and self.overhead_ms >= 0):
            raise ConfigurationError(
                f"overhead_ms must be finite and >= 0, got {self.overhead_ms}"
            )
        if self.fanout < 1:
            raise ConfigurationError("fanout must be >= 1")

    # ------------------------------------------------------------------

    def service_ms(self, relative_throughput: float = 1.0) -> float:
        """Leaf service time for a design with the given throughput ratio.

        A design serving 1.27x the QPS per leaf (the paper's combined
        design) processes each query 1.27x faster.
        """
        _check_throughput(relative_throughput)
        return self.base_service_ms / relative_throughput

    def leaf_quantile_ms(
        self, p: float, utilization: float, relative_throughput: float = 1.0
    ) -> float:
        """The p-quantile of one leaf's sojourn time at a utilization.

        Raises :class:`~repro.errors.SaturatedQueueError` (carrying ρ)
        at ρ >= 1 — a saturated queue has no stationary quantiles.
        """
        if not 0 < p < 1:
            raise ConfigurationError(f"p must be in (0, 1), got {p}")
        _check_utilization(utilization)
        service = self.service_ms(relative_throughput)
        return -math.log(1.0 - p) * service / (1.0 - utilization)

    def query_quantile_ms(
        self, p: float, utilization: float, relative_throughput: float = 1.0
    ) -> float:
        """The p-quantile of a fan-out query (max over leaves)."""
        per_leaf_p = p ** (1.0 / self.fanout)
        return self.overhead_ms + self.leaf_quantile_ms(
            per_leaf_p, utilization, relative_throughput
        )

    def sample_leaf_ms(
        self,
        rng: np.random.Generator,
        utilization: float = 0.0,
        relative_throughput: float = 1.0,
    ) -> float:
        """Draw one leaf sojourn time from the M/M/1 model.

        This is the stochastic counterpart of :meth:`leaf_quantile_ms` —
        the fault-injection substrate uses it so simulated per-query
        latencies and the analytic tail formulas describe the *same*
        distribution (checkable in tests).  Raises
        :class:`~repro.errors.SaturatedQueueError` at ρ >= 1: the sojourn
        distribution does not exist there (use the event-driven engine to
        *simulate* overload instead).
        """
        _check_utilization(utilization)
        mean = self.service_ms(relative_throughput) / (1.0 - utilization)
        return float(rng.exponential(mean))

    def mean_query_ms(
        self, utilization: float, relative_throughput: float = 1.0
    ) -> float:
        """Expected fan-out query latency (harmonic max of exponentials).

        Raises :class:`~repro.errors.SaturatedQueueError` at ρ >= 1 (the
        mean diverges).
        """
        _check_utilization(utilization)
        service = self.service_ms(relative_throughput) / (1.0 - utilization)
        harmonic = sum(1.0 / k for k in range(1, self.fanout + 1))
        return self.overhead_ms + service * harmonic

    # ------------------------------------------------------------------

    def utilization_for_load(
        self, offered_load: float, relative_throughput: float = 1.0
    ) -> Utilization:
        """Leaf utilization when offering ``offered_load`` (1.0 = the
        baseline design's capacity) to a design with the given throughput.

        Overload is *representable*: at offered load >= capacity the
        returned :class:`Utilization` is clamped to 1.0 with
        ``saturated`` True and ``offered`` preserving the raw ratio —
        no exception.  Only the closed-form quantile helpers refuse a
        saturated ρ (:class:`~repro.errors.SaturatedQueueError`).  A
        ``relative_throughput`` that is not positive and finite raises
        :class:`ConfigurationError`, as in :meth:`service_ms`.
        """
        if not offered_load >= 0:
            raise ConfigurationError(f"offered_load must be >= 0, got {offered_load}")
        _check_throughput(relative_throughput)
        return Utilization(offered_load / relative_throughput)

    def tail_within_slo(
        self,
        slo_ms: float,
        offered_load: float,
        relative_throughput: float = 1.0,
        p: float = 0.99,
    ) -> bool:
        """Does the design keep the p-tail within the SLO at this load?

        A saturated design (offered load >= capacity) has an unbounded
        tail, so the answer is simply False — not an exception.
        """
        utilization = self.utilization_for_load(offered_load, relative_throughput)
        if utilization.saturated:
            return False
        return self.query_quantile_ms(p, utilization, relative_throughput) <= slo_ms


class LatencyAccumulator:
    """Collects per-query outcomes from the robust serving path.

    The front end returns :class:`~repro.search.root.SearchResultPage`
    objects stamped with simulated latency and completeness; feeding them
    through :meth:`observe` yields the serving-behaviour counterparts of
    §IV-B's tail-latency check — availability, degraded-result rate, and
    latency quantiles — comparable against :class:`QueryLatencyModel`'s
    analytic predictions.

    Outcome counters (``complete``/``degraded``/``failed``) are
    registry-backed behind the original attribute names; the exact
    latency list is kept alongside the bucketed registry histogram so
    ``quantile_ms`` stays exact (the histogram's quantiles are
    conservative upper bounds, fine for dashboards, not for asserting
    SLO math).
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        """Create an empty accumulator, optionally registry-published.

        The accumulator owns its counters (one accumulator per serving
        run); with a ``metrics`` registry they appear under
        ``repro.search.outcomes.*`` and the latest run wins the names.
        """
        self.latencies_ms: list[float] = []
        self._complete = Counter(
            "repro.search.outcomes.complete",
            help="Queries answered by every leaf.",
            unit="queries",
        )
        self._degraded = Counter(
            "repro.search.outcomes.degraded",
            help="Queries answered by a strict, non-empty subset of leaves.",
            unit="queries",
        )
        self._failed = Counter(
            "repro.search.outcomes.failed",
            help="Queries that returned no results at all (every leaf lost).",
            unit="queries",
        )
        self._latency = Histogram(
            "repro.search.outcomes.latency_ms",
            help="Simulated per-query latency of the robust serving path.",
            unit="ms",
            bounds=_OUTCOME_BOUNDS,
        )
        if metrics is not None:
            for metric in (
                self._complete,
                self._degraded,
                self._failed,
                self._latency,
            ):
                metrics.register(metric, replace=True)

    @property
    def complete(self) -> int:
        """Queries every leaf answered (registry-backed)."""
        return self._complete.value

    @property
    def degraded(self) -> int:
        """Queries served from an incomplete leaf set (registry-backed)."""
        return self._degraded.value

    @property
    def failed(self) -> int:
        """Queries that returned no results at all (registry-backed)."""
        return self._failed.value

    def observe(self, page) -> None:
        """Record one served page (duck-typed to avoid an import cycle)."""
        latency_ms = 0.0 if page.latency_ms is None else float(page.latency_ms)
        self.latencies_ms.append(latency_ms)
        self._latency.observe(latency_ms)
        if page.complete:
            self._complete.inc()
        elif page.leaves_answered == 0:
            self._failed.inc()
        else:
            self._degraded.inc()

    # ------------------------------------------------------------------

    @property
    def queries(self) -> int:
        return len(self.latencies_ms)

    @property
    def availability(self) -> float:
        """Fraction of queries that returned at least partial results."""
        if not self.queries:
            return 1.0
        return 1.0 - self.failed / self.queries

    @property
    def degraded_rate(self) -> float:
        """Fraction of queries served from an incomplete leaf set."""
        if not self.queries:
            return 0.0
        return (self.degraded + self.failed) / self.queries

    def mean_ms(self) -> float:
        if not self.latencies_ms:
            raise ConfigurationError("no queries observed yet")
        return float(np.mean(self.latencies_ms))

    def quantile_ms(self, p: float) -> float:
        """Empirical p-quantile of observed query latency."""
        if not 0 < p < 1:
            raise ConfigurationError(f"p must be in (0, 1), got {p}")
        if not self.latencies_ms:
            raise ConfigurationError("no queries observed yet")
        ordered = sorted(self.latencies_ms)
        index = min(len(ordered) - 1, math.ceil(p * len(ordered)) - 1)
        return ordered[index]

    def p99_ms(self) -> float:
        return self.quantile_ms(0.99)
