"""Open-loop load generation for the event-driven serving engine.

The sampled serving path (:meth:`~repro.search.root.RootServer.search`)
is *closed-loop*: the simulated client waits for each page before
issuing the next query, so the system can never be offered more load
than it drains — overload is structurally invisible, which is exactly
the blind spot coordinated omission describes.  This module generates
**open-loop** arrivals: the Poisson schedule is fixed up front, queries
arrive whether or not their predecessors finished, queues grow when the
servers fall behind, and the measured p50/p99/p999 include every
millisecond a query spent waiting.

Usage::

    engine = ServingEngine(num_leaves=1, policy=ServingPolicy(overhead_ms=0.0))
    arrivals = poisson_arrival_times_ms(qps=62.5, count=20_000, seed=7)
    report = run_open_loop(engine, arrivals)
    print(report.render())

At offered loads past saturation the engine (with an admission limit)
sheds work and serves degraded pages; the report keeps counting — a
ρ > 1 run *completes*, it does not crash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.search.engine import ServingEngine
from repro.search.root import SearchResultPage


def poisson_arrival_times_ms(
    qps: float, count: int, seed: int = 0, start_ms: float = 0.0
) -> list[float]:
    """Arrival times of a Poisson process at ``qps`` queries per second.

    Inter-arrival gaps are i.i.d. exponential with mean ``1000 / qps``
    milliseconds, drawn from a generator seeded with ``seed`` — the
    schedule is a pure function of ``(qps, count, seed, start_ms)``.

    Units: the returned times (and ``start_ms``) are milliseconds of
    simulated time.
    """
    if not (math.isfinite(qps) and qps > 0):
        raise ConfigurationError(f"qps must be positive and finite, got {qps}")
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    if not (math.isfinite(start_ms) and start_ms >= 0):
        raise ConfigurationError(f"start_ms must be finite and >= 0, got {start_ms}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1000.0 / qps, size=count)
    return [float(t) for t in (start_ms + np.cumsum(gaps))]


@dataclass
class LoadReport:
    """Measured outcome of one open-loop run.

    Latency quantiles are *exact* (computed from the per-query list, not
    the bucketed registry histograms), so they are safe to assert
    against closed-form queueing math.  ``offered_qps`` is derived from
    the arrival schedule; ``completed_qps`` from completions — the gap
    between them is the saturation signal.
    """

    arrivals: int = 0
    complete: int = 0
    degraded: int = 0
    failed: int = 0
    duration_ms: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)

    def observe(self, page: SearchResultPage) -> None:
        """Fold one finished page into the report."""
        if page.latency_ms is not None:
            self.latencies_ms.append(float(page.latency_ms))
        if page.complete:
            self.complete += 1
        elif page.leaves_answered == 0:
            self.failed += 1
        else:
            self.degraded += 1

    # ------------------------------------------------------------------

    @property
    def pages(self) -> int:
        """Pages served (complete, degraded, and failed alike)."""
        return self.complete + self.degraded + self.failed

    @property
    def degraded_rate(self) -> float:
        """Fraction of pages missing at least one leaf's results."""
        return (self.degraded + self.failed) / self.pages if self.pages else 0.0

    @property
    def offered_qps(self) -> float:
        """Arrival rate implied by the schedule."""
        if self.duration_ms <= 0:
            return 0.0
        return self.arrivals / (self.duration_ms / 1000.0)

    @property
    def completed_qps(self) -> float:
        """Completion rate actually sustained."""
        if self.duration_ms <= 0:
            return 0.0
        return self.pages / (self.duration_ms / 1000.0)

    @property
    def served_qps(self) -> float:
        """Rate of pages that carried results (failed pages excluded).

        Under overload this plateaus at the system's capacity while
        :attr:`offered_qps` keeps climbing — the saturation signature.
        Deep past saturation it legitimately reaches 0.0 (admission shed
        everything); check :attr:`starved` to tell that apart from a run
        that has not started.
        """
        if self.duration_ms <= 0:
            return 0.0
        return (self.complete + self.degraded) / (self.duration_ms / 1000.0)

    @property
    def starved(self) -> bool:
        """True when queries arrived but none produced results.

        The deep-saturation outcome: admission control shed (or every
        leaf failed) every single query, so there are no served pages
        and no latency samples.  A starved run is a legitimate sweep
        point — ``served_qps`` is 0.0 and ``mean_ms`` reports 0.0 —
        not a crash; only the latency *quantiles* stay undefined.
        """
        return self.arrivals > 0 and self.complete + self.degraded == 0

    def mean_ms(self) -> float:
        """Mean measured query latency (0.0 when no query finished).

        Returning 0.0 rather than raising keeps overload sweeps alive at
        their deepest points, where admission sheds everything and there
        are no samples to average (see :attr:`starved`).
        """
        if not self.latencies_ms:
            return 0.0
        return float(np.mean(self.latencies_ms))

    def quantile_ms(self, p: float) -> float:
        """Exact empirical p-quantile of measured query latency.

        Unlike ``mean_ms`` this keeps the typed error when nothing was
        measured: a fabricated tail quantile is worse than no number.
        """
        if not 0 < p < 1:
            raise ConfigurationError(f"p must be in (0, 1), got {p}")
        if not self.latencies_ms:
            raise ConfigurationError(
                "no latencies measured (starved run?); quantiles are "
                "undefined without samples"
            )
        ordered = sorted(self.latencies_ms)
        index = min(len(ordered) - 1, math.ceil(p * len(ordered)) - 1)
        return ordered[index]

    def p50_ms(self) -> float:
        """Measured median latency."""
        return self.quantile_ms(0.50)

    def p99_ms(self) -> float:
        """Measured 99th-percentile latency."""
        return self.quantile_ms(0.99)

    def p999_ms(self) -> float:
        """Measured 99.9th-percentile latency."""
        return self.quantile_ms(0.999)

    def render(self) -> str:
        """One human-readable summary line."""
        quantiles = (
            f"p50 {self.p50_ms():.2f} ms, p99 {self.p99_ms():.2f} ms, "
            f"p999 {self.p999_ms():.2f} ms"
            if self.latencies_ms
            else ("STARVED: no latencies" if self.starved else "no latencies")
        )
        return (
            f"{self.arrivals} arrivals at {self.offered_qps:.0f} qps -> "
            f"{self.pages} pages ({self.completed_qps:.0f} qps, "
            f"{self.degraded_rate:.1%} degraded); {quantiles}"
        )


def run_open_loop(
    engine: ServingEngine,
    arrival_times_ms: Sequence[float],
    queries: Sequence[Sequence[int]] | None = None,
    top_k: int = 10,
    deadline_ms: float | None = None,
) -> LoadReport:
    """Drive one engine through an open-loop arrival schedule.

    ``queries`` supplies per-arrival term lists (cycled when shorter
    than the schedule); None sends contentless queries — the right
    choice for pure queueing studies on an engine built without leaves.
    Query keys are the arrival sequence numbers, so the run consumes
    exactly the keyed fault/latency draws a closed-loop replay would.

    Units: ``arrival_times_ms`` are absolute simulated times (sorted
    ascending); ``deadline_ms`` is each query's relative budget.
    """
    if not len(arrival_times_ms):
        raise ConfigurationError("need at least one arrival")
    report = LoadReport()
    engine.on_done(report.observe)
    previous_ms = -math.inf
    for index, arrival_ms in enumerate(arrival_times_ms):
        if arrival_ms < previous_ms:
            raise ConfigurationError(
                "arrival times must be sorted ascending; "
                f"{arrival_ms} follows {previous_ms}"
            )
        previous_ms = arrival_ms
        terms: Sequence[int] = ()
        if queries is not None and len(queries):
            terms = queries[index % len(queries)]
        engine.submit_at(
            arrival_ms,
            terms=terms,
            top_k=top_k,
            deadline_ms=deadline_ms,
        )
    report.arrivals = len(arrival_times_ms)
    engine.run()
    report.duration_ms = engine.loop.clock.now_ms - float(arrival_times_ms[0])
    return report
