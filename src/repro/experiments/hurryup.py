"""Deadline-aware big/little serving under measured queueing (hurry-up).

Three studies on the event-driven serving core
(:mod:`repro.search.engine`) and its open-loop load harness
(:mod:`repro.search.loadgen`):

* **queueing-model-check** — an open-loop Poisson run against a single
  M/M/1 leaf at ρ = 0.5, faults off: the *measured* p50/p99 (averaged
  over independent replications) agree with the closed-form quantiles
  within 5%.  This is the differential test between the two latency
  worlds — the closed-loop tree samples the formula, the engine
  reproduces it from actual queueing.
* **saturation** — offered load swept through and past capacity
  (ρ = 0.7, 1.0, 1.3).  Past saturation the closed-form model has
  nothing to say (:class:`~repro.errors.SaturatedQueueError`); the
  engine keeps serving: admission control sheds work, completed
  throughput plateaus at capacity, and the run *completes degraded*
  instead of crashing.
* **big-little** — a heterogeneous pool (2 big cores at 2x, 6 little at
  1x) serving a short/long query mix under a soft deadline, FIFO
  baseline versus the "hurry up" policy (arXiv:1912.09844; energy
  framing in arXiv:2303.08396): queries start on efficient little cores
  and migrate — preempting mid-service, carrying remaining work — onto
  big cores exactly when the deadline is at risk.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult, RunPreset
from repro.obs.metrics import MetricsRegistry
from repro.search.engine import (
    CoreSpec,
    EventLoop,
    HeterogeneousPool,
    QueueConfig,
    ServingEngine,
)
from repro.search.faults import FaultInjector, FaultSpec
from repro.search.latency import QueryLatencyModel
from repro.search.loadgen import (
    LoadReport,
    poisson_arrival_times_ms,
    run_open_loop,
)
from repro.search.policies import RetryPolicy, ServingPolicy

EXPERIMENT_ID = "hurryup"
TITLE = "Event-driven serving: measured tails, saturation, big/little hurry-up"

#: Mean leaf service time for the queueing studies, milliseconds.
_SERVICE_MS = 8.0
#: Model-check operating point and replication count.
_MODEL_CHECK_RHO = 0.5
_REPLICATIONS = 4
#: Offered loads for the saturation sweep (1.0 = capacity).
_SATURATION_RHOS = (0.7, 1.0, 1.3)
#: Admission limit keeping the saturated queue bounded.
_MAX_DEPTH = 64
#: Big/little pool shape and workload mix.
_BIG = CoreSpec(count=2, speed=2.0)
_LITTLE = CoreSpec(count=6, speed=1.0)
_SHORT_MEAN_MS = 4.0
_LONG_MEAN_MS = 40.0
_LONG_FRACTION = 0.2
_POOL_DEADLINE_MS = 60.0
_POOL_QPS = (300.0, 500.0, 700.0)


def _engine(
    seed: int, metrics: MetricsRegistry | None = None, max_depth: int | None = None
) -> ServingEngine:
    """A single-leaf, fault-free engine (pure M/M/1 queueing)."""
    model = QueryLatencyModel(base_service_ms=_SERVICE_MS, fanout=1, overhead_ms=0.0)
    injector = FaultInjector(FaultSpec(utilization=0.0), model=model, seed=seed)
    return ServingEngine(
        num_leaves=1,
        injector=injector,
        policy=ServingPolicy(retry=RetryPolicy(max_attempts=1), overhead_ms=0.0),
        queue=QueueConfig(max_depth=max_depth),
        metrics=metrics,
    )


def _open_loop(
    rho: float,
    num_queries: int,
    seed: int,
    metrics: MetricsRegistry | None = None,
    max_depth: int | None = None,
) -> LoadReport:
    """One open-loop Poisson run at offered load ``rho``."""
    qps = 1000.0 * rho / _SERVICE_MS
    engine = _engine(seed, metrics=metrics, max_depth=max_depth)
    arrival_times_ms = poisson_arrival_times_ms(qps, num_queries, seed=seed + 100)
    return run_open_loop(engine, arrival_times_ms)


def model_check_rows(
    result: ExperimentResult, preset: RunPreset, metrics: MetricsRegistry
) -> None:
    """Measured open-loop quantiles vs the closed-form M/M/1 formulas."""
    model = QueryLatencyModel(base_service_ms=_SERVICE_MS, fanout=1, overhead_ms=0.0)
    num_queries = max(10_000, int(640_000 * preset.scale))
    reports = [
        _open_loop(
            _MODEL_CHECK_RHO,
            num_queries,
            seed=preset.seed + replica,
            metrics=metrics if replica == 0 else None,
        )
        for replica in range(_REPLICATIONS)
    ]
    measured = {
        p: float(np.mean([report.quantile_ms(p) for report in reports]))
        for p in (0.5, 0.99)
    }
    analytic = {p: model.leaf_quantile_ms(p, _MODEL_CHECK_RHO) for p in (0.5, 0.99)}
    result.add(
        series="queueing-model-check",
        source="analytic M/M/1",
        p50_ms=round(analytic[0.5], 2),
        p99_ms=round(analytic[0.99], 2),
    )
    result.add(
        series="queueing-model-check",
        source="event-driven engine",
        p50_ms=round(measured[0.5], 2),
        p99_ms=round(measured[0.99], 2),
        p50_err_pct=round(
            100 * abs(measured[0.5] - analytic[0.5]) / analytic[0.5], 1
        ),
        p99_err_pct=round(
            100 * abs(measured[0.99] - analytic[0.99]) / analytic[0.99], 1
        ),
    )
    result.note(
        f"queueing-model-check: {_REPLICATIONS} x {num_queries} open-loop "
        f"Poisson queries at rho={_MODEL_CHECK_RHO:g}; measured quantiles are "
        "emergent waiting, not sampled formulas — agreement within 5% is the "
        "differential test between the two latency paths."
    )


def saturation_rows(
    result: ExperimentResult, preset: RunPreset, metrics: MetricsRegistry
) -> None:
    """Offered load through and past capacity; overload degrades, not dies."""
    num_queries = max(4_000, int(256_000 * preset.scale))
    for rho in _SATURATION_RHOS:
        report = _open_loop(
            rho,
            num_queries,
            seed=preset.seed,
            metrics=metrics if rho == _SATURATION_RHOS[-1] else None,
            max_depth=_MAX_DEPTH,
        )
        result.add(
            series="saturation",
            x=rho,
            offered_qps=round(report.offered_qps, 1),
            served_qps=round(report.served_qps, 1),
            served_rate=round(1.0 - report.degraded_rate, 4),
            p50_ms=round(report.p50_ms(), 1),
            p99_ms=round(report.p99_ms(), 1),
            p999_ms=round(report.p999_ms(), 1),
        )
    result.note(
        f"saturation: past rho=1 the admission limit ({_MAX_DEPTH} deep) "
        "sheds the excess — served throughput plateaus at capacity "
        f"({1000.0 / _SERVICE_MS:.0f} qps), waiting is bounded by the "
        "queue, and the run completes degraded where the closed-form "
        "model can only raise SaturatedQueueError."
    )


def _pool_run(
    policy: str, qps: float, num_jobs: int, seed: int
) -> HeterogeneousPool:
    """One big/little pool run over a seeded short/long job mix."""
    rng = np.random.default_rng(seed)
    is_short = rng.uniform(size=num_jobs) >= _LONG_FRACTION
    demands_ms = np.where(
        is_short,
        rng.exponential(_SHORT_MEAN_MS, num_jobs),
        rng.exponential(_LONG_MEAN_MS, num_jobs),
    )
    arrival_times_ms = poisson_arrival_times_ms(qps, num_jobs, seed=seed + 1)
    pool = HeterogeneousPool(
        EventLoop(), big=_BIG, little=_LITTLE, policy=policy
    )
    for arrival_ms, demand_ms in zip(arrival_times_ms, demands_ms):
        pool.submit_at(
            arrival_ms,
            max(float(demand_ms), 0.05),
            deadline_ms=_POOL_DEADLINE_MS,
        )
    pool.run()
    return pool


def big_little_rows(result: ExperimentResult, preset: RunPreset) -> None:
    """FIFO baseline vs hurry-up migration across a load sweep."""
    num_jobs = max(3_000, int(200_000 * preset.scale))
    for qps in _POOL_QPS:
        for policy in ("fifo", "hurryup"):
            pool = _pool_run(policy, qps, num_jobs, seed=preset.seed)
            stats = pool.stats
            result.add(
                series="big-little",
                x=qps,
                policy=policy,
                miss_rate=round(stats.miss_rate, 4),
                p50_ms=round(stats.quantile_ms(0.5), 1),
                p99_ms=round(stats.quantile_ms(0.99), 1),
                migrations=stats.migrations,
                preemptions=stats.preemptions,
            )
    result.note(
        f"big-little: {_BIG.count} big cores at {_BIG.speed:g}x and "
        f"{_LITTLE.count} little at {_LITTLE.speed:g}x, "
        f"{_LONG_FRACTION:.0%} long queries, soft {_POOL_DEADLINE_MS:g} ms "
        "deadline.  Hurry-up keeps everything on efficient cores until the "
        "deadline is at risk, then migrates with the remaining work — fewer "
        "misses than FIFO for the same hardware."
    )


def run(preset: RunPreset | None = None) -> ExperimentResult:
    """All event-driven serving studies."""
    preset = preset or RunPreset.quick()
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    metrics = MetricsRegistry()
    model_check_rows(result, preset, metrics)
    saturation_rows(result, preset, metrics)
    big_little_rows(result, preset)
    result.attach_metrics(metrics)
    return result
