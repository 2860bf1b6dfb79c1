"""Parallel experiment runner: fan modules out to a process pool.

The experiment modules are independent by contract — each ``run(preset)``
is a pure function of the preset (seeded RNGs, no shared mutable state
that outlives a run) — which makes the campaign embarrassingly parallel.
This module exploits that: :func:`run_report` executes the selected
modules across ``jobs`` worker processes, ships each
:class:`~repro.experiments.common.ExperimentResult` (rows, notes, metrics
snapshot) back over pickle, and reassembles everything in **canonical
experiment order**, so rendered tables and the ``--metrics-out`` JSON are
byte-identical to a serial run regardless of completion order.

Three pieces of run-level telemetry ride along, merged across processes
with :meth:`~repro.obs.metrics.MetricsSnapshot.merge_all`:

* ``repro.experiments.wall_time_ms`` — a gauge with one labeled child
  per experiment (host wall time, workers' clocks);
* ``repro.cache.*`` — the artifact-cache counters of every worker, when
  ``cache_dir`` enables the content-addressed trace cache
  (:mod:`repro.memtrace.cache`);
* ``repro.fastsim.*`` — the vectorized-kernel counters of every worker
  (:mod:`repro.cachesim.fastsim`), which would otherwise die with the
  worker process.

All are deliberately kept *out* of the per-experiment snapshots that
``--metrics-out`` serializes: wall time and cache traffic vary run to
run, and the determinism contract of the output document matters more.

Workers are started with the ``spawn`` method so each begins from a
clean import of :mod:`repro` — no inherited memoization, which is what
the cache-key-stability tests rely on.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentResult, RunPreset, wall_clock
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot


@dataclass
class RunReport:
    """Everything one experiment campaign produced.

    ``results`` is in canonical experiment order (the order of
    ``runner.ALL_MODULES``), independent of scheduling;  ``run_metrics``
    holds the merged run-level telemetry described in the module
    docstring.
    """

    results: list[ExperimentResult] = field(default_factory=list)
    run_metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot.empty)

    def cache_stats(self) -> dict[str, int]:
        """Total artifact-cache hits/misses/traffic of the whole run."""
        stats = {}
        for short, name in (
            ("hits", "repro.cache.hits"),
            ("misses", "repro.cache.misses"),
            ("bytes_read", "repro.cache.bytes_read"),
            ("bytes_written", "repro.cache.bytes_written"),
        ):
            stats[short] = int(
                self.run_metrics.value(name) if name in self.run_metrics else 0
            )
        return stats


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _activate_worker_cache(cache_dir: str | None) -> None:
    """Process-pool initializer: open this worker's artifact cache."""
    if cache_dir is not None:
        from repro.memtrace import cache as cache_mod

        cache_mod.activate(cache_mod.ArtifactCache(cache_dir))


def _fallback_metrics(result: ExperimentResult, preset: RunPreset) -> None:
    """Attach a minimal run-shape snapshot to an uninstrumented result.

    Every experiment emitted via ``--metrics-out`` carries *some*
    snapshot; experiments that drive instrumented components (the
    serving tree, the composed hierarchy) attach richer ones themselves.
    """
    registry = MetricsRegistry()
    registry.gauge(
        "repro.experiments.rows",
        help="Result rows the experiment produced.",
        unit="rows",
    ).set(len(result.rows))
    registry.gauge(
        "repro.experiments.notes",
        help="Free-form notes attached to the result.",
        unit="notes",
    ).set(len(result.notes))
    registry.gauge(
        "repro.experiments.preset_scale",
        help="Scale divisor of the preset the experiment ran under.",
        unit="fraction",
    ).set(preset.scale)
    result.attach_metrics(registry)


def _run_task(
    experiment_id: str, preset: RunPreset
) -> tuple[ExperimentResult, MetricsSnapshot]:
    """Run one experiment; return its result plus run-level telemetry.

    The telemetry snapshot carries this task's wall-time gauge child and
    the *deltas* of the worker's cache and fastsim counters (workers are
    reused across tasks, so absolute counters would double-count when
    merged).
    """
    from repro.cachesim import fastsim
    from repro.experiments.runner import select_modules
    from repro.memtrace import cache as cache_mod

    (module,) = select_modules([experiment_id])
    cache = cache_mod.active_cache()
    cache_before = (
        cache.metrics.snapshot("repro.cache") if cache is not None else None
    )
    fastsim_before = fastsim.counters_snapshot()

    start = wall_clock()
    result = module.run(preset)
    duration_s = wall_clock() - start

    if result.metrics is None:
        _fallback_metrics(result, preset)
    result.duration_s = duration_s

    telemetry = MetricsRegistry()
    telemetry.gauge(
        "repro.experiments.wall_time_ms",
        help="Host wall time of each experiment module's run().",
        unit="ms",
    ).labels(experiment=experiment_id).set(duration_s * 1000.0)
    fastsim.record_metrics(telemetry, since=fastsim_before)
    snapshot = telemetry.snapshot()
    if cache is not None:
        snapshot = snapshot.merge(
            cache.metrics.snapshot("repro.cache").delta(cache_before)
        )
    return result, snapshot


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------


def run_report(
    preset: RunPreset | None = None,
    only: list[str] | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
) -> RunReport:
    """Run the selected experiments, serially or across a process pool.

    ``jobs=1`` runs in-process (the serial reference); ``jobs>1`` fans
    out to that many workers.  Either way the returned results — and
    therefore rendered tables and metrics JSON — are identical.  With
    ``cache_dir`` set, every process (this one included) generates
    synthetic traces through a shared on-disk
    :class:`~repro.memtrace.cache.ArtifactCache`.
    """
    from repro.experiments.runner import select_modules
    from repro.memtrace import cache as cache_mod

    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    preset = preset or RunPreset.quick()
    modules = select_modules(only)
    ids = [module.EXPERIMENT_ID for module in modules]
    cache_dir = str(cache_dir) if cache_dir is not None else None
    if cache_dir is not None:
        # Construct eagerly so a bad directory fails here, not in a worker.
        parent_cache = cache_mod.ArtifactCache(cache_dir)

    outcomes: dict[str, tuple[ExperimentResult, MetricsSnapshot]] = {}
    if jobs == 1 or len(ids) <= 1:
        previous = cache_mod.activate(parent_cache) if cache_dir is not None else None
        try:
            for experiment_id in ids:
                outcomes[experiment_id] = _run_task(experiment_id, preset)
        finally:
            if cache_dir is not None:
                cache_mod.activate(previous)
    else:
        # ``spawn``: workers re-import repro from scratch, sharing nothing
        # with the parent but the on-disk cache.
        context = get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(ids)),
            mp_context=context,
            initializer=_activate_worker_cache,
            initargs=(cache_dir,),
        ) as pool:
            futures = {
                pool.submit(_run_task, experiment_id, preset): experiment_id
                for experiment_id in ids
            }
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    outcomes[futures[future]] = future.result()

    results = [outcomes[experiment_id][0] for experiment_id in ids]
    run_metrics = MetricsSnapshot.merge_all(
        outcomes[experiment_id][1] for experiment_id in ids
    )
    return RunReport(results=results, run_metrics=run_metrics)
