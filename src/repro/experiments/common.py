"""Shared infrastructure for the experiment drivers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cachesim.composed import ComposedHierarchy
from repro.cachesim.hierarchy import HierarchyConfig
from repro.errors import ConfigurationError
from repro.memtrace.synthetic import generate_segment_streams
from repro.memtrace.trace import Segment
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.workloads.profiles import WorkloadProfile, get_profile

if TYPE_CHECKING:
    from repro.hw.adapters import DerivedModels


class RunCache:
    """Memoized composed runs, carried by one :class:`RunPreset` instance.

    Sharing follows the preset *object*: the runner hands a single preset
    to every experiment of a campaign, so Table I and Figures 3/6/13/14
    keep sharing the S1-leaf run, while a different preset instance — or
    a spawned pool worker, since the cache pickles empty — starts fresh.
    Keeping the memo off module-level state is what preserves the
    parallel runner's serial-vs-parallel byte-equality contract
    (analysis rule RPR701).
    """

    def __init__(self) -> None:
        self.runs: dict[tuple, ComposedHierarchy] = {}
        self.traces: dict[tuple, object] = {}

    def clear(self) -> None:
        """Drop every memoized run (tests use this to control memory)."""
        self.runs.clear()
        self.traces.clear()

    def __len__(self) -> int:
        return len(self.runs)

    # Composed runs hold hundreds of MiB of streams and must never cross
    # a process boundary: workers rebuild from the preset alone.
    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state: dict) -> None:
        del state
        self.runs = {}
        self.traces = {}


@dataclass(frozen=True)
class RunPreset:
    """Stream sizes and scale for one experiment campaign.

    ``scale`` divides every segment size *and* every cache capacity, so the
    shapes of miss curves are preserved while runs stay laptop-sized; event
    counts size each segment stream for its own working-set coverage.
    """

    name: str
    scale: float
    code_events: int
    heap_events: int
    shard_events: int
    stack_events: int
    threads: int = 16
    seed: int = 7
    #: Instruction budget for branch-predictor simulations.
    branch_instructions: int = 800_000
    #: Per-preset composed-run memo; excluded from equality/hash/repr and
    #: rebuilt fresh by ``dataclasses.replace`` and unpickling, so caches
    #: never alias across campaigns or processes.
    run_cache: RunCache = field(
        default_factory=RunCache, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1:
            raise ConfigurationError(f"scale must be in (0, 1], got {self.scale}")
        for name in ("code_events", "heap_events", "shard_events", "stack_events"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def quick(cls) -> "RunPreset":
        """Small preset for tests and smoke runs (seconds)."""
        return cls(
            name="quick",
            scale=1 / 64,
            code_events=250_000,
            heap_events=1_200_000,
            shard_events=700_000,
            stack_events=60_000,
        )

    @classmethod
    def standard(cls) -> "RunPreset":
        """The preset behind the numbers in EXPERIMENTS.md (minutes)."""
        return cls(
            name="standard",
            scale=1 / 16,
            code_events=1_500_000,
            heap_events=8_000_000,
            shard_events=5_000_000,
            stack_events=150_000,
            branch_instructions=3_000_000,
        )


@dataclass
class ExperimentResult:
    """Structured output of one experiment."""

    experiment_id: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Point-in-time metrics of the run (``--metrics-out`` serializes it).
    metrics: MetricsSnapshot | None = None
    #: Host wall time of the run in seconds, set by the runner.  Kept out
    #: of :meth:`render` and the metrics snapshot on purpose: timing is
    #: nondeterministic, and serial vs. parallel runs must stay
    #: byte-identical.
    duration_s: float | None = None

    def add(self, **row: object) -> None:
        """Append one result row."""
        self.rows.append(row)

    def note(self, text: str) -> None:
        """Attach a free-form note (assumption, calibration remark)."""
        self.notes.append(text)

    def attach_metrics(
        self, source: MetricsRegistry | MetricsSnapshot
    ) -> None:
        """Attach the run's metrics (snapshotting a registry if given)."""
        if isinstance(source, MetricsRegistry):
            source = source.snapshot()
        self.metrics = source

    def column_names(self) -> list[str]:
        names: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in names:
                    names.append(key)
        return names

    def render(self) -> str:
        """Fixed-width text table with notes, for reports and examples."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            columns = self.column_names()
            formatted = [
                {name: _format_cell(row.get(name, "")) for name in columns}
                for row in self.rows
            ]
            widths = {
                name: max(len(name), *(len(row[name]) for row in formatted))
                for name in columns
            }
            lines.append("  ".join(name.ljust(widths[name]) for name in columns))
            for row in formatted:
                lines.append(
                    "  ".join(row[name].rjust(widths[name]) for name in columns)
                )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def wall_clock() -> float:
    """Host wall seconds for runner progress/wall-time gauges.

    The experiment drivers sit outside the deterministic simulation scope;
    this is the one sanctioned clock for them, and it must never feed a
    simulated result — only ``ExperimentResult.duration_s`` and the
    ``repro.experiments.wall_time_ms`` gauge.
    """
    return time.perf_counter()  # repro: noqa RPR102 -- runner profiling only


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


# ----------------------------------------------------------------------
# Memoized composed runs
# ----------------------------------------------------------------------


def paper_models() -> DerivedModels:
    """Model views of the paper's §IV proposed design, derived from data.

    Returns the :class:`~repro.hw.adapters.DerivedModels` bundle of
    :func:`repro.hw.catalog.proposed` — area/power/latency/perf models
    plus the L4 configuration — which the figure experiments consume in
    place of hand-coded ``AreaModel()``/``PowerModel()``/... objects.
    The differential battery in ``tests/experiments/test_spec_golden.py``
    proves this path byte-identical to the hand-coded one.
    """
    from repro.hw.adapters import derive_models
    from repro.hw.catalog import proposed

    return derive_models(proposed())


def platform_hierarchy(platform: str, preset: RunPreset) -> HierarchyConfig:
    """The scaled cache hierarchy of a named platform.

    ``"plt1"`` is the §III-A *simulated* configuration (40 MiB L3), not
    the Table II lab machine; ``"plt2"`` is the Table II POWER8 system.
    Both are derived from the declarative specs in
    :mod:`repro.hw.catalog`.
    """
    from repro.hw import catalog
    from repro.hw.adapters import hierarchy_config

    if platform == "plt1":
        spec = catalog.plt1_simulated()
    elif platform == "plt2":
        spec = catalog.plt2()
    else:
        raise ConfigurationError(f"unknown platform {platform!r}")
    return hierarchy_config(spec).scaled(preset.scale)


def composed_run(
    profile: str | WorkloadProfile = "s1-leaf",
    preset: RunPreset | None = None,
    platform: str = "plt1",
    threads: int | None = None,
) -> ComposedHierarchy:
    """Build (and memoize) the composed hierarchy run for one profile.

    Several experiments share the same underlying run (Table I, Figures 3,
    6, 13, 14 all start from the S1-leaf streams), so runs are cached on
    the preset's :class:`RunCache` per (profile, platform, threads); the
    remaining knobs are fields of the preset itself.
    """
    preset = preset or RunPreset.quick()
    if isinstance(profile, str):
        profile = get_profile(profile)
    threads = threads if threads is not None else preset.threads
    cached_runs = preset.run_cache.runs
    key = (profile.name, platform, threads)
    if key in cached_runs:
        return cached_runs[key]

    config = platform_hierarchy(platform, preset)
    block_size = config.l1i.geometry.block_size
    streams = generate_segment_streams(
        profile.memory.scaled(preset.scale),
        {
            Segment.CODE: preset.code_events,
            Segment.HEAP: preset.heap_events,
            Segment.SHARD: preset.shard_events,
            Segment.STACK: preset.stack_events,
        },
        seed=preset.seed,
        block_size=block_size,
    )
    run = ComposedHierarchy(
        streams,
        profile.rates,
        config,
        threads=threads,
    )
    cached_runs[key] = run
    return run


def discard_run(
    profile: str | WorkloadProfile,
    preset: RunPreset,
    platform: str = "plt1",
    threads: int | None = None,
) -> None:
    """Evict one memoized run from the preset's cache.

    Table I iterates all thirteen profiles; at the standard preset each
    composed run holds hundreds of MiB of streams, so runs that no other
    experiment shares are dropped as soon as they are measured.
    """
    name = profile if isinstance(profile, str) else profile.name
    threads = threads if threads is not None else preset.threads
    preset.run_cache.runs.pop((name, platform, threads), None)
