"""Figure 7: sensitivity to associativity and cache-block size.

(a) MPKI reduction when every cache is made fully associative: ~7.4% at
    the L1s, under 1% at L2/L3 — conflict misses are minor, which is also
    what justifies the analytic engines' fully-associative approximation.
(b) MPKI vs. block size (32 B – 1 KiB): the 64-byte default captures most
    spatial locality.

Both use the exact set-associative simulation on a reduced trace.
"""

from __future__ import annotations

from repro.cachesim.cache import CacheGeometry
from repro.cachesim.fused import simulate_hierarchy_sweep
from repro.cachesim.hierarchy import HierarchyConfig
from repro.cachesim.missclass import classify_misses
from repro.experiments import common
from repro.experiments.common import ExperimentResult, RunPreset
from repro.hw import catalog
from repro.memtrace.synthetic import generate_trace
from repro.workloads.profiles import get_profile

EXPERIMENT_ID = "fig7"
TITLE = "MPKI sensitivity to associativity and block size"

_BLOCK_SIZES = (32, 64, 128, 256, 512, 1024)  # repro: noqa RPR001 -- byte sweep


def _trace(preset: RunPreset, instructions: int):
    """Reduced S1-leaf trace shared by the panels.

    Panels (a) and (b) replay the same 60k-instruction trace; it is
    generated once and memoized on the preset's
    :class:`~repro.experiments.common.RunCache` (same determinism contract
    as the composed-run memo: the trace is a pure function of the key).
    """
    key = ("fig7", instructions)
    cached = preset.run_cache.traces.get(key)
    if cached is not None:
        return cached
    profile = get_profile("s1-leaf")
    trace = generate_trace(
        profile.memory.scaled(preset.scale), instructions, seed=preset.seed, threads=2
    )
    preset.run_cache.traces[key] = trace
    return trace


def associativity_rows(result: ExperimentResult, preset: RunPreset) -> None:
    """Panel (a): set-associative vs. fully-associative MPKI per level."""
    trace = _trace(preset, 60_000)
    config = common.platform_hierarchy("plt1", preset)
    full = HierarchyConfig(
        l1i=_fully(config.l1i),
        l1d=_fully(config.l1d),
        l2=_fully(config.l2),
        l3=_fully(config.l3),
    )
    # One fused sweep covers both points (bit-identical to two per-point
    # replays; see docs/PERFORMANCE.md).
    base, ideal = simulate_hierarchy_sweep(trace, [config, full])

    for level in ("L1I", "L1D", "L2", "L3"):
        base_misses = base.level(level).total_misses
        ideal_misses = ideal.level(level).total_misses
        decrease = 1.0 - ideal_misses / base_misses if base_misses else 0.0
        result.add(
            series="fig7a-associativity",
            x=level,
            mpki_decrease_pct=round(decrease * 100, 1),
        )


def _fully(level):
    from dataclasses import replace

    geo = level.geometry
    return replace(
        level,
        geometry=CacheGeometry.fully_associative(geo.size, geo.block_size),
    )


def block_size_rows(result: ExperimentResult, preset: RunPreset) -> None:
    """Panel (b): L1-D MPKI across block sizes (capacity held constant).

    Spatial locality (sequential shard runs, scattered heap objects) does
    not scale with the preset, so the cache keeps its real 32 KiB size.
    """
    trace = _trace(preset, 60_000)
    data = trace.data()
    instructions = trace.instruction_count
    l1d = catalog.plt1_simulated().l1d
    for block in _BLOCK_SIZES:
        geometry = CacheGeometry(
            size=l1d.size_bytes, assoc=l1d.assoc, block_size=block
        )
        breakdown = classify_misses(data.lines(block), geometry)
        mpki = breakdown.misses / (instructions / 1000.0)
        result.add(
            series="fig7b-block-size",
            x=block,
            l1d_mpki=round(mpki, 2),
        )


def miss_type_rows(result: ExperimentResult, preset: RunPreset) -> None:
    """The §III-C miss-type claims: shard cold, heap capacity-dominated.

    Needs a longer trace than the other panels: heap *capacity* misses only
    exist once mid-popularity objects have had time to recur — so the
    instruction budget scales with the (scaled) heap pool size.
    """
    from repro.memtrace.trace import Segment

    instructions = int(500_000 * max(1.0, preset.scale * 64))
    trace = _trace(preset, instructions)
    config = common.platform_hierarchy("plt1", preset)
    for segment in (Segment.HEAP, Segment.SHARD):
        lines = trace.only_segment(segment).lines(64)
        breakdown = classify_misses(lines, config.l3.geometry)
        result.add(
            series="miss-types-l3",
            x=segment.name.lower(),
            cold_pct=round(breakdown.fraction("cold") * 100, 1),
            capacity_pct=round(breakdown.fraction("capacity") * 100, 1),
            conflict_pct=round(breakdown.fraction("conflict") * 100, 1),
        )


def run(preset: RunPreset | None = None) -> ExperimentResult:
    """Panels (a), (b) and the miss-type classification."""
    preset = preset or RunPreset.quick()
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    associativity_rows(result, preset)
    block_size_rows(result, preset)
    miss_type_rows(result, preset)
    result.note(
        "paper: full associativity removes ~7.4% of L1 misses and <1% at "
        "L2/L3; shard misses are mostly cold, heap misses mostly capacity."
    )
    return result
