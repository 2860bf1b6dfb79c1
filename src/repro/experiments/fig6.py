"""Figure 6: cache misses and hit-rate curves by access type.

(a) MPKI at L1/L2/L3 broken down by code/heap/shard (the shared L3 wipes
    out instruction misses; heap and shard still miss);
(b) working-set hit-rate curve vs. L3 capacity, 4 MiB – 2 GiB;
(c) the same sweep as MPKI.

All three come from one composed S1-leaf run; capacities are paper-scale
and divided by the preset's scale internally.
"""

from __future__ import annotations

from repro._units import MiB
from repro.experiments.common import ExperimentResult, RunPreset, composed_run
from repro.memtrace.trace import Segment
from repro.obs.metrics import MetricsRegistry

EXPERIMENT_ID = "fig6"
TITLE = "Cache misses and L3 capacity sweeps by access type"

SWEEP_MIB = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
_SEGMENTS = (Segment.CODE, Segment.HEAP, Segment.SHARD)


def run(preset: RunPreset | None = None) -> ExperimentResult:
    """Panels (a), (b), (c) of Figure 6."""
    preset = preset or RunPreset.quick()
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    run_ = composed_run("s1-leaf", preset, platform="plt1")

    # Panel (a): per-level MPKI by segment at the PLT1-like hierarchy.
    for level in ("L1I", "L1D", "L2", "L3"):
        result.add(
            series="fig6a-level-mpki",
            x=level,
            code=round(run_.mpki(level, Segment.CODE), 2),
            heap=round(run_.mpki(level, Segment.HEAP), 2),
            shard=round(run_.mpki(level, Segment.SHARD), 2),
            stack=round(run_.mpki(level, Segment.STACK), 2),
        )

    # Panels (b) and (c): capacity sweep in paper-equivalent MiB.  Every
    # sweep capacity's window is solved in one lockstep batch up front —
    # bit-identical to the per-point solves the loop below would otherwise
    # trigger (docs/PERFORMANCE.md).
    run_.solve_l3_sweep([max(1, int(m * MiB * preset.scale)) for m in SWEEP_MIB])
    for paper_mib in SWEEP_MIB:
        capacity = max(1, int(paper_mib * MiB * preset.scale))
        hits = {
            seg.name.lower(): round(run_.l3_hit_rate(capacity, seg), 3)
            for seg in _SEGMENTS
        }
        result.add(
            series="fig6b-hit-rate",
            x=paper_mib,
            combined=round(run_.l3_hit_rate(capacity), 3),
            **hits,
        )
        mpkis = {
            seg.name.lower(): round(run_.l3_mpki(capacity, seg), 2)
            for seg in _SEGMENTS
        }
        result.add(
            series="fig6c-mpki",
            x=paper_mib,
            combined=round(run_.l3_mpki(capacity), 2),
            **mpkis,
        )

    # The paper's headline checkpoints.
    cap16 = max(1, int(16 * MiB * preset.scale))
    cap32 = max(1, int(32 * MiB * preset.scale))
    cap1g = max(1, int(1024 * MiB * preset.scale))
    result.note(
        f"code hit rate at 16 MiB: {run_.l3_hit_rate(cap16, Segment.CODE):.1%} "
        "(paper: a 16 MiB L3 eliminates code misses)"
    )
    result.note(
        f"heap hit rate at 1 GiB: {run_.l3_hit_rate(cap1g, Segment.HEAP):.1%} "
        "(paper: ~95%)"
    )
    result.note(
        f"combined MPKI 32 MiB -> 1 GiB: {run_.l3_mpki(cap32):.2f} -> "
        f"{run_.l3_mpki(cap1g):.2f} (paper: 3.51 -> 1.37)"
    )

    # On-demand metrics: per-level behaviour plus the paper's checkpoint
    # capacities (recorded after the sweeps — the hot loops stay clean).
    registry = MetricsRegistry()
    run_.record_metrics(registry)
    checkpoint = registry.gauge(
        "repro.mem.cache.l3.checkpoint_hit_rate",
        help="L3 hit rate at the paper's headline capacities.",
        unit="fraction",
    )
    checkpoint.labels(capacity="16mib", segment="code").set(
        run_.l3_hit_rate(cap16, Segment.CODE)
    )
    checkpoint.labels(capacity="1gib", segment="heap").set(
        run_.l3_hit_rate(cap1g, Segment.HEAP)
    )
    result.attach_metrics(registry)
    return result
