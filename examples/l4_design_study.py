#!/usr/bin/env python
"""Design-space study of the on-package L4 cache (§IV-C).

Sweeps L4 capacity, hit latency, and organization over the rebalanced
design's L3 miss stream, answering the questions the paper's Figure 14
answers — plus a latency-sensitivity sweep the paper only alludes to:
how fast does the eDRAM have to be for the L4 to pay off at all?
"""

from dataclasses import replace

from repro._units import MiB, format_size
from repro.core.hitcurve import LogLinearHitCurve
from repro.core.l4cache import L4Cache
from repro.experiments import RunPreset, composed_run
from repro.experiments.common import paper_models
from repro.memtrace.trace import Segment

DESIGN_L3_MIB = 23
DESIGN_CORES = 23
BASELINE_CORES = 18
BASELINE_L3_MIB = 45


def main() -> None:
    preset = RunPreset.quick()
    run = composed_run("s1-leaf", preset, platform="plt1")
    l3_capacity = max(64, int(DESIGN_L3_MIB * MiB * preset.scale))
    lines, segments = run.l4_demand(l3_capacity, seed=preset.seed)
    print(f"L4 demand stream: {len(lines)} L3-miss accesses\n")

    curve = LogLinearHitCurve.fig10_effective()
    h3_design = curve(DESIGN_L3_MIB * MiB)
    h3_base = curve(BASELINE_L3_MIB * MiB)
    models = paper_models()
    model = models.perf
    qps_baseline = model.qps(BASELINE_CORES, h3_base)

    print("== capacity sweep (direct-mapped, 40 ns) ==")
    print(f"{'capacity':>10} {'hit':>7} {'heap':>7} {'shard':>7} {'QPS vs base':>12}")
    for paper_mib in (128, 256, 512, 1024, 2048, 4096):
        capacity = max(64, int(paper_mib * MiB * preset.scale))
        result = L4Cache(models.l4_config(capacity)).simulate(lines, segments)
        qps = model.qps(DESIGN_CORES, h3_design, l4_hit_rate=result.hit_rate)
        print(
            f"{format_size(paper_mib * MiB):>10} {result.hit_rate:7.1%} "
            f"{result.segment_hit_rate(Segment.HEAP):7.1%} "
            f"{result.segment_hit_rate(Segment.SHARD):7.1%} "
            f"{qps / qps_baseline - 1.0:+12.1%}"
        )

    print("\n== how slow can the eDRAM be? (1 GiB, direct-mapped) ==")
    capacity = max(64, int(1024 * MiB * preset.scale))
    hit = L4Cache(models.l4_config(capacity)).simulate(lines, segments).hit_rate
    for hit_ns in (30, 40, 50, 60, 80, 100, 110):
        latencies = replace(models.latencies, l4_hit_ns=float(hit_ns))
        m = model.with_latencies(latencies)
        qps = m.qps(DESIGN_CORES, h3_design, l4_hit_rate=hit)
        base = m.qps(BASELINE_CORES, h3_base)
        print(f"  hit latency {hit_ns:4d} ns -> QPS {qps / base - 1.0:+6.1%}")
    print("\n(the L4 stops paying for itself as its latency approaches DRAM's)")

    print("\n== direct-mapped vs fully-associative (the Alloy trade) ==")
    for paper_mib in (256, 1024):
        capacity = max(64, int(paper_mib * MiB * preset.scale))
        direct = L4Cache(models.l4_config(capacity)).simulate(lines, segments)
        full = L4Cache(
            models.l4_config(capacity).fully_associative()
        ).simulate(lines, segments)
        print(
            f"  {format_size(paper_mib * MiB):>8}: direct {direct.hit_rate:5.1%} "
            f"vs associative {full.hit_rate:5.1%} "
            f"(conflict cost {(full.hit_rate - direct.hit_rate) * 100:+.1f} points)"
        )
    print("\npaper: the direct-mapped simplification costs about one point.")


if __name__ == "__main__":
    main()
