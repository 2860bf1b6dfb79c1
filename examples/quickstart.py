#!/usr/bin/env python
"""Quickstart: characterize a search leaf and evaluate the paper's design.

Runs in under a minute.  Three steps:

1. generate the calibrated S1-leaf workload streams and compose them
   through a PLT1-like cache hierarchy (the paper's §III methodology);
2. read off the headline metrics (Table I / Figure 6);
3. evaluate the paper's proposed design — 23 cores, 1 MiB/core L3, plus a
   1 GiB eDRAM L4 — against the 18-core baseline (Figure 14).
"""

from repro._units import MiB
from repro.core.hitcurve import LogLinearHitCurve
from repro.core.optimizer import HierarchyDesignEvaluator, SensitivityScenario
from repro.experiments import RunPreset, composed_run
from repro.experiments.common import paper_models
from repro.memtrace.trace import Segment


def main() -> None:
    preset = RunPreset.quick()
    print(f"building the composed S1-leaf run ({preset.name} preset)…")
    run = composed_run("s1-leaf", preset, platform="plt1")

    print("\n== the paper's headline characterization ==")
    print(f"L2 instruction MPKI : {run.mpki('L2', Segment.CODE):6.2f}  (paper: 11.83)")
    data_mpki = sum(
        run.mpki("L3", seg) for seg in (Segment.HEAP, Segment.SHARD, Segment.STACK)
    )
    print(f"L3 data MPKI        : {data_mpki:6.2f}  (paper: ~2.2)")

    print("\n== L3 capacity sweep (paper-equivalent sizes) ==")
    for paper_mib in (16, 64, 256, 1024):
        capacity = max(64, int(paper_mib * MiB * preset.scale))
        print(
            f"  {paper_mib:5d} MiB: code {run.l3_hit_rate(capacity, Segment.CODE):5.1%}"
            f"  heap {run.l3_hit_rate(capacity, Segment.HEAP):5.1%}"
            f"  shard {run.l3_hit_rate(capacity, Segment.SHARD):5.1%}"
        )

    print("\n== the proposed design vs the 18-core/45 MiB baseline ==")
    models = paper_models()
    evaluator = HierarchyDesignEvaluator(
        stream_source=run,
        perf_model=models.perf,
        area_model=models.area,
        scale=preset.scale,
        l3_hit_fn=LogLinearHitCurve.fig10_effective(),
    )
    for scenario in SensitivityScenario.all_scenarios():
        evaluation = evaluator.evaluate(scenario, 1024 * MiB)
        print(f"  {evaluation.render()}")
    print("\npaper: +14% from rebalancing alone, +27% combined at 1 GiB / 40 ns")


if __name__ == "__main__":
    main()
