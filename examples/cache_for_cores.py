#!/usr/bin/env python
"""Explore the cache-for-cores trade-off with your own workload curve.

The paper's §IV-B optimum (c = 1 MiB/core) is a property of *search's*
miss-ratio curve.  This example runs the same iso-area optimizer over
three hypothetical workloads — search-like, cache-friendly, and
streaming — and shows how the sweet spot moves with the curve, which is
the transferable insight of the paper.
"""

from repro._units import MiB
from repro.core.hitcurve import LogLinearHitCurve
from repro.core.rebalance import CacheForCoresOptimizer
from repro.experiments.common import paper_models

RATIOS = [2.5, 2.25, 2.0, 1.75, 1.5, 1.25, 1.0, 0.75, 0.5, 0.25]

WORKLOADS = {
    "search (paper's effective curve)": LogLinearHitCurve.fig10_effective(),
    "cache-friendly (steep, saturates early)": LogLinearHitCurve(
        anchor_capacity=45 * MiB,
        anchor_hit=0.93,
        slope_per_doubling=0.30,
        ceiling=0.97,
    ),
    "streaming (cache-insensitive)": LogLinearHitCurve(
        anchor_capacity=45 * MiB,
        anchor_hit=0.25,
        slope_per_doubling=0.02,
    ),
}


def main() -> None:
    models = paper_models()
    for name, curve in WORKLOADS.items():
        optimizer = CacheForCoresOptimizer(
            hit_rate_fn=curve, perf_model=models.perf, area_model=models.area
        )
        print(f"== {name} ==")
        print(f"{'MiB/core':>9} {'cores':>6} {'L3 MiB':>7} {'h(L3)':>7} {'QPS':>8}")
        for ratio in RATIOS:
            point = optimizer.evaluate(ratio, quantize=True)
            print(
                f"{ratio:9.2f} {point.cores:6.0f} {point.l3_mib:7.1f} "
                f"{point.l3_hit_rate:7.1%} {point.improvement:+8.1%}"
            )
        best = optimizer.optimum(RATIOS)
        print(
            f"optimum: c = {best.l3_mib_per_core} MiB/core "
            f"({best.cores:.0f} cores, {best.improvement:+.1%})\n"
        )

    print("takeaways: search rewards moderate rebalancing (the paper's +14%");
    print("at 1 MiB/core); a workload whose working set fits keeps its cache;")
    print("a streaming workload wants every transistor spent on cores.")


if __name__ == "__main__":
    main()
