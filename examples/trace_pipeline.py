#!/usr/bin/env python
"""A trace-collection workflow: generate, persist, reload, analyze, chart.

Mirrors how the paper's team worked with Pin collections — capture once,
analyze many times (§III-A: "results are qualitatively similar over
multiple such collections").  The pipeline:

1. generate a multi-threaded S1-leaf trace and save it as a ``.npz`` bundle
   with provenance metadata;
2. reload it (as a separate analysis session would);
3. run exact and analytic hierarchy simulations plus a 3C miss breakdown;
4. chart the L3 miss-ratio curve in the terminal.
"""

import tempfile
from pathlib import Path

from repro._units import KiB, MiB, format_size
from repro.cachesim import analytic_hierarchy, classify_misses, simulate_hierarchy
from repro.cachesim.cache import CacheGeometry
from repro.experiments.charts import line_chart
from repro.hw import catalog
from repro.hw.adapters import hierarchy_config
from repro.memtrace import load_trace, save_trace
from repro.memtrace.synthetic import SyntheticWorkload
from repro.memtrace.trace import Segment
from repro.workloads import get_profile

SCALE = 1 / 64


def main() -> None:
    profile = get_profile("s1-leaf")
    workload = SyntheticWorkload(profile.memory.scaled(SCALE), seed=11)
    trace = workload.generate(120_000, threads=4)
    print(f"generated: {trace.describe()}")

    bundle = Path(tempfile.gettempdir()) / "s1_leaf_collection.npz"
    save_trace(trace, bundle, profile="s1-leaf", scale=SCALE, threads=4)
    print(f"saved to {bundle} ({format_size(bundle.stat().st_size)})")

    reloaded, metadata = load_trace(bundle)
    print(f"reloaded with metadata {metadata}\n")

    config = (
        hierarchy_config(catalog.plt1_simulated())
        .with_l3_size(2 * MiB, assoc=8)
        .scaled(1 / 8)
    )
    print("== exact vs analytic models on the reloaded trace ==")
    analytic = analytic_hierarchy(reloaded, config)
    for name, result in (
        ("exact", simulate_hierarchy(reloaded, config)),
        ("analytic", analytic),
    ):
        print(f"[{name}]")
        print(result.render())
        print()

    print("== 3C breakdown of heap accesses at a 64 KiB cache ==")
    heap_lines = reloaded.only_segment(Segment.HEAP).lines(64)
    breakdown = classify_misses(heap_lines[:150_000], CacheGeometry(64 * KiB, 8))
    print(
        f"cold {breakdown.fraction('cold'):5.1%}  "
        f"capacity {breakdown.fraction('capacity'):5.1%}  "
        f"conflict {breakdown.fraction('conflict'):5.1%}\n"
    )

    print("== L3 miss-ratio curve of the post-L2 stream ==")
    capacities = [32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB, MiB, 2 * MiB]
    sweep = analytic.l3_sweep(capacities)
    xs = [c / KiB for c in capacities]
    hit_rates = [
        1.0 - sweep[c].total_misses / max(1, sweep[c].total_accesses)
        for c in capacities
    ]
    print(line_chart(xs, {"L3 hit rate": hit_rates}))
    print("   (x axis: scaled L3 capacity in KiB)")

    bundle.unlink()


if __name__ == "__main__":
    main()
