"""Figure 2: hardware-optimization sensitivity.

(a) QPS vs. core count (near-linear to 72 cores);
(b) SMT speedups on both platforms (PLT1 +37% at SMT-2; PLT2 up to 3.24x);
(c) huge pages (~+10%) and hardware prefetching (+5% PLT1, ~0 PLT2).
"""

from __future__ import annotations

from repro._units import KiB, MiB
from repro.cachesim.hierarchy import simulate_hierarchy
from repro.cachesim.prefetch import NextLinePrefetcher, StreamPrefetcher
from repro.cpu.scaling import CoreScalingModel
from repro.cpu.smt import SmtModel
from repro.experiments import common
from repro.experiments.common import ExperimentResult, RunPreset, composed_run
from repro.memtrace.synthetic import generate_trace
from repro.workloads.profiles import get_profile

EXPERIMENT_ID = "fig2"
TITLE = "Core scaling, SMT, huge pages, and prefetching"

#: Paper anchor: time-per-instruction implied by Eq. 1 at the PLT1
#: operating point, used to convert page-walk time into slowdown.
_BASELINE_NS_PER_INSTR = 1.0 / 1.27 / 2.5  # CPI / GHz


def core_scaling_rows(result: ExperimentResult) -> None:
    """Figure 2a: normalized QPS for 8..72 cores."""
    model = CoreScalingModel()
    for cores in (8, 16, 24, 32, 40, 48, 56, 64, 72):
        result.add(
            series="fig2a-core-scaling",
            x=cores,
            normalized_qps=round(model.normalized_qps(cores), 3),
        )


def smt_rows(result: ExperimentResult) -> None:
    """Figure 2b: SMT speedups for both platforms."""
    plt1 = SmtModel.plt1_calibrated()
    for threads in (2,):
        result.add(
            series="fig2b-smt-plt1",
            x=threads,
            improvement_pct=round(plt1.improvement(threads) * 100, 1),
            paper_pct=37.0,
        )
    plt2 = SmtModel.plt2_calibrated()
    paper = {2: 76.0, 4: None, 8: 224.0}
    for threads in (2, 4, 8):
        row = {
            "series": "fig2b-smt-plt2",
            "x": threads,
            "improvement_pct": round(plt2.improvement(threads) * 100, 1),
        }
        if paper[threads] is not None:
            row["paper_pct"] = paper[threads]
        result.add(**row)


def _stlb_walks_per_ki(run, page_bytes: int, stlb_entries: int) -> float:
    """Page-walk rate via stream composition at nominal touch rates.

    A TLB is a fully-associative cache of pages, so the same composition
    machinery applies: per-segment page-number streams at the workload's
    nominal rates, capacity = STLB entries.  Page size is pre-scaled by
    the caller so reach ratios match production.
    """
    from repro.cachesim.composition import CompositeCache, StreamComponent

    shift = max(0, page_bytes.bit_length() - 1 - 6)  # line(64B) -> page
    components = []
    for name, source in (
        ("code", run.l1i.components["code"]),
        ("heap", run.l1d.components["heap"]),
        ("shard", run.l1d.components["shard"]),
    ):
        pages = source.lines >> shift
        components.append(StreamComponent(name, pages, rate=source.rate))
    stlb = CompositeCache(components, capacity_lines=stlb_entries)
    return sum(stlb.mpki(c.name) for c in components)


def huge_page_rows(result: ExperimentResult, preset: RunPreset) -> None:
    """Figure 2c (left): throughput gain from 2 MiB pages on PLT1-like.

    Page sizes scale with the preset so TLB reach relative to the working
    set matches production; the 12 ns effective walk cost reflects
    page-walk caches absorbing most of the walk.
    """
    run = composed_run("s1-leaf", preset, platform="plt1")
    walk_ns = 12.0
    small_page = max(128, int(4 * KiB * preset.scale))
    huge_page = max(small_page * 4, int(2 * MiB * preset.scale))
    walks_small = _stlb_walks_per_ki(run, small_page, stlb_entries=1024)
    walks_huge = _stlb_walks_per_ki(run, huge_page, stlb_entries=1024)
    time_small = _BASELINE_NS_PER_INSTR + walks_small * walk_ns / 1000.0
    time_huge = _BASELINE_NS_PER_INSTR + walks_huge * walk_ns / 1000.0
    result.add(
        series="fig2c-huge-pages",
        x="plt1",
        improvement_pct=round((time_small / time_huge - 1.0) * 100, 1),
        paper_pct=10.0,
        walks_per_ki_small=round(walks_small, 2),
        walks_per_ki_huge=round(walks_huge, 3),
    )


def prefetch_rows(result: ExperimentResult, preset: RunPreset) -> None:
    """Figure 2c (right): gain from enabling hardware prefetchers."""
    profile = get_profile("s1-leaf")
    trace = generate_trace(
        profile.memory.scaled(preset.scale), 120_000, seed=preset.seed, threads=1
    )
    config = common.platform_hierarchy("plt1", preset)

    base = simulate_hierarchy(trace, config)
    prefetched = simulate_hierarchy(
        trace,
        config,
        prefetchers={
            "L2": StreamPrefetcher(degree=2),
            "L1D": NextLinePrefetcher(),
        },
    )
    base_l2 = base.level("L2").total_misses
    pf_l2 = prefetched.level("L2").total_misses
    reduction = 1.0 - pf_l2 / base_l2 if base_l2 else 0.0
    # The paper attributes ~5% QPS to prefetching on PLT1; the memory-time
    # share of execution converts miss-reduction into speedup.
    memory_share = 0.21  # back-end memory slots, Figure 3
    improvement = reduction * memory_share
    result.add(
        series="fig2c-prefetch",
        x="plt1",
        improvement_pct=round(improvement * 100, 1),
        paper_pct=5.0,
        l2_miss_reduction_pct=round(reduction * 100, 1),
    )


def run(preset: RunPreset | None = None) -> ExperimentResult:
    """All four panels of Figure 2."""
    preset = preset or RunPreset.quick()
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    core_scaling_rows(result)
    smt_rows(result)
    huge_page_rows(result, preset)
    prefetch_rows(result, preset)
    result.note(
        "SMT models are calibrated to the paper's measured anchors; core "
        "scaling uses the near-linear model the paper measures (Fig 2a)."
    )
    return result
