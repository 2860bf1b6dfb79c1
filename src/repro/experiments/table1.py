"""Table I: key performance metrics across workloads.

For every profile, the composed-hierarchy engine supplies the cache MPKIs,
a tournament branch predictor over the profile's branch population supplies
branch MPKI, and the Top-Down model converts event rates into IPC.  Rows
carry the paper's measured values alongside for direct comparison.
"""

from __future__ import annotations

from repro.cpu.branch import (
    TournamentPredictor,
    generate_branch_stream,
    measure_branch_mpki,
)
from repro.cpu.topdown import PipelineMetrics, TopDownModel
from repro.experiments.common import (
    ExperimentResult,
    RunPreset,
    composed_run,
    discard_run,
)
from repro.memtrace.trace import Segment
from repro.workloads.profiles import WorkloadProfile, all_profiles

EXPERIMENT_ID = "table1"
TITLE = "Key performance metrics for search, SPEC, and CloudSuite"

_DATA_SEGMENTS = (Segment.HEAP, Segment.SHARD, Segment.STACK)
#: Profiles whose (plt1) composed runs other experiments read again:
#: ``s1-leaf`` by most figures, ``s1-leaf-plt1`` by Figure 3.
_SHARED_PROFILES = ("s1-leaf", "s1-leaf-plt1")


def measure_profile(
    profile: WorkloadProfile, preset: RunPreset
) -> dict[str, float]:
    """Simulate one profile and return its Table I metrics."""
    platform = "plt2" if profile.name.endswith("plt2") else "plt1"
    run = composed_run(profile, preset, platform=platform)

    l2_instr = run.mpki("L2", Segment.CODE)
    l3_data = sum(run.mpki("L3", seg) for seg in _DATA_SEGMENTS)
    l1i = run.mpki("L1I", Segment.CODE)
    l2_data = sum(run.mpki("L2", seg) for seg in _DATA_SEGMENTS)

    stream = generate_branch_stream(
        profile.branches, preset.branch_instructions, seed=preset.seed
    )
    br_mpki = measure_branch_mpki(TournamentPredictor(), stream)

    # Match the measurement context: fleet/lab search runs with SMT on;
    # SPEC and CloudSuite are characterized single-threaded per core.
    if platform == "plt2":
        model = TopDownModel.power8_smt8()
    elif profile.family in ("search-fleet", "search-lab"):
        model = TopDownModel.haswell_smt2()
    else:
        model = TopDownModel.haswell_single()
    metrics = PipelineMetrics(
        branch_mispredict_mpki=br_mpki,
        l1i_mpki=max(0.0, l1i - l2_instr),
        l2i_mpki=l2_instr,
        l2d_mpki=max(0.0, l2_data - l3_data),
        l3d_mpki=l3_data,
    )
    return {
        "ipc": model.ipc(metrics),
        "l3_load_mpki": l3_data,
        "l2_instr_mpki": l2_instr,
        "branch_mpki": br_mpki,
    }


def run(preset: RunPreset | None = None) -> ExperimentResult:
    """Measure every registered profile and tabulate against the paper."""
    preset = preset or RunPreset.quick()
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    for profile in all_profiles():
        measured = measure_profile(profile, preset)
        # Only the plt1 S1-leaf runs are shared with other experiments;
        # evict the rest to bound memory.
        if profile.name not in _SHARED_PROFILES:
            platform = "plt2" if profile.name.endswith("plt2") else "plt1"
            discard_run(profile, preset, platform=platform)
        row = {"workload": profile.name, "family": profile.family}
        row.update({k: round(v, 2) for k, v in measured.items()})
        if profile.reference is not None:
            row.update(
                paper_ipc=profile.reference.ipc,
                paper_l3=profile.reference.l3_load_mpki,
                paper_l2i=profile.reference.l2_instr_mpki,
                paper_br=profile.reference.branch_mpki,
            )
        result.add(**row)
    result.note(
        "L3 'load' MPKI includes all data demand misses (the synthetic "
        "streams do not split loads from the minority stores)."
    )
    result.note(
        "IPC is modeled via Top-Down slot accounting from the simulated "
        "MPKIs (the paper measures it with performance counters)."
    )
    return result
