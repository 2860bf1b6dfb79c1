"""Table I: key performance metrics across workloads.

For every profile, the composed-hierarchy engine supplies the cache MPKIs,
a tournament branch predictor over the profile's branch population supplies
branch MPKI, and the Top-Down model converts event rates into IPC.  Rows
carry the paper's measured values alongside for direct comparison.

The thirteen profiles are independent, so they are measured on a pool of
:data:`RUNS_IN_FLIGHT` threads: the sorts, gathers and bincounts that
dominate a composed run release the interpreter lock.  Rows come out in
:func:`~repro.workloads.profiles.all_profiles` order whatever order the
threads finish in.
"""

from __future__ import annotations

import ctypes
import sys
from concurrent.futures import ThreadPoolExecutor

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
#: Composed runs measured at once, one per core of a 2-core host.  A
#: quick-preset run peaks at ~145 MiB of arrays while it builds and keeps
#: ~110 MiB once built, so two in flight, beside at most one retained
#: shared run, stay well under the one-at-a-time peak of runs that kept
#: their L1/L2 sort state; each further thread adds a construction peak.
RUNS_IN_FLIGHT = 2


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


def _measure_and_evict(
    profile: WorkloadProfile, preset: RunPreset
) -> dict[str, float]:
    """Measure one profile, then evict its run unless others share it."""
    measured = measure_profile(profile, preset)
    if profile.name not in _SHARED_PROFILES:
        platform = "plt2" if profile.name.endswith("plt2") else "plt1"
        discard_run(profile, preset, platform=platform)
    return measured


def _return_freed_memory() -> None:
    """Hand the heap pages the pool threads freed back to the OS.

    Under glibc each worker thread allocates from its own malloc arena.
    What the discarded runs freed there stays resident, and the main
    thread, which runs every later experiment, allocates from its own
    arena instead of reusing it: a quick-preset campaign then peaks
    ~90 MiB higher.  ``malloc_trim(0)`` releases the free pages of
    every arena.  Elsewhere this does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):  # not glibc
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def run(preset: RunPreset | None = None) -> ExperimentResult:
    """Measure every registered profile and tabulate against the paper."""
    preset = preset or RunPreset.quick()
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    profiles = all_profiles()
    # Only the plt1 S1-leaf runs stay in the preset's cache for later
    # experiments.  Measuring them last means the runs in flight never
    # stack on top of both retained ones.
    schedule = sorted(profiles, key=lambda p: p.name in _SHARED_PROFILES)
    with ThreadPoolExecutor(max_workers=RUNS_IN_FLIGHT) as pool:
        pending = {
            p.name: pool.submit(_measure_and_evict, p, preset) for p in schedule
        }
    _return_freed_memory()
    for profile in profiles:
        measured = pending[profile.name].result()
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
