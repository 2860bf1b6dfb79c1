"""§IV-C power and energy accounting.

Anchors from the paper: each core is 3.77% of socket power; the 23-core
design adds 18.9% socket power (~27 W) for +27% QPS and stays within 3.8%
of published TDP; the iso-power 18-core/1 MiB-per-core option cuts
core+cache area 23% with performance within 5%; the L4 filters ~50% of
DRAM accesses and eDRAM is cheaper per access, so memory power drops.
"""

from __future__ import annotations

from repro._units import MiB
from repro.core.hitcurve import LogLinearHitCurve
from repro.experiments import common
from repro.experiments.common import ExperimentResult, RunPreset, composed_run

EXPERIMENT_ID = "power"
TITLE = "Power and energy of the proposed design"


def run(preset: RunPreset | None = None) -> ExperimentResult:
    """Socket power, TDP margin, iso-power option, memory energy."""
    preset = preset or RunPreset.quick()
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    models = common.paper_models()
    power = models.power
    perf = models.perf
    curve = LogLinearHitCurve.fig10_effective()

    increase = power.power_increase_fraction(23)
    result.add(
        metric="socket power increase (23 cores)",
        value=f"{increase:+.1%}",
        paper="+18.9% (~27 W)",
    )
    result.add(
        metric="added watts",
        value=f"{power.socket_watts(23) - power.socket_watts(18):.0f} W",
        paper="~27 W",
    )
    result.add(
        metric="TDP margin at 23 cores",
        value=f"{power.tdp_margin_fraction(23):.1%}",
        paper="within 3.8% of published TDP",
    )

    # Iso-power option: 18 cores, 1 MiB/core.  Constant core count means no
    # CAT-grid contention effects, so the *demand* hit curve applies (the
    # effective Figure 9/10 curve would overstate the loss).
    demand_curve = LogLinearHitCurve.fig8_demand()
    saving = power.iso_power_area_saving(models.area, l3_mib_per_core=1.0)
    qps_iso = 18 * perf.ipc_from_hit_rates(demand_curve(18 * MiB))
    qps_base = 18 * perf.ipc_from_hit_rates(demand_curve(45 * MiB))
    result.add(
        metric="iso-power area saving (18c @ 1 MiB/core)",
        value=f"{saving:.1%}",
        paper="23%",
    )
    result.add(
        metric="iso-power performance delta",
        value=f"{qps_iso / qps_base - 1.0:+.1%}",
        paper="within 5%",
    )

    # Memory energy with and without the L4 (per KI, relative).
    run_ = composed_run("s1-leaf", preset, platform="plt1")
    l3_capacity = max(1, int(23 * MiB * preset.scale))
    demand_mpki = run_.l3_mpki(l3_capacity)
    from repro.core.l4cache import L4Cache

    lines, segments = run_.l4_demand(l3_capacity, seed=preset.seed)
    l4_capacity = max(64, int(1024 * MiB * preset.scale))
    l4_hit = L4Cache(models.l4_config(l4_capacity)).simulate(
        lines, segments
    ).hit_rate
    without = power.memory_energy_per_ki(demand_mpki)
    with_l4 = power.memory_energy_per_ki(demand_mpki, l4_hit_rate=l4_hit)
    result.add(
        metric="DRAM accesses filtered by 1 GiB L4",
        value=f"{l4_hit:.1%}",
        paper="~50%",
    )
    result.add(
        metric="memory energy with L4 (vs without)",
        value=f"{with_l4 / without - 1.0:+.1%}",
        paper="slight reduction",
    )
    result.note(
        "the cache-for-cores trade is energy-neutral: power and performance "
        "both scale linearly with cores (paper measured 4->18 cores)."
    )
    return result
