"""Figure 11: decomposing the cache-for-cores trade-off.

For each L3-per-core ratio, split the net QPS change into the gain from
the equivalent-area extra cores and the loss from the smaller L3.  The two
curves' different slopes are the paper's argument for rebalancing; their
gap is maximal at the c = 1 MiB/core sweet spot.
"""

from __future__ import annotations

from repro.core.hitcurve import LogLinearHitCurve
from repro.core.rebalance import CacheForCoresOptimizer
from repro.experiments import common
from repro.experiments.common import ExperimentResult, RunPreset
from repro.experiments.fig10 import RATIOS

EXPERIMENT_ID = "fig11"
TITLE = "Core-gain vs. cache-loss decomposition of the trade-off"


def run(preset: RunPreset | None = None) -> ExperimentResult:
    """Tabulate both curves and the net effect per ratio."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    models = common.paper_models()
    optimizer = CacheForCoresOptimizer(
        hit_rate_fn=LogLinearHitCurve.fig10_effective(),
        perf_model=models.perf,
        area_model=models.area,
    )
    best_gap, best_ratio = -1.0, None
    for ratio in RATIOS:
        gain, loss = optimizer.decompose(ratio)
        net = optimizer.evaluate(ratio).improvement
        result.add(
            l3_mib_per_core=ratio,
            cores_gain_pct=round(gain * 100, 1),
            cache_loss_pct=round(loss * 100, 1),
            net_pct=round(net * 100, 1),
        )
        if net > best_gap:
            best_gap, best_ratio = net, ratio
    result.note(
        f"maximum gap between core gain and cache loss at c = {best_ratio} "
        "MiB/core (paper: c = 1 MiB)"
    )
    return result
