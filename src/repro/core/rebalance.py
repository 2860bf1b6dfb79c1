"""Trading L3 cache capacity for cores under an iso-area budget (§IV-B).

This is the paper's first optimization: because throughput scales linearly
with cores (Figure 2a) while the L3 sees diminishing returns beyond the hot
working set, shrinking the per-core L3 allocation and spending the area on
more cores wins.  The paper's sweet spot is c = 1 MiB/core → 23 cores and a
23 MiB L3, a 14% QPS gain over the 18-core / 45 MiB baseline (Figure 10);
Figure 11 decomposes the gain into the core-count win and the L3-miss loss.

The optimizer needs only a *hit-rate function* ``h(l3_bytes)`` — typically
`MissRatioCurve.hit_rate` over a measured post-L2 stream — plus the area
and performance models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro._units import MiB
from repro.core.area import AreaModel
from repro.core.perf_model import SearchPerfModel
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RebalancePoint:
    """One evaluated design in the cache-for-cores sweep."""

    l3_mib_per_core: float
    cores: float
    l3_mib: float
    l3_hit_rate: float
    qps: float
    qps_vs_baseline: float

    @property
    def improvement(self) -> float:
        """Fractional QPS change vs. the baseline design."""
        return self.qps_vs_baseline - 1.0


class CacheForCoresOptimizer:
    """Iso-area design-space sweep over L3-capacity-per-core.

    Parameters
    ----------
    hit_rate_fn:
        Maps an L3 capacity in bytes to the L3 hit rate of the workload.
    perf_model, area_model:
        Calibrated models (the paper's come from
        :func:`repro.experiments.common.paper_models`).
    baseline_cores, baseline_l3_mib:
        The reference design (PLT1: 18 cores, 45 MiB).
    """

    def __init__(
        self,
        hit_rate_fn: Callable[[int], float],
        perf_model: SearchPerfModel,
        area_model: AreaModel,
        baseline_cores: int = 18,
        baseline_l3_mib: float = 45.0,
    ) -> None:
        if baseline_cores < 1:
            raise ConfigurationError("baseline_cores must be >= 1")
        if baseline_l3_mib <= 0:
            raise ConfigurationError("baseline_l3_mib must be positive")
        self.hit_rate_fn = hit_rate_fn
        self.perf_model = perf_model
        self.area_model = area_model
        self.baseline_cores = baseline_cores
        self.baseline_l3_mib = baseline_l3_mib
        self.area_budget_mib = self.area_model.total_area_mib(
            baseline_cores, baseline_l3_mib
        )
        self._baseline_qps = self._qps(
            float(baseline_cores), baseline_l3_mib
        )

    # ------------------------------------------------------------------

    def _qps(self, cores: float, l3_mib: float) -> float:
        hit = self.hit_rate_fn(int(l3_mib * MiB))
        # cores may be fractional in the non-quantized upper-bound sweep.
        return cores * self.perf_model.ipc_from_hit_rates(hit)

    def evaluate(self, l3_mib_per_core: float, quantize: bool = True) -> RebalancePoint:
        """Evaluate one iso-area design with the given L3-per-core ratio."""
        cores = self.area_model.cores_for_area(
            self.area_budget_mib, l3_mib_per_core, quantize=quantize
        )
        l3_mib = cores * l3_mib_per_core
        hit = self.hit_rate_fn(int(l3_mib * MiB))
        qps = cores * self.perf_model.ipc_from_hit_rates(hit)
        return RebalancePoint(
            l3_mib_per_core=l3_mib_per_core,
            cores=cores,
            l3_mib=l3_mib,
            l3_hit_rate=hit,
            qps=qps,
            qps_vs_baseline=qps / self._baseline_qps,
        )

    def sweep(
        self, ratios_mib_per_core: list[float], quantize: bool = True
    ) -> list[RebalancePoint]:
        """Evaluate several ratios (the paper sweeps 2.25 down to 0.5)."""
        return [self.evaluate(r, quantize=quantize) for r in ratios_mib_per_core]

    def optimum(
        self, ratios_mib_per_core: list[float], quantize: bool = True
    ) -> RebalancePoint:
        """The best design among the swept ratios."""
        points = self.sweep(ratios_mib_per_core, quantize=quantize)
        return max(points, key=lambda p: p.qps_vs_baseline)

    # ------------------------------------------------------------------

    def decompose(self, l3_mib_per_core: float) -> tuple[float, float]:
        """Split a design's QPS delta into core-gain and cache-loss terms.

        Returns ``(gain_from_cores, loss_from_smaller_l3)`` as fractional
        changes vs. baseline — the two curves of Figure 11.  The core gain
        holds the baseline L3 hit rate fixed; the cache loss holds the
        baseline core count fixed.
        """
        point = self.evaluate(l3_mib_per_core, quantize=True)
        baseline_hit = self.hit_rate_fn(int(self.baseline_l3_mib * MiB))
        ipc_baseline = self.perf_model.ipc_from_hit_rates(baseline_hit)
        gain_from_cores = (
            point.cores * ipc_baseline
        ) / self._baseline_qps - 1.0
        loss_from_cache = (
            self.baseline_cores
            * self.perf_model.ipc_from_hit_rates(point.l3_hit_rate)
        ) / self._baseline_qps - 1.0
        return gain_from_cores, loss_from_cache

    def fixed_cache_qps_grid(
        self, core_counts: list[int], l3_sizes_mib: list[float]
    ) -> list[tuple[int, float, float, float]]:
        """(cores, l3_mib, area_mib, qps) for a cores x L3-size grid.

        This is Figure 9's measurement grid: every combination of enabled
        core count and CAT-limited L3 capacity, positioned by its
        equivalent area.
        """
        rows = []
        for cores in core_counts:
            for l3_mib in l3_sizes_mib:
                area = self.area_model.total_area_mib(cores, l3_mib)
                qps = self._qps(float(cores), l3_mib)
                rows.append((cores, l3_mib, area, qps))
        return rows
