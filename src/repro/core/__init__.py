"""The paper's primary contribution: a memory hierarchy optimized for search.

Ties the substrates together into the paper's §IV evaluation flow:

1. :mod:`repro.core.perf_model` — the measurement-calibrated linear
   performance model (Eq. 1): IPC as a function of post-L2 AMAT.
2. :mod:`repro.core.area` — the iso-area accounting (1 core ≈ 4 MiB of L3).
3. :mod:`repro.core.rebalance` — trading L3 capacity for cores
   (Figures 9–11, +14% at 1 MiB/core).
4. :mod:`repro.core.l4cache` — the latency-optimized, direct-mapped,
   on-package eDRAM L4 (Figures 12–13).
5. :mod:`repro.core.optimizer` — the combined design evaluation
   (Figure 14, +27% baseline / +38% future).
6. :mod:`repro.core.power` — power/energy accounting (§IV-C).
"""

from repro.core.perf_model import MemoryLatencies, SearchPerfModel
from repro.core.area import AreaModel
from repro.core.hitcurve import LogLinearHitCurve
from repro.core.rebalance import CacheForCoresOptimizer, RebalancePoint
from repro.core.l4cache import L4Config, L4Cache, L4Result
from repro.core.optimizer import (
    DesignEvaluation,
    HierarchyDesignEvaluator,
    SensitivityScenario,
)
from repro.core.power import PowerModel

__all__ = [
    "MemoryLatencies",
    "SearchPerfModel",
    "AreaModel",
    "LogLinearHitCurve",
    "CacheForCoresOptimizer",
    "RebalancePoint",
    "L4Config",
    "L4Cache",
    "L4Result",
    "DesignEvaluation",
    "HierarchyDesignEvaluator",
    "SensitivityScenario",
    "PowerModel",
]
