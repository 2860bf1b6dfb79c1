"""Processor-core models.

Everything outside the cache hierarchy that the paper measures: branch
prediction (Table I branch MPKI, Figure 3 bad-speculation slots), SMT
throughput (Figure 2b), core-count scaling (Figure 2a), and the Top-Down
slot accounting (Figure 3).  Figure 2c's STLB is a cache model
(``repro.cachesim.composition``, driven by ``repro.experiments.fig2``).
"""

from repro.cpu.branch import (
    BranchStream,
    BranchWorkloadConfig,
    TournamentPredictor,
    generate_branch_stream,
    measure_branch_mpki,
)
from repro.cpu.smt import SmtModel
from repro.cpu.scaling import CoreScalingModel
from repro.cpu.topdown import TopDownBreakdown, TopDownModel, PipelineMetrics

__all__ = [
    "BranchStream",
    "BranchWorkloadConfig",
    "TournamentPredictor",
    "generate_branch_stream",
    "measure_branch_mpki",
    "SmtModel",
    "CoreScalingModel",
    "TopDownBreakdown",
    "TopDownModel",
    "PipelineMetrics",
]
