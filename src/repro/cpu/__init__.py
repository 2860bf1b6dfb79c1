"""Processor-core models.

Everything outside the cache hierarchy that the paper measures: branch
prediction (Table I branch MPKI, Figure 3 bad-speculation slots), TLB
behaviour under small vs. huge pages (Figure 2c), SMT throughput
(Figure 2b), core-count scaling (Figure 2a), and the Top-Down slot
accounting (Figure 3).
"""

from repro.cpu.branch import (
    BranchStream,
    BranchWorkloadConfig,
    TournamentPredictor,
    generate_branch_stream,
    measure_branch_mpki,
)
from repro.cpu.tlb import TlbConfig, TlbResult, simulate_tlb
from repro.cpu.smt import SmtModel
from repro.cpu.scaling import CoreScalingModel
from repro.cpu.topdown import TopDownBreakdown, TopDownModel, PipelineMetrics

__all__ = [
    "BranchStream",
    "BranchWorkloadConfig",
    "TournamentPredictor",
    "generate_branch_stream",
    "measure_branch_mpki",
    "TlbConfig",
    "TlbResult",
    "simulate_tlb",
    "SmtModel",
    "CoreScalingModel",
    "TopDownBreakdown",
    "TopDownModel",
    "PipelineMetrics",
]
