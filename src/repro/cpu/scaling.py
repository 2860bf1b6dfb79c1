"""Core-count throughput scaling (Figure 2a).

The paper measures near-perfect QPS scaling from 8 to 72 cores with SMT off:
search has ample request-level parallelism, negligible read/write sharing,
and does not saturate shared-cache or memory bandwidth (§II-E).  The model
is therefore linear with a small, configurable efficiency loss per core for
the residual effects (slightly reduced L3 capacity per core, memory-channel
queuing), defaulting to the near-1.0 scaling factor the paper observes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CoreScalingModel:
    """Normalized throughput as a function of active core count.

    ``qps(n) = n * efficiency(n)`` with
    ``efficiency(n) = 1 - loss_per_core * (n - reference_cores)`` for
    ``n > reference_cores`` and 1.0 at or below the reference.
    """

    reference_cores: int = 8
    loss_per_core: float = 0.0008

    def __post_init__(self) -> None:
        if self.reference_cores < 1:
            raise ConfigurationError("reference_cores must be >= 1")
        if not 0 <= self.loss_per_core < 0.05:
            raise ConfigurationError(
                "loss_per_core must be small and non-negative, got "
                f"{self.loss_per_core}"
            )

    def efficiency(self, cores: int) -> float:
        """Per-core efficiency relative to the reference configuration."""
        if cores < 1:
            raise ConfigurationError(f"cores must be >= 1, got {cores}")
        extra = max(0, cores - self.reference_cores)
        return max(0.5, 1.0 - self.loss_per_core * extra)

    def normalized_qps(self, cores: int) -> float:
        """Throughput normalized so ``reference_cores`` maps to 1.0."""
        return (cores * self.efficiency(cores)) / self.reference_cores

    def curve(self, core_counts: list[int]) -> dict[int, float]:
        """Normalized QPS for each requested core count."""
        return {n: self.normalized_qps(n) for n in core_counts}
