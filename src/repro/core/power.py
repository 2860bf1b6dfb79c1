"""Power and energy accounting for the proposed design (§IV-C).

The paper's measured anchors:

* each core contributes 3.77% of baseline socket power on PLT1;
* the 23-core design adds 18.9% socket power (~27 W) for +27% QPS;
* this stays within 3.8% of the published TDP of comparable parts;
* an iso-power alternative (18 cores at 1 MiB/core) cuts core+cache area
  23% while keeping performance within 5%;
* the L4 filters ~50% of DRAM accesses, and eDRAM costs much less energy
  per access than DRAM, so the L4 slightly *reduces* memory power;
* the cache-for-cores trade is energy-neutral: power and performance both
  scale linearly with core count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.area import AreaModel
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PowerModel:
    """Socket- and memory-power model calibrated to the paper's anchors."""

    baseline_socket_watts: float = 143.0
    core_fraction_of_socket: float = 0.0377
    baseline_cores: int = 18
    #: Energy per 64-byte access (nJ); eDRAM is substantially cheaper
    #: than commodity DRAM ([10], [54]).
    dram_access_nj: float = 20.0
    edram_access_nj: float = 6.0
    published_tdp_watts: float = 165.0

    def __post_init__(self) -> None:
        if self.baseline_socket_watts <= 0:
            raise ConfigurationError("baseline_socket_watts must be positive")
        if not 0 < self.core_fraction_of_socket < 1:
            raise ConfigurationError("core_fraction_of_socket must be in (0,1)")
        if self.baseline_cores < 1:
            raise ConfigurationError("baseline_cores must be >= 1")

    # ------------------------------------------------------------------
    # Socket power
    # ------------------------------------------------------------------

    def core_watts(self) -> float:
        """Power of one core (and its private caches)."""
        return self.baseline_socket_watts * self.core_fraction_of_socket

    def socket_watts(self, cores: int) -> float:
        """Socket power with a different active-core count.

        Linear in cores, as the paper measured when scaling 4 to 18 cores.
        """
        if cores < 1:
            raise ConfigurationError(f"cores must be >= 1, got {cores}")
        extra = cores - self.baseline_cores
        return self.baseline_socket_watts + extra * self.core_watts()

    def power_increase_fraction(self, cores: int) -> float:
        """Fractional socket-power change vs. the baseline core count."""
        return self.socket_watts(cores) / self.baseline_socket_watts - 1.0

    def tdp_margin_fraction(self, cores: int) -> float:
        """How far the design sits from the published TDP (positive = under)."""
        return 1.0 - self.socket_watts(cores) / self.published_tdp_watts

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------

    def energy_per_query(self, socket_watts: float, relative_qps: float) -> float:
        """Relative joules per query (watts per unit of throughput)."""
        if relative_qps <= 0:
            raise ConfigurationError("relative_qps must be positive")
        return socket_watts / relative_qps

    def memory_energy_per_ki(
        self, l3_miss_mpki: float, l4_hit_rate: float | None = None
    ) -> float:
        """Memory-system energy (nJ) per kilo-instruction.

        Without an L4, every L3 miss pays a DRAM access.  With an L4, hits
        pay the (cheaper) eDRAM access and only misses reach DRAM — the
        paper's "L4 filters ~50% of DRAM accesses" effect.
        """
        if l3_miss_mpki < 0:
            raise ConfigurationError("l3_miss_mpki must be >= 0")
        if l4_hit_rate is None:
            return l3_miss_mpki * self.dram_access_nj
        if not 0 <= l4_hit_rate <= 1:
            raise ConfigurationError("l4_hit_rate must be in [0, 1]")
        edram = l3_miss_mpki * self.edram_access_nj  # every L3 miss probes L4
        dram = l3_miss_mpki * (1.0 - l4_hit_rate) * self.dram_access_nj
        return edram + dram

    # ------------------------------------------------------------------
    # Iso-power alternative (§IV-C)
    # ------------------------------------------------------------------

    def iso_power_area_saving(
        self,
        area_model: AreaModel,
        l3_mib_per_core: float = 1.0,
        baseline_l3_mib_per_core: float = 2.5,
    ) -> float:
        """Area saved by shrinking the L3 while keeping the core count.

        The paper: 18 cores at 1 MiB/core reduces core+cache area by 23%.
        """
        baseline = area_model.total_area_mib(
            self.baseline_cores, self.baseline_cores * baseline_l3_mib_per_core
        )
        shrunk = area_model.total_area_mib(
            self.baseline_cores, self.baseline_cores * l3_mib_per_core
        )
        return 1.0 - shrunk / baseline
