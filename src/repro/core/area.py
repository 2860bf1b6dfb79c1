"""Iso-area accounting for the cache-for-cores trade-off (§IV-B).

The paper measures, from Haswell die photos, that one core plus its private
caches occupies roughly the same area as a 4 MiB slice of L3, and models
total area as ``A = n * (s + c)`` with ``n`` cores, ``s`` the core cost and
``c`` the L3 capacity per core.  Its baseline is PLT1: 18 cores with
45 MiB of L3 (c = 2.5 MiB/core), i.e. 117 MiB-equivalents of area.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class AreaModel:
    """Area accounting in units of 'equivalent L3 MiB'."""

    core_equiv_mib: float = 4.0

    def __post_init__(self) -> None:
        if self.core_equiv_mib <= 0:
            raise ConfigurationError("core_equiv_mib must be positive")

    def total_area_mib(self, cores: int, l3_mib: float) -> float:
        """Total area of a design with ``cores`` cores and ``l3_mib`` of L3."""
        if cores < 1:
            raise ConfigurationError(f"cores must be >= 1, got {cores}")
        if l3_mib < 0:
            raise ConfigurationError(f"l3_mib must be >= 0, got {l3_mib}")
        return cores * self.core_equiv_mib + l3_mib

    def cores_for_area(
        self, area_mib: float, l3_mib_per_core: float, quantize: bool = True
    ) -> float:
        """Cores that fit in ``area_mib`` at a given L3-per-core ratio.

        ``quantize=False`` returns the ideal fractional core count — the
        paper's "non-quantized" upper-bound bars in Figure 10;
        ``quantize=True`` rounds down to whole cores, leaving slack area
        (which §IV-C spends on the L4 controller).
        """
        if area_mib <= 0:
            raise ConfigurationError(f"area_mib must be positive, got {area_mib}")
        if l3_mib_per_core < 0:
            raise ConfigurationError("l3_mib_per_core must be >= 0")
        cores = area_mib / (self.core_equiv_mib + l3_mib_per_core)
        if not quantize:
            return cores
        whole = int(cores)
        if whole < 1:
            raise ConfigurationError(
                f"area {area_mib} MiB cannot fit one core at "
                f"{l3_mib_per_core} MiB/core"
            )
        return float(whole)
