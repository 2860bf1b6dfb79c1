"""The hand-coded hierarchies that :mod:`repro.hw.catalog` replaced.

Literal :class:`~repro.cachesim.hierarchy.HierarchyConfig` values, kept
as test oracles: ``tests/hw/test_adapters.py`` checks the adapter output
against them, and ``tests/experiments/test_spec_golden.py`` replays the
experiments on them.  Nothing here reads the catalog.
"""

from repro._units import KiB, MiB
from repro.cachesim.cache import CacheGeometry
from repro.cachesim.hierarchy import CacheLevelConfig, HierarchyConfig


def plt1(l3_size: int = 45 * MiB) -> HierarchyConfig:
    """Table II PLT1: 32 KiB L1-I/L1-D, 256 KiB L2, all 8-way; 20-way L3."""
    return HierarchyConfig(
        l1i=CacheLevelConfig("L1I", CacheGeometry(32 * KiB, 8)),
        l1d=CacheLevelConfig("L1D", CacheGeometry(32 * KiB, 8)),
        l2=CacheLevelConfig("L2", CacheGeometry(256 * KiB, 8)),
        l3=CacheLevelConfig("L3", CacheGeometry(l3_size, 20), shared=True),
    )


def plt1_simulated() -> HierarchyConfig:
    """The §III-A simulated PLT1-like system: PLT1 with a 40 MiB L3."""
    return plt1(l3_size=40 * MiB)


def plt2() -> HierarchyConfig:
    """Table II PLT2: 128 B blocks, 64 KiB L1-D, 512 KiB L2, 96 MiB L3."""
    return HierarchyConfig(
        l1i=CacheLevelConfig("L1I", CacheGeometry(32 * KiB, 8, 128)),
        l1d=CacheLevelConfig("L1D", CacheGeometry(64 * KiB, 8, 128)),
        l2=CacheLevelConfig("L2", CacheGeometry(512 * KiB, 8, 128)),
        l3=CacheLevelConfig("L3", CacheGeometry(96 * MiB, 8, 128), shared=True),
    )
