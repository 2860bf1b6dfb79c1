"""Derive the experiments' model objects from a declarative spec.

Each adapter maps a :class:`~repro.hw.spec.HardwareSpec` onto one of the
hand-calibrated objects the rest of the codebase consumes.  The
differential battery in ``tests/hw``/``tests/experiments`` proves the
derived objects equal — and the experiment output byte-identical to —
the previously hand-coded constructions, which is what lets PLT1/PLT2
and the proposed design live as data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cachesim.cache import CacheGeometry
from repro.cachesim.hierarchy import CacheLevelConfig, HierarchyConfig
from repro.core.area import AreaModel
from repro.core.l4cache import L4Config
from repro.core.perf_model import MemoryLatencies, SearchPerfModel
from repro.core.power import PowerModel
from repro.errors import ConfigurationError
from repro.hw.instance import MemoryInstance
from repro.hw.spec import HardwareSpec


def _cache_level(instance: MemoryInstance) -> CacheLevelConfig:
    if instance.assoc < 1:
        raise ConfigurationError(
            f"{instance.name} must be set-associative to simulate "
            f"(assoc >= 1), got assoc={instance.assoc}"
        )
    return CacheLevelConfig(
        name=instance.name,
        geometry=CacheGeometry(
            size=instance.size_bytes,
            assoc=instance.assoc,
            block_size=instance.block_bytes,
        ),
        shared=instance.shared,
    )


def hierarchy_config(spec: HardwareSpec) -> HierarchyConfig:
    """The spec's L1/L2/L3 levels as a simulator configuration."""
    return HierarchyConfig(
        l1i=_cache_level(spec.l1i),
        l1d=_cache_level(spec.l1d),
        l2=_cache_level(spec.l2),
        l3=_cache_level(spec.l3),
    )


def area_model(spec: HardwareSpec) -> AreaModel:
    """The spec's die-area accounting (equivalent L3 MiB per core)."""
    return AreaModel(core_equiv_mib=spec.core_area_mib)


def power_model(spec: HardwareSpec) -> PowerModel:
    """The spec's socket/memory power model.

    The eDRAM per-access energy comes from the spec's L4 instance when
    one is declared; a spec without an L4 keeps the model's default so
    L4 what-if studies on it remain meaningful.
    """
    kwargs = dict(
        baseline_socket_watts=spec.baseline_socket_watts,
        core_fraction_of_socket=spec.core_fraction_of_socket,
        baseline_cores=spec.power_reference_cores,
        dram_access_nj=spec.memory.energy_nj,
        published_tdp_watts=spec.published_tdp_watts,
    )
    if spec.l4 is not None:
        kwargs["edram_access_nj"] = spec.l4.energy_nj
    return PowerModel(**kwargs)


def memory_latencies(spec: HardwareSpec) -> MemoryLatencies:
    """The spec's post-L2 latency parameters for the Eq. 1 model."""
    kwargs = dict(l3_hit_ns=spec.l3.latency_ns, mem_ns=spec.memory.latency_ns)
    if spec.l4 is not None:
        kwargs["l4_hit_ns"] = spec.l4.latency_ns
    return MemoryLatencies(**kwargs)


def perf_model(spec: HardwareSpec) -> SearchPerfModel:
    """Eq. 1's IPC/QPS model with the spec's latencies.

    The slope and intercept are the paper's published workload
    constants, not hardware attributes, so they stay at their defaults.
    """
    return SearchPerfModel(latencies=memory_latencies(spec))


def l4_config(spec: HardwareSpec, capacity_bytes: int | None = None) -> L4Config:
    """The spec's L4 as a simulator configuration.

    ``assoc=1`` maps to the direct-mapped design, ``assoc=0`` to the
    fully-associative sensitivity model; other associativities have no
    L4 simulator and raise.  The miss penalty is zero — the overlapped
    tag lookup of the proposed design — with the pessimistic scenario
    applied downstream via :class:`MemoryLatencies`.

    Units: ``capacity_bytes`` is bytes (defaults to the declared size).
    """
    if spec.l4 is None:
        raise ConfigurationError(f"spec {spec.name!r} declares no L4")
    if spec.l4.assoc == 1:
        associativity = "direct"
    elif spec.l4.assoc == 0:
        associativity = "full"
    else:
        raise ConfigurationError(
            f"no L4 model for a {spec.l4.assoc}-way design; "
            "declare assoc=1 (direct) or assoc=0 (fully associative)"
        )
    return L4Config(
        capacity=capacity_bytes if capacity_bytes is not None else spec.l4.size_bytes,
        block_size=spec.l4.block_bytes,
        hit_ns=spec.l4.latency_ns,
        miss_penalty_ns=0.0,
        associativity=associativity,
        technology=spec.l4.kind,
    )


def l4_static_watts(spec: HardwareSpec, l4_mib: float) -> float:
    """Standby/refresh power of an L4 of the spec's technology.

    Units: ``l4_mib`` is MiB of L4 capacity; the result is watts.
    Zero when the spec declares no L4 (or ``l4_mib`` is zero).
    """
    if l4_mib < 0:
        raise ConfigurationError(f"l4_mib must be >= 0, got {l4_mib}")
    if spec.l4 is None or l4_mib == 0:
        return 0.0
    return spec.l4.static_mw_per_mib * l4_mib / 1000.0


@dataclass(frozen=True)
class DerivedModels:
    """Every model view of one spec, derived once and carried together."""

    spec: HardwareSpec
    hierarchy: HierarchyConfig
    area: AreaModel
    power: PowerModel
    latencies: MemoryLatencies
    perf: SearchPerfModel

    def l4_config(self, capacity_bytes: int | None = None) -> L4Config:
        """The spec's L4 configuration, optionally at another capacity.

        Units: ``capacity_bytes`` is bytes.
        """
        return l4_config(self.spec, capacity_bytes)

    def l4_static_watts(self, l4_mib: float) -> float:
        """Standby/refresh watts of ``l4_mib`` MiB of the spec's L4.

        Units: ``l4_mib`` is MiB; the result is watts.
        """
        return l4_static_watts(self.spec, l4_mib)


def derive_models(spec: HardwareSpec) -> DerivedModels:
    """Derive every experiment-facing model object from one spec."""
    return DerivedModels(
        spec=spec,
        hierarchy=hierarchy_config(spec),
        area=area_model(spec),
        power=power_model(spec),
        latencies=memory_latencies(spec),
        perf=perf_model(spec),
    )
