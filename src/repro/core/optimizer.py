"""Combined hierarchy evaluation: rebalanced L3 + eDRAM L4 (Figure 14).

Evaluates the paper's final design — 23 cores, 1 MiB/core of L3, and an
on-package L4 — against the 18-core / 45 MiB PLT1 baseline, across the
paper's four scenarios:

* **baseline** — 40 ns direct-mapped L4, overlapped miss path; the paper
  reports +27% at 1 GiB.
* **pessimistic** — 60 ns hit, 5 ns un-overlapped miss penalty; still >23%.
* **associative** — fully-associative L4 (sensitivity: ~1 point better than
  direct-mapped, validating the simple design).
* **future** — memory latency and L3 misses both grown 10%; +38%.

Besides the Eq. 1 and area models (the paper's come from
:func:`repro.experiments.common.paper_models`), the evaluator needs two
inputs:

1. an **L4 demand stream source** — anything exposing ``block_size``,
   ``l3_hit_rate(capacity_bytes)`` and ``l4_demand(capacity_bytes)``,
   such as :class:`~repro.cachesim.composed.ComposedHierarchy`;
2. optionally an **L3 hit-rate function** in paper-scale bytes (e.g. the
   Figure 9/10 effective curve) used in the AMAT model; by default the
   stream source's own demand curve is used.

Because the L4's demand stream is taken at the *rebalanced* (smaller) L3,
the synergy the paper highlights — a smaller L3 feeds the L4 hotter data,
raising its hit rate ~10% — emerges naturally rather than being assumed.

Experiments run at reduced ``scale``; capacities accepted by this module
are paper-scale bytes and are scaled internally before touching streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro._units import MiB, format_size
from repro.cachesim.misscurve import MissRatioCurve
from repro.core.area import AreaModel
from repro.core.l4cache import L4Cache, L4Config
from repro.core.perf_model import MemoryLatencies, SearchPerfModel
from repro.errors import ConfigurationError


class L3StreamSource(Protocol):
    """What the evaluator needs from a simulated hierarchy."""

    block_size: int

    def l3_hit_rate(self, capacity_bytes: int) -> float:
        """Demand L3 hit rate at a (scaled) capacity."""

    def l4_demand(self, l3_capacity_bytes: int) -> tuple[np.ndarray, np.ndarray]:
        """(lines, segments) of the L3 miss stream at a (scaled) capacity."""


@dataclass(frozen=True)
class SensitivityScenario:
    """One column group of Figure 14."""

    name: str
    latencies: MemoryLatencies = field(default_factory=MemoryLatencies)
    l4_associativity: str = "direct"
    #: Multiplier on L3 miss *rates* (the future scenario uses 1.10).
    l3_miss_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.l3_miss_scale < 1.0:
            raise ConfigurationError("l3_miss_scale must be >= 1")

    @classmethod
    def baseline(cls) -> "SensitivityScenario":
        return cls(name="baseline")

    @classmethod
    def pessimistic(cls) -> "SensitivityScenario":
        return cls(name="pessimistic", latencies=MemoryLatencies().pessimistic())

    @classmethod
    def associative(cls) -> "SensitivityScenario":
        return cls(name="associative", l4_associativity="full")

    @classmethod
    def future(cls) -> "SensitivityScenario":
        return cls(
            name="future",
            latencies=MemoryLatencies().future(),
            l3_miss_scale=1.10,
        )

    @classmethod
    def all_scenarios(cls) -> list["SensitivityScenario"]:
        return [cls.baseline(), cls.pessimistic(), cls.associative(), cls.future()]


@dataclass(frozen=True)
class DesignEvaluation:
    """Outcome of evaluating one (scenario, L4 capacity) design point."""

    scenario: str
    l4_capacity: int
    cores: int
    l3_mib: float
    l3_hit_rate: float
    l4_hit_rate: float
    qps_improvement: float
    rebalance_only_improvement: float

    def render(self) -> str:
        return (
            f"{self.scenario:<12} L4={format_size(self.l4_capacity):>8}  "
            f"h(L3)={self.l3_hit_rate:5.1%}  h(L4)={self.l4_hit_rate:5.1%}  "
            f"QPS {self.qps_improvement:+6.1%} "
            f"(rebalance alone {self.rebalance_only_improvement:+.1%})"
        )


class HierarchyDesignEvaluator:
    """Evaluates rebalance + L4 designs over one simulated workload."""

    def __init__(
        self,
        stream_source: L3StreamSource,
        perf_model: SearchPerfModel,
        area_model: AreaModel,
        scale: float = 1.0,
        l3_hit_fn: Callable[[int], float] | None = None,
        baseline_cores: int = 18,
        baseline_l3_mib: float = 45.0,
        design_cores: int = 23,
        design_l3_mib: float = 23.0,
    ) -> None:
        if not 0 < scale <= 1:
            raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
        self.source = stream_source
        self.scale = scale
        self.l3_hit_fn = l3_hit_fn
        self.perf_model = perf_model
        self.area_model = area_model
        self.baseline_cores = baseline_cores
        self.baseline_l3_mib = baseline_l3_mib
        self.design_cores = design_cores
        self.design_l3_mib = design_l3_mib
        self._l4_cache: dict[tuple, float] = {}
        #: LRU curves of the L4 demand streams, keyed on the scaled L3
        #: capacity: every fully-associative L4 capacity reads one.
        self._l4_curves: dict[int, MissRatioCurve] = {}

    # ------------------------------------------------------------------

    def _scaled_bytes(self, paper_bytes: float) -> int:
        return max(self.source.block_size, int(paper_bytes * self.scale))

    def _l3_hit_rate(self, paper_l3_mib: float) -> float:
        if self.l3_hit_fn is not None:
            return self.l3_hit_fn(int(paper_l3_mib * MiB))
        return self.source.l3_hit_rate(self._scaled_bytes(paper_l3_mib * MiB))

    @staticmethod
    def _apply_miss_scale(hit_rate: float, miss_scale: float) -> float:
        return max(0.0, 1.0 - (1.0 - hit_rate) * miss_scale)

    def _l4_hit_rate(self, scenario: SensitivityScenario, l4_capacity: int) -> float:
        key = (scenario.l4_associativity, l4_capacity)
        if key in self._l4_cache:
            return self._l4_cache[key]
        l3_bytes = self._scaled_bytes(self.design_l3_mib * MiB)
        lines, segments = self.source.l4_demand(l3_bytes)
        config = L4Config(
            capacity=self._scaled_bytes(l4_capacity),
            block_size=self.source.block_size,
            hit_ns=scenario.latencies.l4_hit_ns,
            miss_penalty_ns=scenario.latencies.l4_miss_penalty_ns,
            associativity=scenario.l4_associativity,
        )
        curve = None
        if config.associativity == "full":
            curve = self._l4_curves.get(l3_bytes)
            if curve is None:
                curve = self._l4_curves[l3_bytes] = MissRatioCurve(lines)
        hit = L4Cache(config).simulate(lines, segments, curve=curve).hit_rate
        self._l4_cache[key] = hit
        return hit

    # ------------------------------------------------------------------

    def evaluate(
        self, scenario: SensitivityScenario, l4_capacity: int
    ) -> DesignEvaluation:
        """Evaluate one design point; ``l4_capacity`` is paper-scale bytes."""
        model = self.perf_model.with_latencies(scenario.latencies)

        h3_base = self._apply_miss_scale(
            self._l3_hit_rate(self.baseline_l3_mib), scenario.l3_miss_scale
        )
        h3_design = self._apply_miss_scale(
            self._l3_hit_rate(self.design_l3_mib), scenario.l3_miss_scale
        )
        h4 = self._l4_hit_rate(scenario, l4_capacity)

        qps_baseline = model.qps(self.baseline_cores, h3_base)
        qps_rebalance = model.qps(self.design_cores, h3_design)
        qps_design = model.qps(self.design_cores, h3_design, l4_hit_rate=h4)

        return DesignEvaluation(
            scenario=scenario.name,
            l4_capacity=l4_capacity,
            cores=self.design_cores,
            l3_mib=self.design_l3_mib,
            l3_hit_rate=h3_design,
            l4_hit_rate=h4,
            qps_improvement=qps_design / qps_baseline - 1.0,
            rebalance_only_improvement=qps_rebalance / qps_baseline - 1.0,
        )
