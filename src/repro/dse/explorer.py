"""The design-space exploration engine (iso-area / iso-power search).

:class:`DesignSpaceExplorer` scores every :class:`DesignPoint` of a
:class:`DesignSpace` with the paper's calibrated models, all derived
from the declarative specs in :mod:`repro.hw.catalog`:

* **QPS** — Eq. 1 over the Figure 10 effective L3 hit curve, with the
  L4 term fed by simulating the composed run's L3 miss stream (the same
  path as Figures 13/14, so the smaller-L3-feeds-hotter-L4 synergy is
  captured).  To keep thousands of candidates tractable, the L4 demand
  stream is taken at the nearest :data:`L3_GRID_MIB` capacity and the
  resulting hit rates are memoized per (grid capacity, L4 size) — L4
  hit rates are latency-independent, so two latency variants share one
  simulation.
* **Area** — core-equivalent MiB of cores + L3 (the L4 sits on-package,
  off the processor die, and is excluded, as in the paper's iso-area
  framing).
* **Power / energy** — linear socket power plus the L4's standby
  watts; energy per query is watts over relative QPS.

Evaluating the paper's chosen points through this engine reproduces the
figure experiments bit-for-bit: the (23 cores, 23 MiB) candidate's QPS
improvement equals Figure 10's SMT-on quantized optimum, and the
(23, 23, 1 GiB @ 40 ns) candidate equals Figure 14's baseline-scenario
combined improvement — the differential battery in ``tests/dse`` pins
both.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro._units import MiB
from repro.core.hitcurve import LogLinearHitCurve
from repro.core.l4cache import L4Cache
from repro.dse.pareto import pareto_frontier
from repro.dse.space import DesignPoint, DesignSpace
from repro.errors import ConfigurationError
from repro.hw.adapters import DerivedModels, derive_models
from repro.hw.catalog import plt1, proposed

#: L3 capacities (paper-scale MiB) at which L4 demand streams are taken.
#: The grid is the CAT half-way ladder with 22.5 MiB replaced by the
#: paper's 23 MiB design point, so the chosen design's L4 sees exactly
#: the demand stream Figures 13/14 simulate.
L3_GRID_MIB = (4.5, 9.0, 13.5, 18.0, 23.0, 27.0, 31.5, 36.0, 40.5, 45.0)


@dataclass(frozen=True)
class Constraints:
    """Feasibility bounds for the search; ``None`` disables a bound.

    Units: ``max_area_mib`` is core-equivalent MiB of cores + L3;
    ``max_socket_watts`` is watts (socket power plus L4 standby power).
    """

    max_area_mib: float | None = None
    max_socket_watts: float | None = None

    def __post_init__(self) -> None:
        """Validate that every active bound is positive."""
        if self.max_area_mib is not None and self.max_area_mib <= 0:
            raise ConfigurationError("max_area_mib must be positive")
        if self.max_socket_watts is not None and self.max_socket_watts <= 0:
            raise ConfigurationError("max_socket_watts must be positive")

    def allows(self, design: "EvaluatedDesign") -> bool:
        """Whether an evaluated design satisfies every active bound."""
        if self.max_area_mib is not None and design.area_mib > self.max_area_mib:
            return False
        if (
            self.max_socket_watts is not None
            and design.watts > self.max_socket_watts
        ):
            return False
        return True

    @classmethod
    def iso_plt1(cls, power_slack: float = 0.10) -> "Constraints":
        """The paper's framing: PLT1's area, near PLT1's published TDP.

        The area budget is the baseline 18-core / 45 MiB design in
        core-equivalent MiB (117); the power budget is the published TDP
        plus ``power_slack`` headroom — the paper's 23-core design sits
        within 3.8% of TDP, so a zero-slack budget would exclude it.
        """
        if power_slack < 0:
            raise ConfigurationError("power_slack must be >= 0")
        spec = plt1()
        models = derive_models(spec)
        return cls(
            max_area_mib=models.area.total_area_mib(
                spec.cores_per_socket, spec.l3.size_mib
            ),
            max_socket_watts=spec.published_tdp_watts * (1.0 + power_slack),
        )


@dataclass(frozen=True)
class EvaluatedDesign:
    """One scored candidate — the objective vector plus its diagnostics.

    Units: ``qps`` is relative throughput (cores x IPC, same unit as the
    figure experiments); ``area_mib`` is core-equivalent MiB;
    ``watts`` is watts; ``energy_per_query`` is watts per unit of
    relative QPS (relative joules/query); ``memory_nj_per_ki`` is
    nanojoules per kilo-instruction.
    """

    point: DesignPoint
    qps: float
    qps_improvement: float
    area_mib: float
    watts: float
    energy_per_query: float
    l3_hit_rate: float
    l4_hit_rate: float | None
    memory_nj_per_ki: float

    def render(self) -> str:
        """One-line summary for reports."""
        l4 = f"h(L4)={self.l4_hit_rate:5.1%}" if self.l4_hit_rate is not None else "no L4     "
        return (
            f"{self.point.describe():<26} QPS {self.qps_improvement:+6.1%}  "
            f"area {self.area_mib:6.1f} MiB  {self.watts:6.1f} W  "
            f"E/q {self.energy_per_query:6.3f}  {l4}"
        )


@dataclass(frozen=True)
class ExplorationResult:
    """Outcome of one exploration: all scores, the feasible set, the frontier."""

    evaluated: tuple[EvaluatedDesign, ...]
    feasible: tuple[EvaluatedDesign, ...]
    frontier: tuple[EvaluatedDesign, ...]
    constraints: Constraints

    def find(self, point: DesignPoint) -> EvaluatedDesign | None:
        """The evaluation of an exact design point, or None."""
        for design in self.evaluated:
            if design.point == point:
                return design
        return None

    def frontier_contains(self, point: DesignPoint) -> bool:
        """Whether a design point survived to the Pareto frontier."""
        return any(design.point == point for design in self.frontier)

    def best_qps(self) -> EvaluatedDesign:
        """The feasible design with the highest throughput."""
        if not self.feasible:
            raise ConfigurationError("no feasible design under the constraints")
        return max(self.feasible, key=lambda d: (d.qps, d.point.sort_key))


class DesignSpaceExplorer:
    """Scores candidate hierarchies against the PLT1 baseline design.

    Parameters
    ----------
    preset:
        Stream scale for the L4 demand simulations (quick by default).
    hit_rate_fn:
        L3 hit rate vs. paper-scale capacity in bytes; defaults to the
        Figure 10 effective curve (the figure experiments' curve).
    models:
        The calibrated model bundle; defaults to the proposed design's
        spec-derived models, whose latency/area/power parameters equal
        the hand-coded paper models (differential battery, PR 10).
    """

    def __init__(
        self,
        preset=None,
        profile: str = "s1-leaf",
        platform: str = "plt1",
        hit_rate_fn: Callable[[int], float] | None = None,
        models: DerivedModels | None = None,
    ) -> None:
        """Wire up curve, models, and the PLT1 baseline throughput."""
        from repro.experiments.common import RunPreset

        self.preset = preset or RunPreset.quick()
        self.profile = profile
        self.platform = platform
        self.hit_rate_fn = hit_rate_fn or LogLinearHitCurve.fig10_effective()
        self.models = models or derive_models(proposed())
        baseline = plt1()
        self.baseline_cores = baseline.cores_per_socket
        self.baseline_l3_mib = baseline.l3.size_mib
        self.baseline_qps = self.models.perf.qps(
            self.baseline_cores,
            self.hit_rate_fn(int(self.baseline_l3_mib * MiB)),
        )
        self._l4_hits: dict[tuple[float, int], float] = {}
        self._mpki: dict[int, float] = {}

    # ------------------------------------------------------------------

    @property
    def run(self):
        """The composed hierarchy run feeding the L4 simulations."""
        from repro.experiments.common import composed_run

        return composed_run(self.profile, self.preset, platform=self.platform)

    def _scaled_bytes(self, paper_bytes: float) -> int:
        """Paper-scale bytes -> stream-scale bytes (block-size floored).

        Units: ``paper_bytes`` is bytes at paper scale.
        """
        return max(self.run.block_size, int(paper_bytes * self.preset.scale))

    @staticmethod
    def quantized_l3_mib(l3_mib: float) -> float:
        """The :data:`L3_GRID_MIB` capacity nearest to an L3 size.

        Ties break toward the smaller grid point (hotter demand stream).

        Units: ``l3_mib`` is paper-scale MiB.
        """
        return min(L3_GRID_MIB, key=lambda grid: (abs(grid - l3_mib), grid))

    def l4_hit_rate(self, grid_mib: float, l4_mib: int) -> float:
        """Simulated L4 hit rate over the grid capacity's miss stream.

        Memoized per (grid capacity, L4 size): hit rates are independent
        of the candidate's L4 latencies, so all latency variants of one
        geometry share a single direct-mapped simulation.  The demand
        stream itself is memoized on the composed run
        (:meth:`~repro.cachesim.composed.ComposedHierarchy.l4_demand`).

        Units: ``grid_mib`` and ``l4_mib`` are paper-scale MiB.
        """
        key = (grid_mib, l4_mib)
        if key not in self._l4_hits:
            lines, segments = self.run.l4_demand(
                self._scaled_bytes(grid_mib * MiB)
            )
            config = self.models.l4_config(self._scaled_bytes(l4_mib * MiB))
            self._l4_hits[key] = L4Cache(config).simulate(lines, segments).hit_rate
        return self._l4_hits[key]

    def _l3_mpki(self, capacity_bytes: int) -> float:
        """Memoized per-thread L3 MPKI at a stream-scale capacity.

        Many candidates share an L3 size, and the composed run's MPKI
        query re-reduces the miss curves on every call — the memo turns
        the per-point cost into a dict lookup.

        Units: ``capacity_bytes`` is stream-scale bytes.
        """
        if capacity_bytes not in self._mpki:
            self._mpki[capacity_bytes] = self.run.l3_mpki(capacity_bytes)
        return self._mpki[capacity_bytes]

    # ------------------------------------------------------------------

    def evaluate(self, point: DesignPoint) -> EvaluatedDesign:
        """Score one candidate against the 18-core / 45 MiB baseline."""
        h3 = self.hit_rate_fn(int(point.l3_mib * MiB))
        if point.has_l4:
            h4 = self.l4_hit_rate(self.quantized_l3_mib(point.l3_mib), point.l4_mib)
            latencies = replace(
                self.models.latencies,
                l4_hit_ns=point.l4_hit_ns,
                l4_miss_penalty_ns=point.l4_miss_penalty_ns,
            )
            perf = self.models.perf.with_latencies(latencies)
            qps = perf.qps(point.cores, h3, l4_hit_rate=h4)
        else:
            h4 = None
            qps = self.models.perf.qps(point.cores, h3)
        watts = self.models.power.socket_watts(point.cores)
        if point.has_l4:
            watts += self.models.l4_static_watts(float(point.l4_mib))
        mpki = self._l3_mpki(self._scaled_bytes(point.l3_mib * MiB))
        return EvaluatedDesign(
            point=point,
            qps=qps,
            qps_improvement=qps / self.baseline_qps - 1.0,
            area_mib=self.models.area.total_area_mib(point.cores, point.l3_mib),
            watts=watts,
            energy_per_query=self.models.power.energy_per_query(watts, qps),
            l3_hit_rate=h3,
            l4_hit_rate=h4,
            memory_nj_per_ki=self.models.power.memory_energy_per_ki(
                mpki, l4_hit_rate=h4
            ),
        )

    def prime(self, space: DesignSpace) -> None:
        """Batch-solve every distinct L3 capacity the space will touch.

        One fused :meth:`~repro.cachesim.composed.ComposedHierarchy.solve_l3_sweep`
        call covers the MPKI capacities and the L4 demand grid, so the
        per-point evaluations afterwards are pure memo lookups.
        """
        capacities = {self._scaled_bytes(p.l3_mib * MiB) for p in space}
        capacities.update(
            self._scaled_bytes(grid * MiB) for grid in L3_GRID_MIB
        )
        self.run.solve_l3_sweep(sorted(capacities))

    def explore(
        self,
        space: DesignSpace | None = None,
        constraints: Constraints | None = None,
    ) -> ExplorationResult:
        """Evaluate a space, filter by constraints, take the frontier."""
        space = space if space is not None else DesignSpace.paper_default()
        constraints = constraints if constraints is not None else Constraints.iso_plt1()
        self.prime(space)
        evaluated = tuple(self.evaluate(point) for point in space)
        feasible = tuple(d for d in evaluated if constraints.allows(d))
        frontier = tuple(pareto_frontier(feasible))
        return ExplorationResult(
            evaluated=evaluated,
            feasible=feasible,
            frontier=frontier,
            constraints=constraints,
        )
