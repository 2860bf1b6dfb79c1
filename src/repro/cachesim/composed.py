"""Composable multi-level hierarchy simulation at production rates.

This is the engine behind the paper-scale experiments.  Per-segment access
streams (code / heap / shard / stack) are generated *independently* — each
long enough to expose its own working set — and composed through the
hierarchy at the workload's nominal touch rates:

* **L1-I** (private): the code stream alone.
* **L1-D** (private): heap + shard + stack composed at their rates.
* **L2** (private, unified): the miss streams of both L1s, composed.
* **L3** (shared): the L2 miss streams of all threads.  Threads sample the
  same shared code/heap/shard distributions, so their union is the same
  process at T-times the rate; stacks are private and enter with
  multiplicity T.
* **L4** (memory-side): the interleaved L3 miss streams (see
  :mod:`repro.core.l4cache`).

Every level is a :class:`~repro.cachesim.composition.CompositeCache`; the
L3 can be re-solved at any capacity in microseconds, which is what makes
the paper's 4 MiB → 8 GiB sweeps (Figures 6 and 13) cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cachesim.composition import (
    CompositeCache,
    StreamComponent,
    merge_streams_by_rate,
    solve_windows,
)
from repro.cachesim.hierarchy import HierarchyConfig
from repro.errors import ConfigurationError
from repro.memtrace.trace import Segment
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class SegmentRates:
    """Nominal unique-line touch rates per kilo-instruction, per thread.

    These are the paper-realistic rates: instruction fetch advances roughly
    one line per ~10 sequential instructions, while data segments touch only
    a few *distinct* lines per kilo-instruction (repeat touches of a
    resident line hit trivially and are not modeled).
    """

    code: float = 100.0
    heap: float = 6.0
    shard: float = 2.5
    stack: float = 4.0

    def __post_init__(self) -> None:
        """Validate that every segment rate is positive."""
        for name in ("code", "heap", "shard", "stack"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"rate {name} must be positive")

    def of(self, segment: Segment) -> float:
        """Touch rate of one segment (accesses per kilo-instruction)."""
        return {
            Segment.CODE: self.code,
            Segment.HEAP: self.heap,
            Segment.SHARD: self.shard,
            Segment.STACK: self.stack,
        }[segment]


def _release_unshared(
    caches: tuple[CompositeCache, ...], kept: list[StreamComponent]
) -> None:
    """Release the per-access arrays of the caches' curves, except those
    the ``kept`` components share: a stream whose every access misses
    hands its own curve to the next level."""
    shared = {id(component.curve) for component in kept}
    for cache in caches:
        for component in cache.components.values():
            if id(component.curve) not in shared:
                assert component.curve is not None
                component.curve.release_positions()


class ComposedHierarchy:
    """Drives per-segment line streams through a composed hierarchy.

    Parameters
    ----------
    streams:
        Line-address arrays (at the hierarchy's block granularity) for each
        segment, single-thread view.
    rates:
        Nominal per-thread touch rates.
    config:
        Cache hierarchy; all levels must share one block size.
    threads:
        Hardware threads sharing the L3.

    Miss-stream curves are derived from each level's parent curve
    (:meth:`~repro.cachesim.misscurve.MissRatioCurve.filtered`) instead
    of rebuilt, L3 re-solves are memoized per capacity so capacity
    sweeps batch through :meth:`solve_l3_sweep`, and L4 demand streams
    are memoized per (L3 capacity, seed) — see :meth:`l4_demand`.

    Once a level's miss-stream curves are derived, the L1 and L2 curves
    drop their per-access arrays
    (:meth:`~repro.cachesim.misscurve.MissRatioCurve.release_positions`):
    their hit rates, MPKIs and re-solves read only histograms, so the
    ``l1i``, ``l1d`` and ``l2`` caches answer everything but hit masks
    and miss streams.  Curves the L3 shares keep everything.
    """

    def __init__(
        self,
        streams: dict[Segment, np.ndarray],
        rates: SegmentRates,
        config: HierarchyConfig,
        threads: int = 1,
    ) -> None:
        """Compose the L1/L2/L3 caches from the per-segment streams."""
        if threads < 1:
            raise ConfigurationError(f"threads must be >= 1, got {threads}")
        blocks = {
            level.geometry.block_size for level in config.levels()
        }
        if len(blocks) != 1:
            raise ConfigurationError(
                "composed simulation requires a uniform block size"
            )
        missing = {Segment.CODE, Segment.HEAP, Segment.SHARD} - set(streams)
        if missing:
            raise ConfigurationError(
                f"streams missing for segments: {sorted(s.name for s in missing)}"
            )
        self.rates = rates
        self.config = config
        self.threads = threads
        self.block_size = blocks.pop()
        #: Memoized L3 re-solves keyed on capacity in lines.
        self._l3_solves: dict[int, CompositeCache] = {}
        #: Memoized (read-only) L4 demand streams keyed on
        #: (L3 capacity in lines, seed).
        self._l4_demands: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

        # ---- L1-I: code alone -------------------------------------------
        code = StreamComponent(
            "code", streams[Segment.CODE], rate=rates.code
        )
        self.l1i = CompositeCache([code], config.l1i.geometry.capacity_lines)

        # ---- L1-D: data segments ----------------------------------------
        data_components = [
            StreamComponent("heap", streams[Segment.HEAP], rate=rates.heap),
            StreamComponent("shard", streams[Segment.SHARD], rate=rates.shard),
        ]
        if Segment.STACK in streams:
            data_components.append(
                StreamComponent("stack", streams[Segment.STACK], rate=rates.stack)
            )
        self.l1d = CompositeCache(
            data_components, config.l1d.geometry.capacity_lines
        )

        # ---- L2: both L1s' misses ----------------------------------------
        l2_components = [
            c
            for c in (
                self.l1i.miss_component("code"),
                self.l1d.miss_component("heap"),
                self.l1d.miss_component("shard"),
                self.l1d.miss_component("stack")
                if Segment.STACK in streams
                else None,
            )
            if c is not None
        ]
        if not l2_components:
            raise ConfigurationError("nothing missed the L1s; enlarge the streams")
        _release_unshared((self.l1i, self.l1d), l2_components)
        self.l2 = CompositeCache(l2_components, config.l2.geometry.capacity_lines)

        # ---- L3 inputs: all threads' L2 misses ----------------------------
        self._l3_inputs: list[StreamComponent] = []
        for name in ("code", "heap", "shard", "stack"):
            if name not in self.l2.components:
                continue
            miss = self.l2.miss_component(name)
            if miss is None:
                continue
            if name == "stack":
                miss = StreamComponent(
                    name=miss.name,
                    lines=miss.lines,
                    rate=miss.rate,
                    multiplicity=threads,
                    curve=miss.curve,
                )
            else:
                miss = miss.scaled_rate(threads)
            self._l3_inputs.append(miss)
        if not self._l3_inputs:
            raise ConfigurationError("nothing missed the L2; enlarge the streams")
        _release_unshared((self.l2,), self._l3_inputs)

        self.l3 = (
            CompositeCache(self._l3_inputs, config.l3.geometry.capacity_lines)
            if config.l3 is not None
            else None
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _level(self, level: str) -> tuple[CompositeCache, float]:
        """(cache, MPKI normalizer) for a level name."""
        caches = {"L1I": (self.l1i, 1.0), "L1D": (self.l1d, 1.0), "L2": (self.l2, 1.0)}
        if self.l3 is not None:
            caches["L3"] = (self.l3, float(self.threads))
        try:
            return caches[level]
        except KeyError:
            raise ConfigurationError(
                f"unknown level {level!r}; have {sorted(caches)}"
            ) from None

    def mpki(self, level: str, segment: Segment | None = None) -> float:
        """MPKI at a level, total or for one segment; 0 for absent streams."""
        cache, normalizer = self._level(level)
        if segment is None:
            return cache.total_mpki() / normalizer
        name = segment.name.lower()
        if name not in cache.components:
            return 0.0
        return cache.mpki(name) / normalizer

    def hit_rate(self, level: str, segment: Segment) -> float:
        """Hit rate of one segment's stream at a level."""
        cache, __ = self._level(level)
        name = segment.name.lower()
        if name not in cache.components:
            raise ConfigurationError(
                f"segment {segment.name} does not reach {level}"
            )
        return cache.hit_rate(name)

    def record_metrics(self, registry: MetricsRegistry) -> None:
        """Publish per-level MPKI and hit rates as ``repro.mem.*`` gauges.

        On-demand reporting — the hot solve paths stay uninstrumented;
        call this after the hierarchy is built (or re-solved) to dump its
        steady-state behaviour.  Gauges overwrite on repeated calls.
        """
        levels = ["L1I", "L1D", "L2"] + (["L3"] if self.l3 is not None else [])
        mpki = registry.gauge(
            "repro.mem.cache.mpki",
            help="Misses per kilo-instruction per cache level (per thread).",
            unit="mpki",
        )
        for level in levels:
            cache, __ = self._level(level)
            child = mpki.labels(level=level.lower())
            child.set(self.mpki(level))
            hit_gauge = registry.gauge(
                f"repro.mem.cache.{level.lower()}.hit_rate",
                help=f"Per-segment hit rate at {level}.",
                unit="fraction",
            )
            for name in sorted(cache.components):
                hit_gauge.labels(segment=name).set(cache.hit_rate(name))
        registry.gauge(
            "repro.mem.cache.threads",
            help="Hardware threads sharing the composed L3.",
            unit="threads",
        ).set(self.threads)

    # ------------------------------------------------------------------
    # L3 capacity sweeps and the L4 demand stream
    # ------------------------------------------------------------------

    def l3_at(self, capacity_bytes: int) -> CompositeCache:
        """Re-solve the shared L3 at another capacity (cheap, memoized).

        Solves are memoized per capacity (in lines), so sweeps
        batch-primed through :meth:`solve_l3_sweep` — and repeated
        checkpoint queries — cost one lookup.

        Units: ``capacity_bytes`` is the L3 capacity in bytes.
        """
        lines = max(1, capacity_bytes // self.block_size)
        cached = self._l3_solves.get(lines)
        if cached is not None:
            return cached
        cache = CompositeCache(self._l3_inputs, lines)
        self._l3_solves[lines] = cache
        return cache

    def solve_l3_sweep(
        self, capacities_bytes: list[int] | np.ndarray
    ) -> list[CompositeCache]:
        """Solve the L3 at many capacities in one lockstep pass.

        All not-yet-memoized capacities go through a single
        :func:`~repro.cachesim.composition.solve_windows` call — every
        element of the batch follows the bisection recurrence
        independently, so each resulting cache is bit-identical to a
        per-point :meth:`l3_at` solve.  Returns the caches in request
        order.

        Units: ``capacities_bytes`` are L3 capacities in bytes.
        """
        seen: dict[int, None] = {}
        for capacity in capacities_bytes:
            seen.setdefault(max(1, int(capacity) // self.block_size))
        todo = [c for c in seen if c not in self._l3_solves]
        if todo:
            windows = solve_windows(self._l3_inputs, todo)
            for lines, window in zip(todo, windows):
                self._l3_solves[lines] = CompositeCache(
                    self._l3_inputs, lines, window=float(window)
                )
        return [self.l3_at(int(c)) for c in capacities_bytes]

    def l3_hit_rate(self, capacity_bytes: int, segment: Segment | None = None) -> float:
        """Overall (rate-weighted) or per-segment L3 hit rate at a capacity.

        Units: ``capacity_bytes`` is the L3 capacity in bytes.
        """
        cache = self.l3_at(capacity_bytes)
        if segment is not None:
            name = segment.name.lower()
            if name not in cache.components:
                return 0.0
            return cache.hit_rate(name)
        total_rate = sum(c.total_rate for c in cache.components.values())
        return sum(
            c.total_rate * cache.hit_rate(name)
            for name, c in cache.components.items()
        ) / total_rate

    def l3_mpki(self, capacity_bytes: int, segment: Segment | None = None) -> float:
        """L3 MPKI at an arbitrary capacity (Figure 6c).

        Units: ``capacity_bytes`` is the L3 capacity in bytes.
        """
        cache = self.l3_at(capacity_bytes)
        if segment is None:
            return cache.total_mpki() / self.threads
        name = segment.name.lower()
        if name not in cache.components:
            return 0.0
        return cache.mpki(name) / self.threads

    def l4_demand(
        self, l3_capacity_bytes: int, seed: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """(lines, segments) of the L3 miss stream at a capacity.

        This is the demand an L4 victim cache observes; segments are
        :class:`~repro.memtrace.trace.Segment` values.  Each L3 stream's
        misses (:meth:`~repro.cachesim.composition.CompositeCache.miss_stream`:
        lines and demoted rate, no curve — streams with fewer than 2
        misses are dropped) are interleaved by
        :func:`~repro.cachesim.composition.merge_streams_by_rate` with a
        generator seeded by ``seed``.

        The stream is built once per (L3 capacity in lines, seed) and
        memoized on this run, like the L3 solves: Figures 13 and 14, the
        power, ablation and DSE studies all ask for the same few streams.
        Both arrays are therefore read-only; copy them to modify.

        Units: ``l3_capacity_bytes`` is the L3 capacity in bytes.
        """
        key = (max(1, l3_capacity_bytes // self.block_size), seed)
        cached = self._l4_demands.get(key)
        if cached is not None:
            return cached
        cache = self.l3_at(l3_capacity_bytes)
        streams = []
        segment_codes = []
        for name in cache.components:
            miss = cache.miss_stream(name)
            if miss is not None:
                streams.append(miss)
                segment_codes.append(int(Segment[name.upper()]))
        if not streams:
            raise ConfigurationError("the L3 absorbed everything at this capacity")
        lines, tags = merge_streams_by_rate(streams, np.random.default_rng(seed))
        segments = np.array(segment_codes, np.uint8)[tags]
        lines.flags.writeable = False
        segments.flags.writeable = False
        self._l4_demands[key] = (lines, segments)
        return lines, segments
