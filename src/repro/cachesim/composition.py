"""Shared-cache composition of concurrent access streams.

**Why this exists.**  The paper's traces cover 135 *billion* instructions
because production rates are extreme: code touches ~100 cache lines per
kilo-instruction while the heap and shard touch only a handful — yet the
heap's working set is a gigabyte.  A flat trace long enough to expose the
heap curve at realistic rates is unsimulatable in Python.  Footprint theory
solves this compositionally (Xiang et al., HOTL, ASPLOS'13): each stream's
locality is measured once on its *own* densely-generated trace, and the
shared cache is modeled by solving, for a capacity C, the global time
window W at which the combined footprints fill the cache:

    sum_i  k_i * fp_i(r_i * W)  =  C

where ``r_i`` is stream i's access rate (per kilo-instruction), ``k_i`` its
multiplicity (identical private instances, e.g. per-thread stacks), and
``fp_i`` its average-footprint function.  A reuse by stream i then hits iff
its own-stream reuse time is at most ``r_i * W``.

This also makes thread scaling nearly free: threads drawing i.i.d. from the
same shared distribution (heap objects, shard terms, code) compose as a
single stream at T-times the rate, while private segments compose with
multiplicity T.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cachesim.misscurve import MissRatioCurve
from repro.errors import ConfigurationError, TraceError


@dataclass
class StreamComponent:
    """One access stream entering a shared cache.

    Parameters
    ----------
    name:
        Identifier used to retrieve per-stream results.
    lines:
        The stream's line addresses in its own program order.
    rate:
        Accesses per kilo-instruction contributed to the global interleave.
    multiplicity:
        Number of identical, mutually-private instances of this stream
        (per-thread stacks); footprint scales by it, hit rates do not.
    curve:
        Optional precomputed miss-ratio curve of ``lines``.  Curve
        construction dominates composed-hierarchy cost, so callers that
        already hold an equivalent curve — a rate rescale of the same
        stream, or a :meth:`~repro.cachesim.misscurve.MissRatioCurve.filtered`
        derivation of the parent level's curve — pass it through instead
        of rebuilding.  Omitted, the curve is built from ``lines``; either
        way the curve state is bit-identical.
    """

    name: str
    lines: np.ndarray
    rate: float
    multiplicity: int = 1
    curve: MissRatioCurve | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError(f"rate of {self.name!r} must be positive")
        if self.multiplicity < 1:
            raise ConfigurationError(
                f"multiplicity of {self.name!r} must be >= 1"
            )
        if len(self.lines) == 0:
            raise TraceError(f"stream {self.name!r} is empty")
        if self.curve is None:
            self.curve = MissRatioCurve(self.lines)

    @property
    def total_rate(self) -> float:
        """Aggregate rate including multiplicity."""
        return self.rate * self.multiplicity

    def scaled_rate(self, factor: float) -> "StreamComponent":
        """Same stream at a different rate (e.g. T threads sharing it).

        The miss-ratio curve depends only on the line stream, so the
        rescaled component shares this one's curve instead of rebuilding.
        """
        return StreamComponent(
            name=self.name,
            lines=self.lines,
            rate=self.rate * factor,
            multiplicity=self.multiplicity,
            curve=self.curve,
        )


def solve_windows(
    components: list[StreamComponent],
    capacities_lines: np.ndarray | list[int],
) -> np.ndarray:
    """Solve the composition window for many capacities in lockstep.

    For a capacity C the window W is the largest one whose combined
    footprint ``sum_i k_i * fp_i(r_i * W)`` fits in C: the longest stream
    span when everything fits, otherwise 60 bisection steps over
    ``[0, span]``, which pin W to full float precision.  Every capacity
    follows that recurrence independently in float64, components
    accumulated in order, so a window solved in a batch is bit-identical
    to the same capacity solved alone (and to the scalar bisection the
    test suite keeps as its oracle).
    """
    if not components:
        raise ConfigurationError("need at least one stream component")
    caps = np.asarray(capacities_lines, np.float64)
    if len(caps) == 0:
        return np.empty(0, np.float64)
    max_window = max(len(c.lines) / c.rate for c in components)

    def combined(windows: np.ndarray) -> np.ndarray:
        total: np.ndarray | None = None
        for c in components:
            term = c.multiplicity * c.curve.footprints_clamped(c.rate * windows)
            total = term if total is None else total + term
        assert total is not None
        return total

    fits = combined(np.full(caps.shape, max_window)) <= caps
    lo = np.zeros(caps.shape, np.float64)
    hi = np.full(caps.shape, max_window, np.float64)
    for __ in range(60):
        mid = (lo + hi) / 2.0
        le = combined(mid) <= caps
        lo = np.where(le, mid, lo)
        hi = np.where(le, hi, mid)
    return np.where(fits, max_window, lo)


class CompositeCache:
    """A shared LRU cache serving several concurrent streams.

    The residency window is solved by :func:`solve_windows`.  ``window``
    injects a pre-solved window (kilo-instructions), skipping the solve
    entirely — :meth:`repro.cachesim.composed.\
ComposedHierarchy.solve_l3_sweep` solves a whole capacity ladder in one
    lockstep pass and builds each cache this way.  The injected value must
    come from :func:`solve_windows` over the same components, which makes
    it bit-identical to what the in-constructor solve would produce.

    :meth:`miss_stream` gives a stream's misses as bare (lines, rate),
    which is all an interleave such as :func:`merge_streams_by_rate`
    reads.  :meth:`miss_component` adds the miss stream's curve for a
    downstream cache level, derived from the parent curve via
    :meth:`~repro.cachesim.misscurve.MissRatioCurve.filtered` instead of
    rebuilt — the same curve at a fraction of the cost, and the parent's
    own curve when nothing hits.
    """

    def __init__(
        self,
        components: list[StreamComponent],
        capacity_lines: int,
        *,
        window: float | None = None,
    ) -> None:
        if not components:
            raise ConfigurationError("need at least one stream component")
        names = [c.name for c in components]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate stream names: {names}")
        if capacity_lines <= 0:
            raise ConfigurationError("capacity_lines must be positive")
        self.components = {c.name: c for c in components}
        self.capacity_lines = capacity_lines
        if window is None:
            window = solve_windows(components, [capacity_lines])[0]
        self._window = float(window)

    # ------------------------------------------------------------------

    @property
    def global_window_ki(self) -> float:
        """The solved residency window, in kilo-instructions."""
        return self._window

    def _component(self, name: str) -> StreamComponent:
        try:
            return self.components[name]
        except KeyError:
            raise ConfigurationError(
                f"no stream named {name!r}; have {sorted(self.components)}"
            ) from None

    def own_window(self, name: str) -> float:
        """The residency window expressed in stream ``name``'s accesses."""
        return self._component(name).rate * self._window

    def hit_rate(self, name: str) -> float:
        """Hit rate of one stream in the shared cache."""
        component = self._component(name)
        return component.curve.hit_rate_for_window(self.own_window(name))

    def hit_mask(self, name: str) -> np.ndarray:
        """Per-access hit mask of one stream."""
        component = self._component(name)
        return component.curve.hit_mask_for_window(self.own_window(name))

    def _misses(self, name: str) -> tuple[np.ndarray, np.ndarray, float] | None:
        """(miss mask, miss lines, demoted rate) of one stream, or None.

        None when fewer than 2 accesses miss.  When every access misses,
        the miss lines are the component's own array, not a copy.
        """
        component = self._component(name)
        miss_mask = ~self.hit_mask(name)
        misses = int(np.count_nonzero(miss_mask))
        if misses < 2:
            return None
        accesses = len(component.lines)
        miss_lines = (
            component.lines if misses == accesses else component.lines[miss_mask]
        )
        return miss_mask, miss_lines, component.rate * (misses / accesses)

    def miss_stream(self, name: str) -> tuple[np.ndarray, float] | None:
        """(lines, rate) of one stream's misses, without a curve.

        The rate is demoted by the miss fraction:
        ``rate * (misses / accesses)``.  Returns None when fewer than 2
        accesses miss; when every access misses, the lines are the
        component's own array rather than a copy.
        """
        misses = self._misses(name)
        if misses is None:
            return None
        __, miss_lines, rate = misses
        return miss_lines, rate

    def miss_component(self, name: str) -> StreamComponent | None:
        """The stream of this component's misses, ready for the next level.

        The lines and demoted rate of :meth:`miss_stream`, plus the
        multiplicity and a miss-ratio curve derived from this component's
        curve with
        :meth:`~repro.cachesim.misscurve.MissRatioCurve.filtered` (this
        component's own curve when every access misses).  Returns None
        when fewer than 2 accesses miss.
        """
        misses = self._misses(name)
        if misses is None:
            return None
        miss_mask, miss_lines, rate = misses
        component = self._component(name)
        assert component.curve is not None  # established in __post_init__
        return StreamComponent(
            name=name,
            lines=miss_lines,
            rate=rate,
            multiplicity=component.multiplicity,
            curve=component.curve.filtered(miss_mask),
        )

    def mpki(self, name: str) -> float:
        """Misses per kilo-instruction of one stream (incl. multiplicity)."""
        component = self._component(name)
        return component.total_rate * (1.0 - self.hit_rate(name))

    def total_mpki(self) -> float:
        """Combined MPKI over all streams."""
        return sum(self.mpki(name) for name in self.components)


def merge_streams_by_rate(
    streams: list[tuple[np.ndarray, float]],
    rng: np.random.Generator,
    minor_rate_fraction: float = 0.25,
) -> tuple[np.ndarray, np.ndarray]:
    """Interleave several streams into one global order by their rates.

    ``streams`` are ``(lines, rate)`` pairs — e.g. what
    :meth:`CompositeCache.miss_stream` returns; only the lines and rates
    matter, so no miss-ratio curve is needed.  Returns
    ``(lines, stream_index)``.  The streams were generated with
    independent lengths, so each is truncated to the number of events its
    rate contributes over a common instruction span; each stream keeps its
    internal order while the cross-stream ordering is a proportionate
    random shuffle.  Used to build the L4's demand stream from per-segment
    L3 miss streams
    (:meth:`~repro.cachesim.composed.ComposedHierarchy.l4_demand`).

    The span is set by the *major* streams: streams that together carry
    at most ``minor_rate_fraction`` of the total rate may be shorter than
    the span requires — they are included in full and end up somewhat
    under-represented, which is harmless for the direct-mapped L4 study
    (their events only perturb set conflicts).  Without this, one short
    minor stream (e.g. the nearly-empty code miss stream) would truncate
    every other stream to its own tiny span and destroy their reuse.
    """
    if not streams:
        raise ConfigurationError("need at least one stream to merge")
    if not 0 <= minor_rate_fraction < 1:
        raise ConfigurationError("minor_rate_fraction must be in [0, 1)")
    for lines, rate in streams:
        if rate <= 0:
            raise ConfigurationError(f"stream rates must be positive, got {rate}")
        if len(lines) == 0:
            raise TraceError("cannot merge an empty stream")
    total_rate = sum(rate for __, rate in streams)
    # Walk candidate spans from shortest stream up; streams shorter than
    # the candidate span are "minor" and must stay under the rate budget.
    by_span = sorted(streams, key=lambda stream: len(stream[0]) / stream[1])
    span_ki = len(by_span[0][0]) / by_span[0][1]
    minor_rate = 0.0
    for position, (__, rate) in enumerate(by_span[:-1]):
        if (minor_rate + rate) / total_rate > minor_rate_fraction:
            break
        minor_rate += rate
        next_lines, next_rate = by_span[position + 1]
        span_ki = len(next_lines) / next_rate

    counts = [max(1, min(len(lines), int(rate * span_ki))) for lines, rate in streams]
    total = sum(counts)
    tags = np.concatenate(
        [np.full(count, i, np.int32) for i, count in enumerate(counts)]
    )
    rng.shuffle(tags)
    lines = np.empty(total, np.int64)
    for i, ((stream_lines, __), count) in enumerate(zip(streams, counts)):
        lines[tags == i] = stream_lines[:count]
    return lines, tags
