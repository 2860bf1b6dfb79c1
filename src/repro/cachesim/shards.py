"""Streaming SHARDS miss-ratio-curve estimation (Waldspurger et al., 2015).

The exact engines (:mod:`repro.cachesim.mattson`,
:mod:`repro.cachesim.misscurve`) need the whole trace; a serving leaf
that wants to *learn its miss curve live* cannot afford either the
memory or the post-hoc pass.  SHARDS ("Spatially Hashed Approximate
Reuse Distance Sampling") makes the classic stack-distance analysis
streaming and O(1)-memory:

* **Spatial hashing** — a line is sampled iff ``hash(line) < T`` for a
  fixed uniform hash, so sampling is *per line*, not per access: every
  access to a sampled line is observed, which is what keeps reuse pairs
  intact (temporal sampling would break them).
* **Conditional inclusion** — stack distances are measured inside the
  sampled sub-stream only, then scaled by ``1 / R`` (``R = T`` is the
  sampling rate): a sampled distance ``d`` estimates a true distance
  ``d / R`` because a fraction ``R`` of the distinct lines between two
  touches of a sampled line are themselves sampled.
* **Fixed-size reservoir with rate adaptation** (SHARDS_adj) — when the
  set of tracked lines outgrows ``max_reservoir``, the largest-hash
  lines are evicted and the threshold drops to their hash, lowering the
  effective rate; memory is thereby bounded no matter how large the
  working set grows, at the cost of coarser estimates.

Feeding is batched rather than per access.  Each batch's sampled
sub-stream, prefixed by the tracked lines in recency order (the LRU
stack carried over from earlier batches), goes through the vectorized
Mattson kernel (:func:`repro.cachesim.fastsim._stack_distances`) in one
call.  Reservoir evictions depend only on which lines arrive, not on
distances, so they are located first; the threshold each one sets
re-filters the accesses after it, and each evicted line leaves the
kernel's stack at its eviction point.  The estimate is bit-identical to
feeding one access at a time (the differential suite pins this against
a per-access Fenwick oracle).

Each scaled distance lands in a fixed log-spaced histogram with weight
``1 / R``; the resulting :class:`ShardsCurve` answers the same
``hit_rate(capacity_lines)`` questions as
:class:`~repro.cachesim.misscurve.MissRatioCurve` and is validated
against the exact Mattson analysis by the differential test suite (at
``rate=1.0`` with edge-aligned capacities the estimate is *exact*).

The estimator feeds the online control loop: one instance per serving
leaf (:class:`repro.search.simmem.LeafCacheMonitor`) publishes live
curves and health to ``repro.cachesim.shards.*`` metrics, and
:mod:`repro.search.cachectl` re-partitions shared-cache ways from them.
"""

from __future__ import annotations

import numpy as np

from repro.cachesim import fastsim
from repro.cachesim.indexing import stable_group_order
from repro.errors import ConfigurationError, TraceError

#: Wrap mask for 64-bit hash arithmetic on Python ints.
_MASK64 = (1 << 64) - 1

#: Scaled-distance histogram edges: exact single-integer buckets up to
#: this point, multiplicative buckets beyond it.
_EXACT_EDGE_LIMIT = 128

#: Multiplicative growth of the log-spaced distance buckets (~9% wide;
#: linear interpolation inside a bucket keeps curve error well below
#: the bucket width).
_EDGE_FACTOR = 2.0 ** (1.0 / 8.0)

#: Largest representable scaled distance (lines); anything beyond the
#: last edge can only miss at every capacity this library sweeps.
_MAX_EDGE = 2.0**42


def _default_distance_edges() -> np.ndarray:
    """The shared scaled-distance bucket ladder (module-level constant)."""
    edges = [float(d) for d in range(1, _EXACT_EDGE_LIMIT + 1)]
    while edges[-1] < _MAX_EDGE:
        edges.append(edges[-1] * _EDGE_FACTOR)
    return np.asarray(edges, np.float64)


#: Bucket upper edges shared by every estimator (copy before mutating).
DISTANCE_EDGES = _default_distance_edges()


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: a high-quality deterministic 64-bit mix."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def hash_unit(lines: np.ndarray, seed: int = 0) -> np.ndarray:
    """Deterministic per-line hash values in ``[0, 1)``, vectorized.

    The SplitMix64 finalizer applied to ``line + salt(seed)``; a pure
    function of its arguments (no ambient RNG), so two estimators with
    the same seed sample *nested* line sets across any pair of rates —
    the monotonicity property the Hypothesis suite pins.
    """
    salt = np.uint64(_mix64(seed & _MASK64))
    with np.errstate(over="ignore"):
        v = np.asarray(lines).astype(np.uint64) + salt
        v = (v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        v = (v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        v = v ^ (v >> np.uint64(31))
    return (v >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _accumulate(start: float, terms: np.ndarray) -> float:
    """``start`` plus each of ``terms``, added one at a time in order.

    ``np.add.accumulate`` is strictly sequential (``np.sum`` would sum
    pairwise), so the result is bit-identical to a streaming ``+=`` loop.
    """
    if len(terms) == 0:
        return start
    return float(np.add.accumulate(np.concatenate(([start], terms)))[-1])


class ShardsEstimator:
    """Streaming, bounded-memory LRU miss-ratio-curve estimator.

    Parameters
    ----------
    rate:
        Initial spatial sampling rate ``R`` in ``(0, 1]``; ``0.01``
        observes ~1% of distinct lines and is the operating point the
        accuracy gate validates.
    max_reservoir:
        Maximum tracked (sampled, distinct) lines; ``None`` disables
        rate adaptation.  With a bound, evictions lower the effective
        rate so memory never exceeds the reservoir plus a constant.
    seed:
        Salts the spatial hash; estimators with equal seeds sample
        nested line sets across rates.

    Feed accesses with :meth:`feed` (vectorized; accepts any int array
    of cache-line ids) or :meth:`observe`; read the running estimate
    with :meth:`curve` and health with :attr:`rate`,
    :attr:`reservoir_lines`, :attr:`reservoir_evictions` and
    :attr:`tracked_lines`.
    """

    def __init__(
        self,
        rate: float = 0.01,
        max_reservoir: int | None = None,
        seed: int = 0,
    ) -> None:
        """Validate the operating point; see the class docstring."""
        if not 0.0 < rate <= 1.0:
            raise ConfigurationError(f"rate must be in (0, 1], got {rate}")
        if max_reservoir is not None and max_reservoir < 2:
            raise ConfigurationError(
                f"max_reservoir must be >= 2 or None, got {max_reservoir}"
            )
        self.initial_rate = float(rate)
        self.max_reservoir = max_reservoir
        self.seed = seed
        self._threshold = float(rate)
        self._edges = DISTANCE_EDGES
        #: Estimated reuses per scaled-distance bucket (weights of 1/R).
        self._weights = np.zeros(len(self._edges) + 1, np.float64)
        self._cold_weight = 0.0
        self._total_accesses = 0
        self._sampled_accesses = 0
        self._cold_touches = 0
        self._evictions = 0
        #: Tracked lines, least to most recently used: the sampled LRU
        #: stack.  Every one has hash(line) < threshold.
        self._lines = np.empty(0, np.int64)

    # -- health --------------------------------------------------------

    @property
    def rate(self) -> float:
        """Current effective sampling rate (drops under adaptation)."""
        return self._threshold

    @property
    def total_accesses(self) -> int:
        """Every access fed so far, sampled or not (the exact denominator)."""
        return self._total_accesses

    @property
    def sampled_accesses(self) -> int:
        """Accesses that fell on sampled lines."""
        return self._sampled_accesses

    @property
    def reservoir_lines(self) -> int:
        """Distinct lines currently tracked (bounded by ``max_reservoir``)."""
        return len(self._lines)

    @property
    def reservoir_evictions(self) -> int:
        """Lines evicted by rate adaptation since construction."""
        return self._evictions

    @property
    def tracked_lines(self) -> np.ndarray:
        """The tracked lines, least to most recently used (a copy)."""
        return self._lines.copy()

    # -- feeding -------------------------------------------------------

    def observe(self, line: int) -> None:
        """Feed a single cache-line access (streaming convenience)."""
        self.feed(np.asarray([line], np.int64))

    def feed(self, lines: np.ndarray) -> None:
        """Feed a batch of cache-line ids in program order.

        Unsampled accesses cost one vectorized hash compare.  The sampled
        sub-stream goes through the vectorized Mattson kernel in one
        call, prefixed by the tracked lines in recency order (the LRU
        stack left by earlier batches).  Reservoir evictions inside the
        batch only depend on which lines arrive, so they are found first;
        the threshold then re-filters the accesses after each eviction,
        and the kernel drops each evicted line from the stack at its
        eviction point.  The estimate is bit-identical to feeding the
        accesses one at a time.
        """
        lines = np.asarray(lines)
        if lines.ndim != 1:
            raise TraceError(f"lines must be 1-D, got shape {lines.shape}")
        self._total_accesses += len(lines)
        if len(lines) == 0:
            return
        hashes = hash_unit(lines, seed=self.seed)
        sampled = hashes < self._threshold
        if not sampled.any():
            return
        lines = lines[sampled].astype(np.int64)
        hashes = hashes[sampled]
        cuts, thresholds = self._reservoir_cuts(lines, hashes)
        # The threshold in force at each access: the one set by the last
        # eviction before it.
        rates = np.concatenate(([self._threshold], thresholds))[
            np.searchsorted(cuts, np.arange(len(lines)), side="left")
        ]
        kept = np.flatnonzero(hashes < rates)
        lines, rates = lines[kept], rates[kept]
        prefix = len(self._lines)
        stream = np.concatenate((self._lines, lines))
        distinct, from_end = np.unique(stream[::-1], return_index=True)
        last = len(stream) - 1 - from_end
        removals = None
        if len(cuts):
            self._threshold = float(thresholds[-1])
            line_hashes = hash_unit(distinct, seed=self.seed)
            gone = line_hashes >= self._threshold
            # Each evicted line leaves the stack right after the first
            # touch whose overflow lowered the threshold to its hash.
            evicted_by = np.searchsorted(-thresholds, -line_hashes[gone], side="left")
            after = prefix + np.searchsorted(kept, cuts[evicted_by])
            order, sorted_after = stable_group_order(after)
            removals = (sorted_after, last[gone][order])
            last = last[~gone]
        self._record(fastsim._stack_distances(stream, removals)[prefix:], rates)
        self._lines = stream[np.sort(last)]

    def _reservoir_cuts(
        self, lines: np.ndarray, hashes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Where the reservoir overflows in a sampled batch, and the
        threshold each overflow leaves (both empty when unbounded).

        Only first touches of lines not yet tracked grow the reservoir;
        each overflow evicts the largest-hash line(s), and the threshold
        drops to their hash.  Counts the evictions.
        """
        if self.max_reservoir is None:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        distinct, first = np.unique(lines, return_index=True)
        fresh = np.sort(first[~np.isin(distinct, self._lines)])
        fresh_hashes = hashes[fresh]
        pool = np.sort(hash_unit(self._lines, seed=self.seed))
        threshold = self._threshold
        cuts: list[int] = []
        thresholds: list[float] = []
        # The threshold only falls, so a first touch at or above it is
        # out for good: scan forward in a window that grows only while
        # it holds too few admissions to overflow.
        start, window = 0, 64
        while start < len(fresh):
            room = self.max_reservoir - len(pool)
            below = np.flatnonzero(fresh_hashes[start : start + window] < threshold)
            if len(below) <= room:
                if start + window >= len(fresh):
                    break
                window *= 4
                continue
            admitted = fresh_hashes[start + below[: room + 1]]
            pool = np.sort(np.concatenate((pool, admitted)), kind="stable")
            threshold = float(pool[-1])
            survivors = int(np.searchsorted(pool, threshold, side="left"))
            self._evictions += len(pool) - survivors
            pool = pool[:survivors]
            cuts.append(int(fresh[start + below[room]]))
            thresholds.append(threshold)
            start += int(below[room]) + 1
            window = 64
        return np.asarray(cuts, np.int64), np.asarray(thresholds, np.float64)

    def _record(self, distances: np.ndarray, rates: np.ndarray) -> None:
        """Add sampled accesses at their in-force rates to the histogram."""
        cold = distances == fastsim.COLD
        weights = 1.0 / rates
        self._sampled_accesses += len(distances)
        self._cold_touches += int(np.count_nonzero(cold))
        self._cold_weight = _accumulate(self._cold_weight, weights[cold])
        # The reused line itself always appears in the sampled distance;
        # only the *other* distinct lines are thinned by the rate.  Scaling
        # the raw distance by 1/R would therefore bias every estimate up
        # by ~1/R lines — fatal near the resolution floor.
        scaled = (distances[~cold] - 1) / rates[~cold] + 1.0
        buckets = np.searchsorted(self._edges, scaled, side="left")
        reuse_weights = weights[~cold]
        order, sorted_buckets = stable_group_order(buckets)
        for group in np.split(order, np.flatnonzero(np.diff(sorted_buckets)) + 1):
            if len(group):
                bucket = buckets[group[0]]
                self._weights[bucket] = _accumulate(
                    float(self._weights[bucket]), reuse_weights[group]
                )

    # -- reading -------------------------------------------------------

    def curve(self) -> "ShardsCurve":
        """The current estimate as a capacity-queryable curve.

        Cheap (copies the ~400-bucket histogram); call once per control
        epoch.  Raises :class:`~repro.errors.TraceError` before any
        access has been fed — an estimate of nothing is undefined, and
        the online control loop must treat it as *unstable*, not as a
        flat curve.
        """
        if self._total_accesses == 0:
            raise TraceError("no accesses fed yet; the estimate is undefined")
        return ShardsCurve(
            edges=self._edges,
            weights=self._weights.copy(),
            cold_weight=self._cold_weight,
            num_accesses=self._total_accesses,
            sampled_accesses=self._sampled_accesses,
            cold_touches=self._cold_touches,
            rate=self._threshold,
        )


class ShardsCurve:
    """A SHARDS estimate, queryable like a miss-ratio curve.

    Mirrors the capacity surface of
    :class:`~repro.cachesim.misscurve.MissRatioCurve` (``hit_rate``,
    ``hit_rates``, ``miss_count``, ``num_accesses``, ``cold_misses``) so
    controllers can consume either.  Within the bucket straddling a
    capacity the estimate interpolates linearly; capacities that land
    exactly on a bucket edge take whole buckets, which is what makes the
    ``rate=1.0`` estimate exact there.

    Queries apply the SHARDS_adj correction: the scaled sampled mass
    (``sum(weights) + cold_weight``) should equal the true access count,
    and when the line lottery makes it deviate — a single unsampled hot
    line can carry percent-level access mass — the difference is
    credited at the smallest distance, where hot-line reuses live.
    Without it, skewed streams see tens-of-points miss-ratio error; with
    it, residual error is ordinary sampling noise (it vanishes at
    ``rate=1.0`` where the mass matches exactly).
    """

    def __init__(
        self,
        edges: np.ndarray,
        weights: np.ndarray,
        cold_weight: float,
        num_accesses: int,
        sampled_accesses: int,
        cold_touches: int,
        rate: float,
    ) -> None:
        """Freeze one estimator snapshot (built by ``Shards*.curve()``)."""
        self._edges = edges
        self._cum = np.concatenate(([0.0], np.cumsum(weights[:-1])))
        self._weights = weights
        self.cold_weight = cold_weight
        self.num_accesses = num_accesses
        self.sampled_accesses = sampled_accesses
        self.cold_touches = cold_touches
        self.rate = rate
        #: SHARDS_adj first-bucket correction: expected minus actual
        #: scaled sampled mass, credited at distance 1 by every query.
        self.adjustment = float(
            num_accesses - (float(np.sum(weights)) + cold_weight)
        )

    @property
    def distinct_lines(self) -> float:
        """Estimated distinct lines (scaled count of sampled first touches)."""
        return self.cold_weight

    @property
    def cold_misses(self) -> float:
        """Estimated first-touch accesses; they miss at every capacity."""
        return self.cold_weight

    @property
    def sampled_reuses(self) -> int:
        """Sampled reuse pairs behind the estimate (a stability signal)."""
        return self.sampled_accesses - self.cold_touches

    def _hits(self, capacities: np.ndarray) -> np.ndarray:
        caps = np.asarray(capacities, np.float64)
        if (caps <= 0).any():
            raise TraceError("capacities must be positive")
        index = np.searchsorted(self._edges, caps, side="right")
        full = self._cum[index]
        partial = np.zeros_like(caps)
        in_range = index < len(self._edges)
        if in_range.any():
            i = index[in_range]
            lower = np.where(i > 0, self._edges[i - 1], 0.0)
            upper = self._edges[i]
            fraction = np.clip(
                (caps[in_range] - lower) / (upper - lower), 0.0, 1.0
            )
            partial[in_range] = fraction * self._weights[i]
        # Every positive capacity covers distance 1, where the SHARDS_adj
        # mass is credited; clip to the physical range [0, N].
        return np.clip(
            full + partial + self.adjustment, 0.0, float(self.num_accesses)
        )

    def hit_rates(self, capacities_lines: np.ndarray | list[int]) -> np.ndarray:
        """Estimated LRU hit rates at several capacities (in lines)."""
        caps = np.atleast_1d(np.asarray(capacities_lines))
        return self._hits(caps) / self.num_accesses

    def hit_rate(self, capacity_lines: int) -> float:
        """Estimated hit rate at one capacity (in lines)."""
        return float(self.hit_rates([capacity_lines])[0])

    def miss_ratios(self, capacities_lines: np.ndarray | list[int]) -> np.ndarray:
        """Estimated miss ratios (``1 - hit_rate``) at several capacities."""
        return 1.0 - self.hit_rates(capacities_lines)

    def miss_ratio(self, capacity_lines: int) -> float:
        """Estimated miss ratio at one capacity (in lines)."""
        return 1.0 - self.hit_rate(capacity_lines)

    def miss_count(self, capacity_lines: int) -> float:
        """Estimated misses at one capacity (cold + capacity misses)."""
        return self.num_accesses - float(self._hits(np.asarray([capacity_lines]))[0])


class ShardsEnsemble:
    """Hash-replicated SHARDS: ``replicas`` independent estimators, averaged.

    A single spatial sample is at the mercy of the line lottery — one
    percent-share line straddling the capacity ladder swings the whole
    curve by ``share * sqrt(1/R)``.  Replicating the estimator under
    independent hash salts and averaging the curves cuts that noise by
    ``sqrt(replicas)`` while each member remains an honest rate-``R``
    SHARDS (the standard miniature-simulation remedy).  Memory is
    ``replicas`` times one estimator — still a small fraction of the
    exact analysis.

    The same surface as :class:`ShardsEstimator` (``feed`` / ``curve`` /
    health), with health aggregated across members.
    """

    def __init__(
        self,
        rate: float = 0.01,
        replicas: int = 8,
        max_reservoir: int | None = None,
        seed: int = 0,
    ) -> None:
        """Build ``replicas`` members with consecutive hash seeds."""
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._members = [
            ShardsEstimator(rate=rate, max_reservoir=max_reservoir, seed=seed + i)
            for i in range(replicas)
        ]

    def feed(self, lines: np.ndarray) -> None:
        """Feed a batch of cache-line ids to every member."""
        lines = np.asarray(lines)
        for member in self._members:
            member.feed(lines)

    def observe(self, line: int) -> None:
        """Feed a single cache-line access to every member."""
        self.feed(np.asarray([line], np.int64))

    def curve(self) -> ShardsCurve:
        """The replica-averaged estimate (same capacity surface).

        Averaging the member histograms is averaging the member curves
        (queries are linear in the weights up to clipping); the returned
        curve's ``sampled_accesses`` / ``cold_touches`` sum over members
        so :attr:`ShardsCurve.sampled_reuses` reflects the evidence
        behind the average.
        """
        curves = [member.curve() for member in self._members]
        first = curves[0]
        return ShardsCurve(
            edges=first._edges,
            weights=np.mean([c._weights for c in curves], axis=0),
            cold_weight=float(np.mean([c.cold_weight for c in curves])),
            num_accesses=first.num_accesses,
            sampled_accesses=sum(c.sampled_accesses for c in curves),
            cold_touches=sum(c.cold_touches for c in curves),
            rate=float(np.mean([c.rate for c in curves])),
        )

    @property
    def rate(self) -> float:
        """Mean effective sampling rate across members."""
        return float(np.mean([m.rate for m in self._members]))

    @property
    def total_accesses(self) -> int:
        """Accesses fed (every member sees the identical stream)."""
        return self._members[0].total_accesses

    @property
    def sampled_accesses(self) -> int:
        """Sampled accesses summed over members."""
        return sum(m.sampled_accesses for m in self._members)

    @property
    def reservoir_lines(self) -> int:
        """Tracked lines summed over members (the memory footprint)."""
        return sum(m.reservoir_lines for m in self._members)

    @property
    def reservoir_evictions(self) -> int:
        """Rate-adaptation evictions summed over members."""
        return sum(m.reservoir_evictions for m in self._members)


def curve_drift(
    previous: ShardsCurve, current: ShardsCurve, capacities_lines: np.ndarray
) -> float:
    """Largest absolute miss-ratio movement between two estimates.

    The controller's stability signal: a workload in steady state drifts
    by sampling noise only, while a phase change moves whole decades of
    the curve.  Compared at the controller's own capacity ladder so the
    signal reflects the decisions actually at stake.
    """
    if len(capacities_lines) == 0:
        raise ConfigurationError("need at least one capacity to compare at")
    previous_miss = previous.miss_ratios(capacities_lines)
    current_miss = current.miss_ratios(capacities_lines)
    return float(np.max(np.abs(previous_miss - current_miss)))
