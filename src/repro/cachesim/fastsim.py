"""NumPy-vectorized cache-simulation kernels (the ``fast`` engine).

The reference simulator (:mod:`repro.cachesim.cache`,
:mod:`repro.cachesim.mattson`) replays traces one address at a time
through Python data structures — exact, readable, and the dominant cost
of a campaign.  This module provides drop-in vectorized kernels that are
**bit-identical** to the reference engine (enforced by the differential
suite in ``tests/cachesim/test_fastsim_differential.py``), behind an
explicit engine-selection API:

* ``engine="reference"`` — the original per-access implementations;
* ``engine="fast"`` — the kernels below; raises when a request falls
  outside what they support exactly (e.g. random replacement);
* ``engine="auto"`` — ``fast`` whenever it is exact for the request,
  otherwise a counted fallback to ``reference``.

Three kernels:

1. **Set-associative LRU** (:func:`fast_lru_hits`,
   :class:`FastSetAssociativeCache`).  Accesses in different sets are
   independent; one stable sort groups each set's accesses in program
   order.  The grouped stream then runs through a *register cascade*: an
   LRU set of ``W`` ways is a chain of ``W`` recency registers where an
   access shifts registers 1..d down by one (d being its stack depth).
   Stage ``k`` therefore sees exactly the accesses of depth >= ``k``, and
   the stage-``k`` register content at any event is simply the value the
   *previous* stage-``k`` event in the same set pushed down — a shifted
   compare over the surviving subsequence.  Each stage is a handful of
   O(m) vectorized ops on a shrinking array; total work is
   ``sum(min(depth_i, W))`` instead of a full stack-distance pass.  For
   fully-associative or very wide geometries (``W`` beyond
   :data:`CASCADE_MAX_WAYS`) the kernel switches to the stack-distance
   formulation (hit iff per-set distance <= ``W``).  The stateful class
   keeps per-set tag and age matrices as dense ``ndarray``\\ s, so warm
   starts, CAT way-masking, and invalidation behave exactly like the
   reference cache.
2. **Direct-mapped** (:func:`fast_direct_mapped_hits`).  One
   gather/compare/scatter pass per trace chunk against a dense tag array
   — an access hits iff the previous access to its set carried the same
   line.
3. **Single-pass Mattson** (:func:`fast_stack_distances`).  The classical
   Fenwick-over-last-access-times algorithm (Olken) computes, for access
   ``i`` with previous occurrence ``p``, the number of still-most-recent
   positions after ``p``.  That count has a closed form over the
   previous-occurrence array ``prev``: since ``prev[j] <= p`` holds for
   exactly the ``j`` that contribute a distinct line to the window,

       distance(i)  =  #{ j < i : prev[j] <= prev[i] }  -  prev[i]

   and the dominance count is computed for all accesses at once by an
   iterative merge-sort counting pass (``log2(n)`` levels, each one
   stable sort of a packed ``(value, position)`` int64 key) — the whole
   LRU miss curve from one pass, with no per-capacity re-simulation.

Kernel activity is tracked in module counters exposed through the
:mod:`repro.obs` registry via :func:`record_metrics`; wall-time tracking
is opt-in (:func:`enable_timing`) so simulation results never depend on
the host clock.
"""

from __future__ import annotations

import numpy as np

from repro.cachesim.cache import CacheGeometry
from repro.cachesim.indexing import set_indices, stable_group_order
from repro.errors import ConfigurationError, TraceError
from repro.obs.metrics import MetricsRegistry

#: Engine names accepted by every engine-parameterized entry point.
ENGINES = ("reference", "fast", "auto")

#: Stack distance of first-touch accesses (mirrors ``mattson.COLD``).
COLD = np.iinfo(np.int64).max

#: Sentinel tag for an empty way in the dense tag matrices.
EMPTY = np.int64(-1)


# ----------------------------------------------------------------------
# Engine selection and counters
# ----------------------------------------------------------------------

_COUNTERS: dict[str, int] = {
    "accesses": 0,
    "kernel_calls": 0,
    "fallbacks": 0,
}
_KERNEL_SECONDS: float = 0.0
_TIMING_ENABLED: bool = False


def resolve_engine(engine: str, fast_supported: bool = True) -> str:
    """Resolve an engine request to ``"reference"`` or ``"fast"``.

    ``fast_supported`` says whether the fast kernel is exact for the
    request at hand (LRU replacement, no inclusion coupling, ...).  An
    explicit ``"fast"`` request that is not supported raises;
    ``"auto"`` falls back to the reference engine and counts the
    fallback.
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"engine must be one of {ENGINES}, got {engine!r}"
        )
    if engine == "reference":
        return "reference"
    if fast_supported:
        return "fast"
    if engine == "fast":
        raise ConfigurationError(
            "engine='fast' requested but the fast kernel is not exact for "
            "this configuration; use engine='auto' to fall back"
        )
    _COUNTERS["fallbacks"] += 1  # repro: noqa RPR701 -- process-local telemetry, never feeds results; the parallel runner merges per-worker deltas (parallel._run_task)
    return "reference"


def _record_kernel(accesses: int) -> None:
    _COUNTERS["kernel_calls"] += 1  # repro: noqa RPR701 -- process-local telemetry, never feeds results; the parallel runner merges per-worker deltas (parallel._run_task)
    _COUNTERS["accesses"] += accesses


def merge_counter_deltas(delta: dict[str, float]) -> None:
    """Fold a worker's counter delta into this process's counters.

    The set-sharded replay (:func:`repro.cachesim.fused.sharded_lru_hits`)
    runs kernels in spawned pool workers; each worker snapshots its
    counters around the kernel call and ships the difference back, and the
    parent folds the deltas in here so campaign telemetry matches a
    serial replay's access totals (kernel-call counts reflect the actual
    per-shard calls).  This is the same worker-delta pattern the parallel
    experiment runner uses (``parallel._run_task``).
    """
    for key in _COUNTERS:
        _COUNTERS[key] += int(delta.get(key, 0))  # repro: noqa RPR701 -- process-local telemetry, never feeds results; folds sharded-replay worker deltas into the parent (the sanctioned worker-delta pattern)


def enable_timing(enabled: bool = True) -> None:
    """Opt into wall-time tracking of kernel calls (benchmarks only).

    Timing is off by default so that metrics attached to experiment
    results stay byte-identical across hosts and engines.
    """
    global _TIMING_ENABLED
    _TIMING_ENABLED = enabled


class _KernelTimer:
    """Accumulates kernel wall time into the module counter when enabled."""

    def __enter__(self) -> "_KernelTimer":
        if _TIMING_ENABLED:
            import time

            self._start = time.perf_counter()  # repro: noqa RPR102 -- opt-in kernel profiling, never feeds simulation
        return self

    def __exit__(self, *exc: object) -> None:
        if _TIMING_ENABLED:
            import time

            global _KERNEL_SECONDS
            _KERNEL_SECONDS += time.perf_counter() - self._start  # repro: noqa RPR102 -- opt-in kernel profiling, never feeds simulation


def counters_snapshot() -> dict[str, float]:
    """Current kernel counters (plus ``kernel_seconds`` when timed)."""
    snapshot: dict[str, float] = dict(_COUNTERS)
    snapshot["kernel_seconds"] = _KERNEL_SECONDS
    return snapshot


def reset_counters() -> None:
    """Zero the kernel counters (tests and benchmarks)."""
    global _KERNEL_SECONDS
    for key in _COUNTERS:
        _COUNTERS[key] = 0
    _KERNEL_SECONDS = 0.0


def record_metrics(
    registry: MetricsRegistry,
    include_timing: bool = False,
    since: dict[str, float] | None = None,
) -> None:
    """Publish ``repro.fastsim.*`` counters into an obs registry.

    ``include_timing`` additionally publishes the (host-dependent) kernel
    wall time; leave it off for anything that must be byte-reproducible.
    ``since`` (an earlier :func:`counters_snapshot`) publishes only the
    delta — the parallel runner uses this so reused pool workers don't
    double-count across tasks.
    """
    base = since or {}
    registry.counter(
        "repro.fastsim.accesses",
        help="Accesses simulated by vectorized fastsim kernels.",
        unit="accesses",
    ).inc(_COUNTERS["accesses"] - int(base.get("accesses", 0)))
    registry.counter(
        "repro.fastsim.kernel_calls",
        help="Vectorized kernel invocations.",
        unit="calls",
    ).inc(_COUNTERS["kernel_calls"] - int(base.get("kernel_calls", 0)))
    registry.counter(
        "repro.fastsim.fallbacks",
        help="engine='auto' requests served by the reference engine.",
        unit="calls",
    ).inc(_COUNTERS["fallbacks"] - int(base.get("fallbacks", 0)))
    if include_timing:
        registry.gauge(
            "repro.fastsim.kernel_wall_time_s",
            help="Wall time spent inside fastsim kernels (opt-in timing).",
            unit="s",
        ).set(_KERNEL_SECONDS)


# ----------------------------------------------------------------------
# Offline dominance counting (the merge-count primitive)
# ----------------------------------------------------------------------


def _position_bits(n: int) -> int:
    """Width of the position field of the packed merge key for ``n`` entries.

    The key is ``(value - min) << bits | position`` with ``bits =
    ceil(log2(n))``.  :func:`_count_preceding_leq` keeps ``value - min``
    (pad included) at most ``n + 1``, so every key is below ``(n + 2) <<
    bits``.  That must fit in int64, which caps ``n`` at ``2**31``;
    longer inputs raise :class:`~repro.errors.TraceError` instead of
    wrapping.
    """
    bits = max(1, (n - 1).bit_length())
    if (n + 2) << bits > 1 << 63:
        raise TraceError(
            f"{n} entries exceed the packed merge key (at most {1 << 31})"
        )
    return bits


def _count_preceding_leq(values: np.ndarray) -> np.ndarray:
    """For each ``i``, count ``j < i`` with ``values[j] <= values[i]``.

    Vectorized offline equivalent of a Fenwick tree over the value domain:
    an iterative bottom-up merge sort over one packed int64 key per entry,
    ``(value - min) << bits | position``.  Positions are unique, so keys
    order by ``(value, position)``, and a left-half peer sorts ahead of a
    right-half element exactly when its value is ``<=``.  Each level
    therefore merges with one stable sort of the key rows (two sorted
    runs: a linear merge) and counts, for every right-half element, its
    merged rank minus its rank among right-half peers.  Each ordered pair
    is counted exactly once — at the level where the two positions first
    share a parent block.  O(n log n) work, all in NumPy.
    """
    n = len(values)
    bits = _position_bits(n)
    size = 1 << bits
    counts = np.zeros(size, np.int64)
    if n < 2:
        return counts[:n]
    low = int(values.min())
    pad = int(values.max()) - low + 1
    if pad > n + 1:
        # Only the order of the values matters: rank them densely so the
        # key width depends on n alone.
        values = np.unique(values, return_inverse=True)[1].reshape(-1)
        low = 0
        pad = int(values.max()) + 1
    keys = np.full(size, pad, np.int64)
    keys[:n] = values
    keys[:n] -= low
    keys <<= bits
    keys |= np.arange(size, dtype=np.int64)
    position = size - 1
    # Every row holds ``block`` right-half elements, so the k-th one in
    # flat order has rank ``k % block`` among its row's right half.
    right_rank = np.arange(size // 2, dtype=np.int64)
    block = 1
    while block < size:
        width = 2 * block
        keys.reshape(-1, width).sort(axis=1, kind="stable")
        at = np.flatnonzero(keys & block)
        ahead = at & (width - 1)
        ahead -= right_rank & (block - 1)
        counts[keys[at] & position] += ahead
        block = width
    return counts


def _previous_occurrence(lines: np.ndarray) -> np.ndarray:
    """Index of each access's previous same-line access (``-1`` if cold)."""
    n = len(lines)
    order, sorted_lines = stable_group_order(lines)
    prev_sorted = np.full(n, -1, np.int64)
    same = sorted_lines[1:] == sorted_lines[:-1]
    prev_sorted[1:][same] = order[:-1][same]
    prev = np.empty(n, np.int64)
    prev[order] = prev_sorted
    return prev


# ----------------------------------------------------------------------
# Kernel 3: single-pass Mattson stack distances
# ----------------------------------------------------------------------


def _stack_distances(
    lines64: np.ndarray,
    removals: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Stack-distance core without counter bookkeeping (internal).

    ``removals`` drops lines from the LRU stack mid-stream: position
    arrays ``(after, last)``, sorted by ``after``, one entry per removed
    line, which leaves the stack right after position ``after``, was last
    accessed at ``last <= after`` and is never accessed again.  Distances
    of later accesses then no longer count it (SHARDS reservoir
    evictions).
    """
    n = len(lines64)
    out = np.empty(n, np.int64)
    if n == 0:
        return out
    prev = _previous_occurrence(lines64)
    if removals is None:
        counts = _count_preceding_leq(prev)[:n]
    else:
        # Each removal enters the count as a marker valued ``last`` right
        # after ``after``.  Access i counts a passed marker iff the line
        # was last touched at or before prev[i]; subtracting one per
        # passed marker leaves minus one for each removed line that was
        # touched inside the window (prev[i], i), as the distance needs.
        after, last = removals
        passed = np.searchsorted(after, np.arange(n), side="left")
        slot = np.arange(n) + passed
        values = np.empty(n + len(after), np.int64)
        values[slot] = prev
        values[after + np.arange(1, len(after) + 1)] = last
        counts = _count_preceding_leq(values)[slot] - passed
    cold = prev < 0
    out[cold] = COLD
    out[~cold] = counts[~cold] - prev[~cold]
    return out


def fast_stack_distances(lines: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every access, fully vectorized.

    Bit-identical to :func:`repro.cachesim.mattson.stack_distances`
    (cold accesses get :data:`COLD`); see the module docstring for the
    closed form this evaluates.
    """
    n = len(lines)
    with _KernelTimer():
        out = _stack_distances(np.asarray(lines).astype(np.int64, copy=False))
    _record_kernel(n)
    return out


# ----------------------------------------------------------------------
# Kernel 1: set-associative LRU
# ----------------------------------------------------------------------

#: Way count beyond which the LRU kernel switches from the register
#: cascade (work ~ sum(min(depth, ways))) to the stack-distance
#: formulation (work ~ n log^2 n, independent of ways).  Real
#: associativities are 1-20; anything past this is a fully-associative
#: style geometry where the cascade's per-stage pass stops paying off.
CASCADE_MAX_WAYS = 64


def _cascade_hits(g_lines: np.ndarray, g_first: np.ndarray, ways: int) -> np.ndarray:
    """Hit mask of a set-grouped stream via the LRU register cascade.

    ``g_lines`` holds each set's accesses contiguously in program order
    and ``g_first`` flags the first access of each set group.  Stage
    ``k`` compares each surviving access against the stage-``k`` recency
    register — the value carried down by the previous surviving event in
    the same set.  A group's first event always survives a stage (its
    register is empty), so the first flags stay valid under filtering.
    """
    n = len(g_lines)
    hits = np.zeros(n, bool)
    lowest = int(g_lines.min())
    if lowest == np.iinfo(np.int64).min:
        raise ConfigurationError("line ids exhaust the int64 domain")
    empty = np.int64(lowest - 1)  # sentinel below every real line id
    pos = np.arange(n, dtype=np.int64)
    x = g_lines
    carry = g_lines  # value each event pushes into the next-deeper register
    first = g_first
    for _stage in range(ways):
        if not len(x):
            break
        register = np.empty(len(x), np.int64)
        register[0] = empty
        register[1:] = carry[:-1]
        register[first] = empty
        hit = x == register
        hits[pos[hit]] = True
        keep = np.flatnonzero(~hit)
        x = x[keep]
        pos = pos[keep]
        carry = register[keep]
        first = first[keep]
    return hits


def _hits_for_set_stream(
    stream: np.ndarray, sets: np.ndarray, ways: int
) -> np.ndarray:
    """Cold-start LRU hit mask given each access's set index (unrecorded).

    Every line must map to a single set (the caller derives ``sets`` from
    the lines), so the per-set subsequences are independent streams.
    """
    order, g_sets = stable_group_order(sets)
    grouped = stream[order]
    hits = np.empty(len(stream), bool)
    if ways > CASCADE_MAX_WAYS:
        # Per-set stack distances: the grouped concatenation keeps every
        # set's subsequence intact and sets never share lines, so one
        # distance pass serves all sets at once.
        distances = _stack_distances(grouped)
        hits[order] = (distances != COLD) & (distances <= ways)
        return hits
    g_first = np.empty(len(stream), bool)
    g_first[0] = True
    g_first[1:] = g_sets[1:] != g_sets[:-1]
    hits[order] = _cascade_hits(grouped, g_first, ways)
    return hits


def _grouped_lru_hits(stream: np.ndarray, num_sets: int, ways: int) -> np.ndarray:
    """Cold-start LRU hit mask of ``stream`` (kernel dispatch, unrecorded)."""
    if num_sets == 1:
        distances = _stack_distances(stream)
        return (distances != COLD) & (distances <= ways)
    return _hits_for_set_stream(stream, set_indices(stream, num_sets), ways)


def fast_lru_hits(lines: np.ndarray, num_sets: int, ways: int) -> np.ndarray:
    """Hit mask of a cold-started set-associative LRU cache.

    Groups accesses by set with one stable sort, then runs the register
    cascade (or, for very wide geometries, the stack-distance
    formulation: an access hits iff its per-set stack distance is at
    most ``ways``).  Bit-identical to
    :meth:`repro.cachesim.cache.SetAssociativeCache.simulate` from cold.
    """
    if num_sets <= 0 or ways <= 0:
        raise ConfigurationError(
            f"num_sets and ways must be positive: {num_sets}, {ways}"
        )
    n = len(lines)
    if n == 0:
        return np.empty(0, bool)
    with _KernelTimer():
        lines64 = np.asarray(lines).astype(np.int64, copy=False)
        hits = _grouped_lru_hits(lines64, num_sets, ways)
    _record_kernel(n)
    return hits


def fast_lru_hits_ladder(
    lines: np.ndarray, num_sets: int, ways_ladder: list[int] | np.ndarray
) -> np.ndarray:
    """Hit masks of a cold-started LRU cache at several associativities.

    The one-pass Mattson mode for associativity ladders: with the set
    geometry fixed, LRU obeys stack inclusion *per set* — an access hits
    a ``W``-way set iff its per-set stack distance is at most ``W`` — so
    one stable sort by set and one stack-distance pass yield the hit mask
    of every ladder entry at once, instead of one full replay per entry.
    Row ``k`` of the returned ``(len(ways_ladder), len(lines))`` bool
    array is bit-identical to ``fast_lru_hits(lines, num_sets,
    ways_ladder[k])`` (the differential suite pins this).

    Capacity ladders that vary ``num_sets`` do **not** satisfy inclusion
    (lines migrate between sets); sweep those per point — see
    :func:`repro.cachesim.fused.simulate_hierarchy_sweep`, which shares
    the upstream passes and falls back per point only for the final
    level.
    """
    if num_sets <= 0:
        raise ConfigurationError(f"num_sets must be positive, got {num_sets}")
    ways_list = [int(w) for w in ways_ladder]
    if not ways_list:
        raise ConfigurationError("ways_ladder must not be empty")
    if any(w <= 0 for w in ways_list):
        raise ConfigurationError(f"ways must be positive: {ways_list}")
    n = len(lines)
    hits = np.empty((len(ways_list), n), bool)
    if n == 0:
        return hits
    with _KernelTimer():
        lines64 = np.asarray(lines).astype(np.int64, copy=False)
        if num_sets == 1:
            order = None
            distances = _stack_distances(lines64)
        else:
            order, _ = stable_group_order(set_indices(lines64, num_sets))
            distances = _stack_distances(lines64[order])
        for k, ways in enumerate(ways_list):
            mask = (distances != COLD) & (distances <= ways)
            if order is None:
                hits[k] = mask
            else:
                hits[k, order] = mask
    _record_kernel(n)
    return hits


def fast_lru_hits_for_sets(
    lines: np.ndarray, sets: np.ndarray, ways: int
) -> np.ndarray:
    """Cold-start LRU hit mask with explicitly supplied set indices.

    Used by the set-sharded replay
    (:func:`repro.cachesim.fused.sharded_lru_hits_for_sets`), where each
    shard holds a subset of the sets.  Each line must always map to the
    same set.
    """
    if ways <= 0:
        raise ConfigurationError(f"ways must be positive, got {ways}")
    if len(lines) != len(sets):
        raise ConfigurationError(
            f"lines and sets must align: {len(lines)} vs {len(sets)}"
        )
    n = len(lines)
    if n == 0:
        return np.empty(0, bool)
    with _KernelTimer():
        lines64 = np.asarray(lines).astype(np.int64, copy=False)
        sets64 = np.asarray(sets).astype(np.int64, copy=False)
        hits = _hits_for_set_stream(lines64, sets64, ways)
    _record_kernel(n)
    return hits


def _final_lru_state(
    stream: np.ndarray, num_sets: int, ways: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resident lines after an LRU replay of ``stream`` from cold.

    Returns ``(sets, lines, recency_rank, last_pos)`` for every resident
    line, where rank 0 is the most recently used line of its set — per
    set, the last ``ways`` distinct lines by final access position.
    """
    n = len(stream)
    order, sorted_lines = stable_group_order(stream)
    last_of_group = np.empty(n, bool)
    last_of_group[-1] = True
    last_of_group[:-1] = sorted_lines[1:] != sorted_lines[:-1]
    uniq_lines = sorted_lines[last_of_group]
    last_pos = order[last_of_group]
    sets = set_indices(uniq_lines, num_sets)
    # (set ascending, recency descending): rank-within-set then falls out
    # of a running group start.
    key = np.lexsort((-last_pos, sets))
    g_sets = sets[key]
    g_lines = uniq_lines[key]
    g_pos = last_pos[key]
    m = len(g_sets)
    first = np.empty(m, bool)
    first[0] = True
    first[1:] = g_sets[1:] != g_sets[:-1]
    starts = np.where(first, np.arange(m, dtype=np.int64), 0)
    rank = np.arange(m, dtype=np.int64) - np.maximum.accumulate(starts)
    keep = rank < ways
    return g_sets[keep], g_lines[keep], rank[keep], g_pos[keep]


def lru_batch(
    lines: np.ndarray,
    num_sets: int,
    ways: int,
    warm: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Replay a batch through a set-associative LRU cache, vectorized.

    ``warm`` is the pre-existing cache state flattened to a line stream
    whose per-set subsequences list residents oldest to newest; replaying
    it from cold reconstructs the state exactly (every warm line is
    distinct, so no evictions occur).  Returns the batch's hit mask and
    the final resident state as produced by :func:`_final_lru_state`
    (positions are relative to the warm+batch stream).
    """
    lines64 = np.asarray(lines).astype(np.int64, copy=False)
    if warm is not None and len(warm):
        stream = np.concatenate((np.asarray(warm, np.int64), lines64))
        skip = len(warm)
    else:
        stream = lines64
        skip = 0
    if len(stream) == 0:
        empty = np.empty(0, np.int64)
        return np.empty(0, bool), (empty, empty, empty, empty)
    with _KernelTimer():
        hits_all = _grouped_lru_hits(stream, num_sets, ways)
        state = _final_lru_state(stream, num_sets, ways)
    _record_kernel(len(stream))
    return hits_all[skip:], state


class FastSetAssociativeCache:
    """Vectorized functional set-associative LRU cache.

    State lives in dense per-set tag and age matrices
    (``[num_sets, effective_ways]``); batches are simulated by the
    set-grouped stack-distance kernel with the current state replayed as
    a warm prefix.  Semantics — including CAT way-masking and
    invalidation — match :class:`~repro.cachesim.cache.SetAssociativeCache`
    with LRU replacement exactly; the differential suite compares them
    access for access and state for state.
    """

    def __init__(self, geometry: CacheGeometry, replacement: str = "lru") -> None:
        """Allocate the dense per-set tag/age state for ``geometry``."""
        if replacement != "lru":
            raise ConfigurationError(
                "the fast set-associative kernel is exact for LRU only; "
                f"got {replacement!r} (use the reference engine)"
            )
        self.geometry = geometry
        self.replacement = replacement
        self._num_sets = geometry.num_sets
        self._ways = geometry.effective_ways
        self._tags = np.full((self._num_sets, self._ways), EMPTY, np.int64)
        self._ages = np.zeros((self._num_sets, self._ways), np.int64)
        self._clock = 0

    # -- state views ----------------------------------------------------

    def _warm_stream(self) -> np.ndarray:
        """Residents as a line stream, per-set oldest-to-newest."""
        resident = self._tags != EMPTY
        if not resident.any():
            return np.empty(0, np.int64)
        set_of = np.broadcast_to(
            np.arange(self._num_sets, dtype=np.int64)[:, None], self._tags.shape
        )[resident]
        lines = self._tags[resident]
        ages = self._ages[resident]
        order = np.lexsort((ages, set_of))
        return lines[order]

    def set_contents(self, set_idx: int) -> list[int]:
        """Resident lines of one set, oldest to newest (LRU order)."""
        row = self._tags[set_idx]
        resident = row != EMPTY
        order = np.argsort(self._ages[set_idx][resident], kind="stable")
        return [int(line) for line in row[resident][order]]

    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return int(np.count_nonzero(self._tags != EMPTY))

    def contains(self, line: int) -> bool:
        """Check residency without updating recency."""
        return bool((self._tags[line % self._num_sets] == line).any())

    def flush(self) -> None:
        """Empty the cache."""
        self._tags.fill(EMPTY)
        self._clock = 0

    def invalidate(self, line: int) -> bool:
        """Remove a line (inclusion back-invalidation); True if present."""
        row = self._tags[line % self._num_sets]
        match = row == line
        if not match.any():
            return False
        row[match] = EMPTY
        return True

    # -- simulation -----------------------------------------------------

    def access_batch(self, lines: np.ndarray) -> np.ndarray:
        """Access a line batch in order; return its boolean hit mask."""
        n = len(lines)
        if n == 0:
            return np.empty(0, bool)
        warm = self._warm_stream()
        hits, (sets, tags, ranks, positions) = lru_batch(
            lines, self._num_sets, self._ways, warm=warm
        )
        self._tags.fill(EMPTY)
        self._tags[sets, ranks] = tags
        self._ages[sets, ranks] = self._clock + positions
        self._clock += len(warm) + n
        return hits

    def access(self, line: int) -> tuple[bool, int | None]:
        """Access one line; return ``(hit, evicted_line_or_None)``."""
        set_idx = line % self._num_sets
        before = set(self.set_contents(set_idx))
        hit = bool(self.access_batch(np.array([line], np.int64))[0])
        evicted = before - set(self.set_contents(set_idx))
        return hit, (evicted.pop() if evicted else None)

    def simulate(self, lines: np.ndarray) -> np.ndarray:
        """Alias of :meth:`access_batch` mirroring the reference API."""
        return self.access_batch(lines)


# ----------------------------------------------------------------------
# Kernel 2: direct-mapped chunks
# ----------------------------------------------------------------------

#: Default trace-chunk length for the direct-mapped kernel, in accesses
#: (not bytes): ~1M-event chunks keep the per-chunk sort in cache while
#: amortizing the python-level loop.
DIRECT_MAPPED_CHUNK = 1 << 20  # repro: noqa RPR001 -- access count, not a size


def fast_direct_mapped_hits(
    lines: np.ndarray,
    num_sets: int,
    chunk: int = DIRECT_MAPPED_CHUNK,
    tags: np.ndarray | None = None,
) -> np.ndarray:
    """Exact direct-mapped hit mask via chunked gather/compare/scatter.

    Keeps a dense tag array across chunks; within a chunk, a stable sort
    by set turns "previous access to my set" into "previous element of my
    group", the first access of each set gathers the carried-over tag,
    and each set's last line scatters back.  Passing ``tags`` (an int64
    array, one entry per set) lets a caller thread cache state across
    calls (it is mutated in place).
    """
    if num_sets <= 0:
        raise ConfigurationError(f"num_sets must be positive, got {num_sets}")
    if chunk <= 0:
        raise ConfigurationError(f"chunk must be positive, got {chunk}")
    n = len(lines)
    if n == 0:
        return np.empty(0, bool)
    if tags is None:
        tags = np.full(num_sets, EMPTY, np.int64)
    elif tags.dtype != np.int64:
        # A narrower array would silently truncate the stored line ids.
        raise ConfigurationError(f"tags array must be int64, got {tags.dtype}")
    elif len(tags) != num_sets:
        raise ConfigurationError(
            f"tags array has {len(tags)} entries for {num_sets} sets"
        )
    lines64 = np.asarray(lines).astype(np.int64, copy=False)
    hits = np.empty(n, bool)
    with _KernelTimer():
        for start in range(0, n, chunk):
            part = lines64[start : start + chunk]
            sets = set_indices(part, num_sets)
            order, g_sets = stable_group_order(sets)
            g_lines = part[order]
            m = len(part)
            first = np.empty(m, bool)
            first[0] = True
            first[1:] = g_sets[1:] != g_sets[:-1]
            hit_sorted = np.empty(m, bool)
            hit_sorted[~first] = g_lines[~first] == np.roll(g_lines, 1)[~first]
            hit_sorted[first] = tags[g_sets[first]] == g_lines[first]
            chunk_hits = np.empty(m, bool)
            chunk_hits[order] = hit_sorted
            hits[start : start + m] = chunk_hits
            last = np.empty(m, bool)
            last[-1] = True
            last[:-1] = first[1:]
            tags[g_sets[last]] = g_lines[last]
    _record_kernel(n)
    return hits
