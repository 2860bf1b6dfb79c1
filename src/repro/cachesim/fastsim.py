"""NumPy-vectorized cache-simulation kernels.

The per-access simulator (:class:`repro.cachesim.cache.SetAssociativeCache`,
and the Mattson loops kept as test oracles in
``tests/cachesim/loop_oracles.py``) replays traces one address at a time
through Python data structures — exact, readable, and far too slow for a
campaign.  The kernels here are **bit-identical** to it (enforced by the
differential suite in ``tests/cachesim/test_fastsim_differential.py``),
and every cachesim entry point uses them whenever they are exact for
the request: LRU replacement, no inclusion, no prefetchers.  Requests
outside that set run the per-access loop and count a fallback.

Two kernels:

1. **Set-associative LRU** (:func:`fast_lru_hits`).
   Accesses in different sets are independent; one stable sort groups
   each set's accesses in program order.  The grouped stream then runs
   through a *register cascade*: an LRU set of ``W`` ways is a chain of
   ``W`` recency registers where an access shifts registers 1..d down by
   one (d being its stack depth).  Stage ``k`` therefore sees exactly the
   accesses of depth >= ``k``, and the stage-``k`` register content at any
   event is simply the value the *previous* stage-``k`` event in the same
   set pushed down — a shifted compare over the surviving subsequence.
   Each stage is a handful of O(m) vectorized ops on a shrinking array;
   total work is ``sum(min(depth_i, W))`` instead of a full stack-distance
   pass.  For fully-associative or very wide geometries (``W`` beyond
   :data:`CASCADE_MAX_WAYS`) the kernel switches to the stack-distance
   formulation (hit iff per-set distance <= ``W``).
2. **Single-pass Mattson** (:func:`fast_stack_distances`).  The classical
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
   The keys are padded to a power of two, but each level sorts and
   counts only the rows that hold real entries.

The direct-mapped L4 has its own one-sort kernel in
:mod:`repro.cachesim.directmapped`.  Kernel activity is tracked in module
counters exposed through the :mod:`repro.obs` registry via
:func:`record_metrics`; none of them depends on the host clock.
"""

from __future__ import annotations

import numpy as np

from repro.cachesim.indexing import set_indices, stable_group_order
from repro.errors import ConfigurationError, TraceError
from repro.obs.metrics import MetricsRegistry

#: Stack distance of first-touch accesses (mirrors ``mattson.COLD``).
COLD = np.iinfo(np.int64).max


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------

_COUNTERS: dict[str, int] = {
    "accesses": 0,
    "kernel_calls": 0,
    "fallbacks": 0,
}


def count_fallback() -> None:
    """Count one request the kernels cannot serve exactly.

    Callers invoke this when they run the per-access loop instead: a
    non-LRU policy, an inclusive hierarchy, or prefetchers.
    """
    _COUNTERS["fallbacks"] += 1  # repro: noqa RPR701 -- process-local telemetry, never feeds results; the parallel runner merges per-worker deltas (parallel._run_task)


def _record_kernel(accesses: int) -> None:
    _COUNTERS["kernel_calls"] += 1  # repro: noqa RPR701 -- process-local telemetry, never feeds results; the parallel runner merges per-worker deltas (parallel._run_task)
    _COUNTERS["accesses"] += accesses


def counters_snapshot() -> dict[str, float]:
    """Current kernel counters."""
    return dict(_COUNTERS)


def reset_counters() -> None:
    """Zero the kernel counters (tests and benchmarks)."""
    for key in _COUNTERS:
        _COUNTERS[key] = 0


def record_metrics(
    registry: MetricsRegistry,
    since: dict[str, float] | None = None,
) -> None:
    """Publish ``repro.fastsim.*`` counters into an obs registry.

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
        help="Requests served by the per-access loop.",
        unit="calls",
    ).inc(_COUNTERS["fallbacks"] - int(base.get("fallbacks", 0)))


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

    The keys are padded to a power of two, but a level sorts and counts
    only the *live* rows, those holding at least one real entry: a
    pad-only row holds equal values in ascending position order, so it
    is already sorted, and pad counts are never read.  Counts accumulate
    in int32 (:func:`_position_bits` keeps ``n`` below ``2**31``) and
    come back as int64.
    """
    n = len(values)
    bits = _position_bits(n)
    if n < 2:
        return np.zeros(n, np.int64)
    size = 1 << bits
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
    counts = np.zeros(size, np.int32)
    # Every row holds ``block`` right-half elements, so the k-th one in
    # flat order has rank ``k % block`` among its row's right half.
    right_rank = np.arange(size // 2, dtype=np.int64)
    block = 1
    while block < size:
        width = 2 * block
        live = keys[: min(size, -(-n // width) * width)]
        live.reshape(-1, width).sort(axis=1, kind="stable")
        at = np.flatnonzero((live & block).astype(bool))
        ahead = at & (width - 1)
        ahead -= right_rank[: len(at)] & (block - 1)
        counts[live[at] & position] += ahead
        block = width
    return counts[:n].astype(np.int64)


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
# Kernel 2: single-pass Mattson stack distances
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
    if n == 0:
        return np.empty(0, np.int64)
    prev = _previous_occurrence(lines64)
    if removals is None:
        out = _count_preceding_leq(prev)
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
        out = _count_preceding_leq(values)[slot]
        out -= passed
    out -= prev
    out[prev < 0] = COLD
    return out


def fast_stack_distances(lines: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every access, fully vectorized.

    Bit-identical to the per-access Mattson loop (Olken's Fenwick-tree
    algorithm, kept as ``tests/cachesim/loop_oracles.stack_distances``);
    cold accesses get :data:`COLD`.  See the module docstring for the
    closed form this evaluates.
    """
    n = len(lines)
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


def fast_lru_hits(lines: np.ndarray, num_sets: int, ways: int) -> np.ndarray:
    """Hit mask of a cold-started set-associative LRU cache.

    Groups accesses by set with one stable sort, then runs the register
    cascade (or, for very wide geometries, the stack-distance
    formulation: an access hits iff its per-set stack distance is at
    most ``ways``).  Bit-identical to
    :meth:`repro.cachesim.cache.SetAssociativeCache.access`, one access
    at a time from cold.
    """
    if num_sets <= 0 or ways <= 0:
        raise ConfigurationError(
            f"num_sets and ways must be positive: {num_sets}, {ways}"
        )
    n = len(lines)
    if n == 0:
        return np.empty(0, bool)
    lines64 = np.asarray(lines).astype(np.int64, copy=False)
    if num_sets == 1:
        distances = _stack_distances(lines64)
        hits = (distances != COLD) & (distances <= ways)
    else:
        hits = _hits_for_set_stream(lines64, set_indices(lines64, num_sets), ways)
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
