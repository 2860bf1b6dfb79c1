"""Shared block/set index math for every cache simulator.

Both implementations of exact simulation — the per-access simulator in
:mod:`repro.cachesim.cache` and the vectorized kernels in
:mod:`repro.cachesim.fastsim` — as well as the direct-mapped L4 model and
the hierarchy drivers need the same two conversions:

* byte address -> cache-line id (``addr >> log2(block_size)``), and
* line id -> set index (``line % num_sets``; non-power-of-two set counts
  are real — banked caches like POWER8's 96 MiB L3 — so this is a modulo,
  not a mask).

They used to be re-derived at each call site (``block_size.bit_length()
- 1`` in four modules, bare ``% num_sets`` in three), which is exactly how
two implementations drift apart one off-by-one at a time.  This module is
the single implementation; the differential suite pins both to it.

The offline simulators also share one grouping step: a stable sort that
gathers each line's (or each set's) accesses together in program order.
:func:`stable_group_order` is that sort for every kernel.
"""

from __future__ import annotations

import numpy as np

from repro._units import is_power_of_two, log2_exact
from repro.errors import ConfigurationError


def block_shift(block_size: int) -> int:
    """Right-shift that turns a byte address into a line id.

    ``block_size`` must be a power of two (enforced by
    :class:`~repro.cachesim.cache.CacheGeometry` as well; re-checked here
    because the L4 and TLB models call this with raw ints).
    """
    if not is_power_of_two(block_size):
        raise ConfigurationError(
            f"block_size must be a power of two, got {block_size}"
        )
    return log2_exact(block_size)


def line_of_addr(addr: int, block_size: int) -> int:
    """Cache-line id of one byte address."""
    return addr >> block_shift(block_size)


def lines_of_addrs(addrs: np.ndarray, block_size: int) -> np.ndarray:
    """Cache-line ids of a byte-address array, as ``int64``.

    Accepts the trace's native ``uint64`` addresses; the result is signed
    so downstream sentinel values (e.g. ``-1`` for "empty way") are safe.
    """
    shifted = np.asarray(addrs) >> np.uint64(block_shift(block_size))
    return shifted.astype(np.int64)


def set_index(line: int, num_sets: int) -> int:
    """Set index of one line id."""
    if num_sets <= 0:
        raise ConfigurationError(f"num_sets must be positive, got {num_sets}")
    return line % num_sets


def set_indices(lines: np.ndarray, num_sets: int) -> np.ndarray:
    """Set indices of a line-id array, as ``int64``."""
    if num_sets <= 0:
        raise ConfigurationError(f"num_sets must be positive, got {num_sets}")
    return (np.asarray(lines, np.int64) % num_sets).astype(np.int64)


def _packed_key_bits(n: int, span: int) -> int | None:
    """Position-field width of the packed grouping key, or ``None``.

    The key is ``(key - min) << bits | position`` with ``bits =
    ceil(log2(n))``; it fits in a non-negative int64 iff ``span = max -
    min`` is below ``2**(63 - bits)``.
    """
    bits = (n - 1).bit_length()
    if span >> (63 - bits):
        return None
    return bits


def stable_group_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort of ``keys``: ``(order, keys[order])``.

    ``order`` equals ``np.argsort(keys, kind="stable")`` exactly (as
    int64) and the sorted keys keep the input dtype, so each group of
    equal keys lists its positions in program order.  Integer keys whose
    span fits are packed as ``(key - min) << bits | position`` into one
    int64 and value-sorted in place: positions are unique, so the value
    order is the stable order, and a SIMD value sort runs several times
    faster than NumPy's indirect stable sort.  Other keys (non-integer
    dtypes, or spans too wide for ``63 - bits`` bits) take the stable
    argsort.
    """
    keys = np.asarray(keys)
    n = len(keys)
    if n == 0:
        return np.empty(0, np.int64), keys.copy()
    bits = None
    if keys.dtype.kind in "iu":
        low = int(keys.min())
        bits = _packed_key_bits(n, int(keys.max()) - low)
    if bits is None:
        order = np.argsort(keys, kind="stable").astype(np.int64, copy=False)
        return order, keys[order]
    # Offsets from the minimum: exact in uint64 for unsigned keys and in
    # (wrapping) int64 for signed ones; either way below 2**63.
    wide = np.uint64 if keys.dtype.kind == "u" else np.int64
    packed = keys.astype(wide)
    packed -= wide(low)
    packed = packed.view(np.int64)
    packed <<= bits
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    order = packed & ((1 << bits) - 1)
    packed >>= bits
    packed = packed.view(wide)
    packed += wide(low)
    return order, packed.astype(keys.dtype, copy=False)
