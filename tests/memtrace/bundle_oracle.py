"""The level-6 bundle writer, frozen as an oracle, and generator-shaped arrays.

Bundles were once written by ``np.savez_compressed`` (zlib level 6);
:func:`save_arrays_level6` reproduces that writer so tests can check that
such bundles still load, directly and through the artifact cache.
"""

import json

import numpy as np

from repro.memtrace.io import FORMAT_VERSION


def save_arrays_level6(arrays, path, **metadata):
    """The bundle writer as it was before level-1 deflate, frozen as an
    oracle: ``np.savez_compressed`` (zlib level 6) with the same header."""
    header = json.dumps(
        {"version": FORMAT_VERSION, "metadata": metadata}, sort_keys=True
    )
    with open(path, "wb") as handle:
        np.savez_compressed(
            handle, header=np.frombuffer(header.encode(), np.uint8), **arrays
        )
    return path


#: Every shape and dtype the cache-aware generators store, with extreme
#: values so a lossy or widening round trip shows.
GENERATOR_ARRAYS = {
    "addr": np.array([0, 1, 2**63, 2**64 - 1, 0x7FFF_F000_0040], np.uint64),
    "kind": np.array([0, 1, 2, 255], np.uint8),
    "segment": np.array([0, 3, 7, 255], np.uint8),
    "thread": np.array([0, 1, 65535], np.uint16),
    "CODE": np.array([-(2**63), -1, 0, 2**63 - 1], np.int64),
    "HEAP": np.arange(50_000, dtype=np.int64) * 64 % 9_973,
    "empty": np.zeros(0, np.int64),
    "instruction_count": np.int64(123_456_789_012),
}
