"""Memory-trace infrastructure.

This package provides the trace representation shared by every simulator in
the library, the simulated address-space layout for search servers, the
calibrated synthetic trace generators that stand in for the paper's
proprietary Pin traces, and working-set / footprint statistics.
"""

from repro.memtrace.trace import AccessKind, Segment, Trace
from repro.memtrace.address_space import AddressSpace, SegmentRegion
from repro.memtrace.synthetic import (
    CodeModel,
    HeapModel,
    ShardModel,
    StackModel,
    SyntheticWorkload,
    WorkloadConfig,
    generate_segment_streams,
    generate_trace,
)
from repro.memtrace.cache import ArtifactCache, artifact_key
from repro.memtrace.interleave import interleave_round_robin
from repro.memtrace.io import load_arrays, load_trace, save_arrays, save_trace
from repro.memtrace.stats import (
    reuse_times,
    unique_lines,
    working_set_bytes,
)

__all__ = [
    "AccessKind",
    "Segment",
    "Trace",
    "AddressSpace",
    "SegmentRegion",
    "CodeModel",
    "HeapModel",
    "ShardModel",
    "StackModel",
    "SyntheticWorkload",
    "WorkloadConfig",
    "generate_segment_streams",
    "generate_trace",
    "ArtifactCache",
    "artifact_key",
    "interleave_round_robin",
    "save_trace",
    "load_trace",
    "save_arrays",
    "load_arrays",
    "reuse_times",
    "unique_lines",
    "working_set_bytes",
]
