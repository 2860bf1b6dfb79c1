"""Numpy-backed memory traces.

A :class:`Trace` is the interchange format between workload generators (the
synthetic models and the search engine) and the simulators.  Each access
carries a byte address, an access kind (instruction fetch, load, store), the
software segment it belongs to (code / heap / shard / stack — the paper's
§III classification), and the issuing hardware thread.

Traces also carry ``instruction_count``: generators may represent several
retired instructions with a single memory access (e.g. one fetch event per
basic-block cache line), so misses-per-kilo-instruction must be normalized by
this count rather than by ``len(trace)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator, Sequence

import numpy as np

from repro._units import is_power_of_two
from repro.errors import TraceError


class AccessKind(IntEnum):
    """What kind of memory operation an access is."""

    INSTR = 0
    LOAD = 1
    STORE = 2


class Segment(IntEnum):
    """Software segment classification used throughout the paper's §III."""

    CODE = 0
    HEAP = 1
    SHARD = 2
    STACK = 3


#: Data segments, i.e. everything a load/store can touch.
DATA_SEGMENTS = (Segment.HEAP, Segment.SHARD, Segment.STACK)


@dataclass(frozen=True)
class Trace:
    """An immutable memory-access trace.

    Parameters
    ----------
    addr:
        Byte addresses, ``uint64``.
    kind:
        :class:`AccessKind` values, ``uint8``.
    segment:
        :class:`Segment` values, ``uint8``.
    thread:
        Hardware-thread ids, ``uint16``.
    instruction_count:
        Number of retired instructions this trace represents.  Must be at
        least the number of ``INSTR`` accesses.
    """

    addr: np.ndarray
    kind: np.ndarray
    segment: np.ndarray
    thread: np.ndarray
    instruction_count: int = field(default=0)

    def __post_init__(self) -> None:
        n = len(self.addr)
        for name in ("kind", "segment", "thread"):
            if len(getattr(self, name)) != n:
                raise TraceError(
                    f"field {name!r} has length {len(getattr(self, name))}, "
                    f"expected {n}"
                )
        object.__setattr__(self, "addr", np.ascontiguousarray(self.addr, np.uint64))
        object.__setattr__(self, "kind", np.ascontiguousarray(self.kind, np.uint8))
        object.__setattr__(
            self, "segment", np.ascontiguousarray(self.segment, np.uint8)
        )
        object.__setattr__(
            self, "thread", np.ascontiguousarray(self.thread, np.uint16)
        )
        if self.instruction_count == 0 and n:
            object.__setattr__(
                self,
                "instruction_count",
                int(np.count_nonzero(self.kind == AccessKind.INSTR)),
            )
        if self.instruction_count < 0:
            raise TraceError("instruction_count must be non-negative")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "Trace":
        """Return a zero-length trace."""
        return cls(
            addr=np.empty(0, np.uint64),
            kind=np.empty(0, np.uint8),
            segment=np.empty(0, np.uint8),
            thread=np.empty(0, np.uint16),
            instruction_count=0,
        )

    @classmethod
    def concatenate(cls, traces: Sequence["Trace"]) -> "Trace":
        """Concatenate traces back to back, summing instruction counts."""
        traces = [t for t in traces if len(t)]
        if not traces:
            return cls.empty()
        return cls(
            addr=np.concatenate([t.addr for t in traces]),
            kind=np.concatenate([t.kind for t in traces]),
            segment=np.concatenate([t.segment for t in traces]),
            thread=np.concatenate([t.thread for t in traces]),
            instruction_count=sum(t.instruction_count for t in traces),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.addr)

    def __iter__(self) -> Iterator[tuple[int, AccessKind, Segment, int]]:
        for i in range(len(self)):
            yield (
                int(self.addr[i]),
                AccessKind(int(self.kind[i])),
                Segment(int(self.segment[i])),
                int(self.thread[i]),
            )

    @property
    def kilo_instructions(self) -> float:
        """Instruction count in thousands (the KI of MPKI)."""
        return self.instruction_count / 1000.0

    def lines(self, block_size: int = 64) -> np.ndarray:
        """Return cache-line addresses (``addr // block_size``) as uint64."""
        if not is_power_of_two(block_size):
            raise TraceError(f"block_size must be a power of two, got {block_size}")
        shift = block_size.bit_length() - 1
        return self.addr >> np.uint64(shift)

    def thread_ids(self) -> list[int]:
        """Sorted list of distinct thread ids appearing in the trace."""
        return sorted(int(t) for t in np.unique(self.thread))

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------

    def select(self, mask: np.ndarray, instruction_count: int | None = None) -> "Trace":
        """Return the sub-trace where ``mask`` is True.

        ``instruction_count`` defaults to this trace's count scaled by the
        retained fraction of accesses, which keeps MPKI comparable when a
        filter removes accesses uniformly (e.g. selecting one thread out of a
        homogeneous interleave).  Pass an explicit value when the filter is
        not uniform (e.g. selecting only loads).
        """
        if mask.shape != self.addr.shape:
            raise TraceError("mask shape does not match trace length")
        if instruction_count is None:
            kept = int(np.count_nonzero(mask))
            total = len(self)
            instruction_count = (
                round(self.instruction_count * kept / total) if total else 0
            )
        return Trace(
            addr=self.addr[mask],
            kind=self.kind[mask],
            segment=self.segment[mask],
            thread=self.thread[mask],
            instruction_count=instruction_count,
        )

    def only_kind(self, *kinds: AccessKind) -> "Trace":
        """Sub-trace containing only the given access kinds.

        The instruction count is preserved: MPKI for e.g. the load-only
        sub-trace is still per kilo-instruction of the original execution.
        """
        mask = np.isin(self.kind, [int(k) for k in kinds])
        return self.select(mask, instruction_count=self.instruction_count)

    def only_segment(self, *segments: Segment) -> "Trace":
        """Sub-trace touching only the given segments (keeps instr count)."""
        mask = np.isin(self.segment, [int(s) for s in segments])
        return self.select(mask, instruction_count=self.instruction_count)

    def only_thread(self, thread_id: int) -> "Trace":
        """Sub-trace issued by one hardware thread.

        The instruction count is divided proportionally, assuming threads
        retire instructions in proportion to the accesses they issue.
        """
        mask = self.thread == np.uint16(thread_id)
        return self.select(mask)

    def instructions(self) -> "Trace":
        """Instruction-fetch accesses only."""
        return self.only_kind(AccessKind.INSTR)

    def data(self) -> "Trace":
        """Load and store accesses only."""
        return self.only_kind(AccessKind.LOAD, AccessKind.STORE)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def segment_counts(self) -> dict[Segment, int]:
        """Number of accesses per segment."""
        counts = np.bincount(self.segment, minlength=len(Segment))
        return {seg: int(counts[seg]) for seg in Segment}

    def kind_counts(self) -> dict[AccessKind, int]:
        """Number of accesses per access kind."""
        counts = np.bincount(self.kind, minlength=len(AccessKind))
        return {kind: int(counts[kind]) for kind in AccessKind}

    def describe(self) -> str:
        """One-line human-readable summary, for logs and examples."""
        segs = ", ".join(
            f"{seg.name.lower()}={count}"
            for seg, count in self.segment_counts().items()
            if count
        )
        return (
            f"Trace({len(self)} accesses, {self.instruction_count} instructions, "
            f"{len(self.thread_ids())} threads; {segs})"
        )
