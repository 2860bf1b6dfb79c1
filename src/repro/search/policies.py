"""Retry and hedged-request policies for the aggregation tree.

Aggregators in a deadline-bound serving tree do not simply wait for every
child: they retry transient failures, hedge slow RPCs with a duplicate
request, and budget a fixed aggregation overhead per tree level (the
"tail at scale" playbook).  These policies are plain configuration — the
mechanics live in :class:`repro.search.engine.ServingEngine` (which
:meth:`repro.search.root.RootServer.search` drives one query at a time)
and the randomness in :class:`repro.search.faults.FaultInjector`, so a
policy object stays reusable across runs and trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget for transient leaf failures.

    ``max_attempts`` counts the initial try; ``backoff_ms`` is the pause
    between attempts (simulated, added to the leaf's completion time; a
    retry whose backoff ends past the leaf's deadline budget is never
    sent).  Hard failures are never retried — a fail-stopped leaf
    cannot answer.
    """

    max_attempts: int = 2
    backoff_ms: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not (math.isfinite(self.backoff_ms) and self.backoff_ms >= 0):
            raise ConfigurationError(
                f"backoff_ms must be finite and >= 0, got {self.backoff_ms}"
            )

    def as_tags(self) -> dict[str, object]:
        """Span tags describing this policy (``retry_`` prefixed)."""
        return {
            "retry_max_attempts": self.max_attempts,
            "retry_backoff_ms": self.backoff_ms,
        }


@dataclass(frozen=True)
class HedgePolicy:
    """Duplicate a leaf RPC that has not answered after ``after_ms``.

    Only the first attempt is hedged, and the backup is sent whenever
    that attempt is still outstanding at ``after_ms`` — even if it later
    fails.  The hedged pair completes at ``min(first, after_ms +
    second)`` — the classic tail-cutting trade: a small amount of
    duplicate work buys a bounded p99.  A failed hedge simply forfeits
    the hedge.
    """

    after_ms: float = 50.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.after_ms) and self.after_ms > 0):
            raise ConfigurationError(
                f"after_ms must be positive and finite, got {self.after_ms}"
            )

    def as_tags(self) -> dict[str, object]:
        """Span tags describing this policy (``hedge_`` prefixed)."""
        return {"hedge_after_ms": self.after_ms}


@dataclass(frozen=True)
class ServingPolicy:
    """Everything an aggregator level needs to know about robustness."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: None disables hedging.
    hedge: HedgePolicy | None = None
    #: Fixed merge/network cost added per aggregation level, matching
    #: :class:`repro.search.latency.QueryLatencyModel.overhead_ms`.
    overhead_ms: float = 2.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.overhead_ms) and self.overhead_ms >= 0):
            raise ConfigurationError(
                f"overhead_ms must be finite and >= 0, got {self.overhead_ms}"
            )

    def as_tags(self) -> dict[str, object]:
        """Span tags describing the full policy (flat, prefix-namespaced)."""
        tags: dict[str, object] = {"overhead_ms": self.overhead_ms}
        tags.update(self.retry.as_tags())
        if self.hedge is not None:
            tags.update(self.hedge.as_tags())
        return tags
