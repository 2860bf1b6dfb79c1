"""Exception hierarchy for the repro library.

All library-specific failures derive from :class:`ReproError` so callers can
catch one type at API boundaries while the library still raises precise
subclasses internally.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """An object was constructed with invalid or inconsistent parameters."""


class TraceError(ReproError, ValueError):
    """A memory trace is malformed or incompatible with the requested op."""


class SimulationError(ReproError, RuntimeError):
    """A simulator reached an inconsistent internal state."""


class CalibrationError(ReproError, RuntimeError):
    """A model could not be calibrated against its measurement anchors."""


class ServingError(ReproError, RuntimeError):
    """A query could not be served by the aggregation tree."""


class SaturatedQueueError(ServingError):
    """A queueing computation was asked about a saturated queue (ρ >= 1).

    Closed-form M/M/1 quantiles diverge at utilization 1: a saturated
    queue has no stationary distribution, so there is no finite tail to
    report.  The error carries the utilization so callers can branch on
    *how* saturated the design is instead of pattern-matching a message;
    the event-driven engine (:mod:`repro.search.engine`) represents the
    same regime behaviourally — growing queues and shed load — rather
    than raising.
    """

    def __init__(self, utilization: float) -> None:
        super().__init__(
            f"queue is saturated: utilization {utilization:g} >= 1 has no "
            "stationary distribution (closed-form quantiles diverge)"
        )
        self.utilization = utilization


class DeadlineExceededError(ServingError):
    """A query's deadline expired before every leaf answered."""

    def __init__(self, deadline_ms: float, answered: int, total: int) -> None:
        super().__init__(
            f"deadline of {deadline_ms:g} ms expired with {answered}/{total} "
            "leaves answered"
        )
        self.deadline_ms = deadline_ms
        self.answered = answered
        self.total = total
