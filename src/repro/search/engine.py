"""The serving core: one event-driven path for every fan-out query.

The paper's serving hierarchy (Figure 1) fans each query out to every
leaf and merges the replies up an aggregation tree under a latency SLO
(§IV-B).  :class:`ServingEngine` is the only implementation of that
fan-out: retries, hedges, deadlines and partial aggregation live here
and nowhere else.  It serves two kinds of caller:

* **Closed loop, one query at a time** —
  :meth:`repro.search.root.RootServer.search` submits a single query to
  a fresh engine over its tree.  The queue shape is ``"none"`` (no RPC
  waits) and the injector's spec carries the utilization, so every
  leaf's sojourn time is *sampled* from the closed-form M/M/1 model.
* **Open loop, many overlapping queries** — the load generator and the
  ``hurryup`` experiment submit Poisson arrivals.  Leaves become actual
  queues drained by replica servers, service times are drawn at ρ = 0
  (pure work), and *waiting emerges* from contention.  p50/p99/p999 are
  then measured quantities, valid at any offered load — including past
  saturation, where admission control sheds excess work and pages
  degrade instead of the model raising.

Components:

* :class:`EventLoop` — a deterministic discrete-event loop over a
  :class:`~repro.search.faults.SimulatedClock` (heap ordered by time
  with a scheduling-sequence tie-break; cancellable handles).
* :class:`QueueConfig` — per-leaf queue shape: discipline (FIFO,
  earliest-deadline-first, or none), replica count, admission depth
  limit, and RPC batching.
* :class:`ServingEngine` — fans queries out over a tree of leaves,
  drives retries, hedges and deadlines as events, and emits pages.
  Fault and latency draws come from the injector's *keyed* streams
  (:meth:`~repro.search.faults.FaultInjector.plan_rpc`), so a query's
  draws do not depend on how it interleaved with others.
* :class:`HeterogeneousPool` — big/little cores with deadline-aware
  "hurry up" migration (after arXiv:1912.09844; energy framing in
  arXiv:2303.08396): work starts on efficient little cores and jumps to
  big ones exactly when the deadline is at risk.

Deadlines follow the tree: each aggregation level keeps
``policy.overhead_ms`` of the budget for its merge, so a leaf must
answer by ``D - levels * overhead`` (clamped at 0 per level).  A query
missing any leaf then returns a degraded page with latency exactly
``D``; once every leaf has resolved the deadline no longer applies.

Observability: the fan-out counters (``repro.search.root.*``), the
queue family (``repro.search.queue.*``: wait/service/sojourn
histograms, depth gauge, shed/batch counters) and the engine family
(``repro.search.engine.*``).  With a tracer, every query emits a
``root.aggregate`` span per aggregator and a ``leaf.rpc`` span per leaf,
mirroring the tree, when its page is ready.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence, Union

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    MetricsRegistry,
    log_spaced_bounds,
)
from repro.obs.tracing import NULL_TRACER, SpanContext, Tracer
from repro.search.faults import (
    HEDGE_ATTEMPT_OFFSET,
    FaultInjector,
    FaultSpec,
    RpcDraw,
    SimulatedClock,
)
from repro.search.leaf import LeafServer, SearchHit
from repro.search.policies import ServingPolicy

#: Queue-delay buckets: 0.01 ms .. 100 s, fine-grained so measured tails
#: survive bucketing (≈15% bucket width at per_decade=16).
_QUEUE_BOUNDS = log_spaced_bounds(lo=0.01, hi=100_000.0, per_decade=16)

#: The fan-out families, shared by every level of one tree.
_FANOUT_FAMILIES = (
    ("leaf_rpcs", "Logical leaf RPCs issued by aggregators (all tree levels)."),
    ("retries", "Extra leaf attempts after transient errors."),
    ("hedged_rpcs", "Backup (hedged) leaf requests issued for slow primaries."),
    ("deadline_misses", "Leaf replies dropped because the deadline budget expired."),
    ("leaf_failures", "Leaf RPCs that never answered (failures, retries exhausted)."),
)

#: A tree of leaf indices: one nesting level per aggregation level.
LeafTree = Sequence[Union[int, "LeafTree"]]


def fanout_counters(registry: MetricsRegistry) -> dict[str, Counter]:
    """The ``repro.search.root.*`` counters in ``registry``, by short name.

    Short names: ``leaf_rpcs``, ``retries``, ``hedged_rpcs``,
    ``deadline_misses``, ``leaf_failures``.
    """
    return {
        name: registry.counter(f"repro.search.root.{name}", help=text, unit="rpcs")
        for name, text in _FANOUT_FAMILIES
    }


@dataclass(frozen=True)
class SearchResultPage:
    """What the front end renders: ranked hits plus snippets.

    ``complete`` is False when some leaves' results are missing (deadline
    expiry or failure); ``leaves_answered``/``leaves_total`` quantify the
    damage and ``latency_ms`` is the simulated serving latency (None when
    the query ran without a latency model).
    """

    terms: tuple[int, ...]
    hits: tuple[SearchHit, ...]
    snippets: tuple[str, ...]
    complete: bool = True
    leaves_answered: int = 0
    leaves_total: int = 0
    latency_ms: float | None = None

    def __post_init__(self) -> None:
        if len(self.hits) != len(self.snippets):
            raise ConfigurationError("hits and snippets must align")
        if not 0 <= self.leaves_answered <= max(self.leaves_total, 0):
            raise ConfigurationError(
                f"leaves_answered {self.leaves_answered} inconsistent with "
                f"leaves_total {self.leaves_total}"
            )


def _merge_hits(hits: Iterable[SearchHit], top_k: int) -> list[SearchHit]:
    """Merge child results: dedupe by document, rank, truncate.

    A document replicated on several shards must appear once, scored by
    its best replica; ties break on ascending ``doc_id`` so the merged
    order is deterministic regardless of child arrival order.
    """
    best: dict[int, SearchHit] = {}
    for hit in hits:
        current = best.get(hit.doc_id)
        if current is None or hit.score > current.score:
            best[hit.doc_id] = hit
    merged = sorted(best.values(), key=lambda h: (-h.score, h.doc_id))
    return merged[:top_k]


class LeafSet(tuple):
    """Leaf servers in index order; the doc → owners map is built once,
    so every engine over a kept ``LeafSet`` (``RootServer``'s) shares it.
    """

    @cached_property
    def owners(self) -> dict[int, tuple[int, ...]]:
        """Indices of the leaves whose shards hold each document."""
        owners: dict[int, tuple[int, ...]] = {}
        for leaf_index, leaf in enumerate(self):
            for doc in leaf.shard.doc_ids.tolist():
                owners[doc] = owners.get(doc, ()) + (leaf_index,)
        return owners


def _tree_levels(tree: LeafTree, num_leaves: int) -> int:
    """Aggregation levels of ``tree``; rejects malformed shapes."""
    if isinstance(tree, int):
        raise ConfigurationError("tree must be a sequence of leaf indices")
    indices: list[int] = []
    depths: set[int] = set()

    def walk(node: int | LeafTree, depth: int) -> None:
        if isinstance(node, int):
            indices.append(node)
            depths.add(depth)
            return
        if not node:
            raise ConfigurationError("every aggregator needs at least one child")
        for child in node:
            walk(child, depth + 1)

    walk(tree, 0)
    if sorted(indices) != list(range(num_leaves)):
        raise ConfigurationError(
            f"tree must name each of the {num_leaves} leaf indices exactly once"
        )
    if len(depths) != 1:
        raise ConfigurationError(
            f"every leaf must sit at the same depth, got depths {sorted(depths)}"
        )
    return depths.pop()


# ----------------------------------------------------------------------
# Event loop
# ----------------------------------------------------------------------


@dataclass
class EventHandle:
    """A scheduled callback; :meth:`cancel` makes the loop skip it."""

    time_ms: float
    seq: int
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event dead; the loop discards it lazily."""
        self.cancelled = True


class EventLoop:
    """A deterministic discrete-event loop in simulated milliseconds.

    Events fire in ``(time_ms, scheduling order)`` — the monotone
    sequence number breaks same-instant ties, so a run is a pure
    function of the schedule calls.  The loop moves its
    :class:`~repro.search.faults.SimulatedClock` to each event's time
    exactly, keeping every component that shares the clock (injector
    death times, span timestamps) on engine time.
    """

    def __init__(self, clock: SimulatedClock | None = None) -> None:
        self.clock = clock if clock is not None else SimulatedClock()
        self._heap: list[tuple[float, int, EventHandle, Callable[[], None]]] = []
        self._seq = 0
        #: Events executed so far (cancelled ones excluded).
        self.events_run = 0

    def __len__(self) -> int:
        """Pending heap entries (cancelled events still count until popped)."""
        return len(self._heap)

    def schedule_at(
        self, time_ms: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Run ``callback`` at an absolute simulated time.

        Units: ``time_ms`` is milliseconds of simulated time; it must
        not lie in the past.
        """
        if time_ms < self.clock.now_ms:
            raise ConfigurationError(
                f"cannot schedule into the past: {time_ms} < {self.clock.now_ms}"
            )
        handle = EventHandle(time_ms=float(time_ms), seq=self._seq)
        heapq.heappush(self._heap, (float(time_ms), self._seq, handle, callback))
        self._seq += 1
        return handle

    def schedule(self, delay_ms: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` after a relative delay (>= 0) in simulated ms."""
        if delay_ms < 0:
            raise ConfigurationError(f"delay_ms must be >= 0, got {delay_ms}")
        return self.schedule_at(self.clock.now_ms + delay_ms, callback)

    def run(self, until_ms: float | None = None) -> int:
        """Drain the heap (or stop after ``until_ms``); returns events run.

        Units: ``until_ms`` is an absolute simulated time; events
        scheduled strictly after it stay pending.
        """
        executed = 0
        while self._heap:
            time_ms, __, handle, callback = self._heap[0]
            if until_ms is not None and time_ms > until_ms:
                break
            heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self.clock.advance_to(time_ms)
            callback()
            executed += 1
        self.events_run += executed
        return executed


# ----------------------------------------------------------------------
# Leaf queues
# ----------------------------------------------------------------------

_DISCIPLINES = ("fifo", "edf", "none")


@dataclass(frozen=True)
class QueueConfig:
    """Shape of every leaf's serving queue.

    ``discipline`` orders waiting RPCs: ``"fifo"`` by arrival,
    ``"edf"`` by earliest absolute deadline (deadline-less RPCs sort
    last), ``"none"`` has no queue at all — every RPC completes exactly
    its draw after it is issued, for injectors whose draws already
    include the wait (a spec with ρ > 0).  ``replicas`` is the number of
    identical servers per leaf; arrivals join the least-loaded replica's
    queue.  ``max_depth`` (per replica, queued + in service) is the
    admission limit — beyond it the RPC is shed immediately, which is
    what keeps a saturated engine degraded instead of unboundedly
    backlogged.  ``max_batch`` RPCs are drained per server dispatch,
    paying ``batch_overhead_ms`` once per batch; ``max_batch=1`` with
    one replica is exactly M/M/1.
    """

    discipline: str = "fifo"
    replicas: int = 1
    max_depth: int | None = None
    max_batch: int = 1
    batch_overhead_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.discipline not in _DISCIPLINES:
            raise ConfigurationError(
                f"discipline must be one of {_DISCIPLINES}, got "
                f"{self.discipline!r}"
            )
        if self.replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {self.replicas}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigurationError(
                f"max_depth must be >= 1 or None, got {self.max_depth}"
            )
        if self.max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.batch_overhead_ms < 0:
            raise ConfigurationError(
                f"batch_overhead_ms must be >= 0, got {self.batch_overhead_ms}"
            )
        if self.discipline == "none" and (
            self.replicas,
            self.max_depth,
            self.max_batch,
            self.batch_overhead_ms,
        ) != (1, None, 1, 0.0):
            raise ConfigurationError(
                "discipline 'none' has no queue: replicas, max_depth and "
                "batching do not apply"
            )


@dataclass
class _Job:
    """One leaf RPC attempt sitting in (or flowing through) a queue."""

    seq: int
    query: "_QueryState"
    leaf_index: int
    attempt: int
    draw: RpcDraw
    deadline_at_ms: float
    enqueued_ms: float = 0.0


class _LeafReplica:
    """One server draining one queue of leaf RPCs."""

    def __init__(
        self, engine: "ServingEngine", leaf_index: int, replica_index: int
    ) -> None:
        self.engine = engine
        self.leaf_index = leaf_index
        self.replica_index = replica_index
        self._queue: list[tuple[float, int, _Job]] = []
        #: Queued plus in-service jobs — the least-loaded balancing key
        #: and the admission-control depth.
        self.outstanding = 0
        self.busy = False

    def enqueue(self, job: _Job) -> None:
        engine = self.engine
        job.enqueued_ms = engine.loop.clock.now_ms
        rank = (
            job.deadline_at_ms
            if engine.queue.discipline == "edf"
            else float(job.seq)
        )
        heapq.heappush(self._queue, (rank, job.seq, job))
        self.outstanding += 1
        engine._note_depth(+1)
        if not self.busy:
            self._start_batch()

    def _start_batch(self) -> None:
        engine = self.engine
        now_ms = engine.loop.clock.now_ms
        batch: list[_Job] = []
        while self._queue and len(batch) < engine.queue.max_batch:
            batch.append(heapq.heappop(self._queue)[2])
        self.busy = True
        engine._batches.inc()
        # In-batch service is sequential: job i completes after the jobs
        # batched ahead of it, and the server frees when the batch does.
        finish_ms = now_ms + engine.queue.batch_overhead_ms
        for job in batch:
            engine._wait_hist.observe(now_ms - job.enqueued_ms)
            engine._service_hist.observe(job.draw.latency_ms)
            finish_ms += job.draw.latency_ms
            engine.loop.schedule_at(
                finish_ms, lambda j=job: self._job_done(j)
            )
        engine.loop.schedule_at(finish_ms, self._batch_done)

    def _job_done(self, job: _Job) -> None:
        self.outstanding -= 1
        self.engine._note_depth(-1)
        self.engine._rpc_resolved(job)

    def _batch_done(self) -> None:
        self.busy = False
        if self._queue:
            self._start_batch()


# ----------------------------------------------------------------------
# Query state machine
# ----------------------------------------------------------------------


class _QueryState:
    """Per-in-flight-query bookkeeping: leaf fan-out, hedges, deadline."""

    __slots__ = (
        "seq",
        "terms",
        "query_key",
        "top_k",
        "start_ms",
        "deadline_ms",
        "deadline_at_ms",
        "trace_start_ms",
        "parent_span",
        "done",
        "resolved",
        "resolved_ms",
        "attempts",
        "leaf_hits",
        "answered",
        "resolved_count",
        "hedged",
        "hedge_handles",
        "deadline_handle",
    )

    def __init__(
        self,
        seq: int,
        terms: list[int],
        query_key: int,
        top_k: int,
        start_ms: float,
        deadline_ms: float | None,
        leaf_budget_ms: float,
        num_leaves: int,
    ) -> None:
        self.seq = seq
        self.terms = terms
        self.query_key = query_key
        self.top_k = top_k
        self.start_ms = start_ms
        self.deadline_ms = deadline_ms
        #: When every leaf must have answered (absolute simulated ms).
        self.deadline_at_ms = start_ms + leaf_budget_ms
        self.trace_start_ms = 0.0
        self.parent_span: SpanContext | None = None
        #: True once no further leaf reply can change the page.
        self.done = False
        self.resolved = [False] * num_leaves
        self.resolved_ms = [0.0] * num_leaves
        self.attempts = [1] * num_leaves
        self.leaf_hits: list[list[SearchHit] | None] = [None] * num_leaves
        self.answered = 0
        self.resolved_count = 0
        self.hedged = [False] * num_leaves
        self.hedge_handles: list[EventHandle | None] = [None] * num_leaves
        self.deadline_handle: EventHandle | None = None


class ServingEngine:
    """The event-driven serving core.

    Construct over real ``leaves`` (pages carry scored hits and
    snippets) or a bare ``num_leaves`` (pure queueing study — no
    content, orders of magnitude faster; what the load generator uses).
    ``tree`` arranges the leaf indices under aggregators, one nesting
    level per aggregation level (default: one aggregator over every
    leaf); each level charges ``policy.overhead_ms`` once per query on
    the way up, and every leaf must sit at the same depth.

    ``clock`` runs the event loop on its own clock instead of the
    injector's: a closed-loop caller serving one query at a time keeps
    the injector's clock at the query's start (fail-stop deaths are
    stamped then) while the loop measures the query from zero.  With a
    ``tracer`` every query emits its span tree when its page is ready.

    Use :meth:`submit_at` to schedule arrivals (open loop: arrival
    times come from the workload, never from completions) and
    :meth:`run` to drain the event heap; pages come back in arrival
    order.  All randomness flows through the injector's keyed streams,
    so two engines over the same scenario draw identical faults and
    service times.
    """

    def __init__(
        self,
        leaves: Sequence[LeafServer] | None = None,
        num_leaves: int | None = None,
        injector: FaultInjector | None = None,
        policy: ServingPolicy | None = None,
        queue: QueueConfig | None = None,
        metrics: MetricsRegistry | None = None,
        tree: LeafTree | None = None,
        clock: SimulatedClock | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if leaves is None and num_leaves is None:
            raise ConfigurationError("need leaves or num_leaves")
        self.leaves = (
            leaves if leaves is None or isinstance(leaves, LeafSet) else LeafSet(leaves)
        )
        self.num_leaves = (
            len(self.leaves) if self.leaves is not None else int(num_leaves)  # type: ignore[arg-type]
        )
        if self.num_leaves < 1:
            raise ConfigurationError("need at least one leaf")
        self.tree = tuple(range(self.num_leaves)) if tree is None else tree
        self.aggregation_levels = _tree_levels(self.tree, self.num_leaves)
        self.injector = (
            injector
            if injector is not None
            else FaultInjector(FaultSpec(utilization=0.0))
        )
        self.policy = policy if policy is not None else ServingPolicy()
        self.queue = queue if queue is not None else QueueConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.score_content = self.leaves is not None
        self.loop = EventLoop(
            clock=clock if clock is not None else self.injector.clock
        )
        self._replicas = (
            []
            if self.queue.discipline == "none"
            else [
                [
                    _LeafReplica(self, leaf_index, replica_index)
                    for replica_index in range(self.queue.replicas)
                ]
                for leaf_index in range(self.num_leaves)
            ]
        )
        self._pages: dict[int, SearchResultPage] = {}
        self._next_query_seq = 0
        self._next_job_seq = 0
        self._depth_total = 0
        self._on_done: Callable[[SearchResultPage], None] | None = None

        registry = metrics if metrics is not None else NULL_REGISTRY
        # The queue family: what a sampled sojourn time cannot show.
        self._wait_hist = registry.histogram(
            "repro.search.queue.wait_ms",
            help="Time a leaf RPC spent queued before service began.",
            unit="ms",
            bounds=_QUEUE_BOUNDS,
        )
        self._service_hist = registry.histogram(
            "repro.search.queue.service_ms",
            help="Pure service time of leaf RPCs (utilization-free draws).",
            unit="ms",
            bounds=_QUEUE_BOUNDS,
        )
        self._sojourn_hist = registry.histogram(
            "repro.search.queue.sojourn_ms",
            help="Leaf RPC wait + service: the measured queueing delay.",
            unit="ms",
            bounds=_QUEUE_BOUNDS,
        )
        self._depth_gauge = registry.gauge(
            "repro.search.queue.depth",
            help="Leaf RPCs queued or in service, all replicas.",
            unit="rpcs",
        )
        self._shed = registry.counter(
            "repro.search.queue.shed",
            help="Leaf RPCs rejected by admission control (queue full).",
            unit="rpcs",
        )
        self._batches = registry.counter(
            "repro.search.queue.batches",
            help="Server dispatches (each drains up to max_batch RPCs).",
            unit="batches",
        )
        self._engine_queries = registry.counter(
            "repro.search.engine.queries",
            help="Queries admitted to the event-driven engine.",
            unit="queries",
        )
        self._engine_degraded = registry.counter(
            "repro.search.engine.degraded",
            help="Engine pages served from an incomplete leaf set.",
            unit="pages",
        )
        self._engine_latency = registry.histogram(
            "repro.search.engine.latency_ms",
            help="Measured end-to-end query latency under the event loop.",
            unit="ms",
            bounds=_QUEUE_BOUNDS,
        )
        fanout = fanout_counters(registry)
        self._leaf_rpcs = fanout["leaf_rpcs"]
        self._retries = fanout["retries"]
        self._hedged = fanout["hedged_rpcs"]
        self._deadline_misses = fanout["deadline_misses"]
        self._leaf_failures = fanout["leaf_failures"]

    # ------------------------------------------------------------------

    def on_done(self, callback: Callable[[SearchResultPage], None]) -> None:
        """Register a completion hook (called once per finished page)."""
        self._on_done = callback

    def _leaf_id(self, leaf_index: int) -> int:
        """The injector-facing leaf id (shard id when leaves are real)."""
        if self.leaves is not None:
            return self.leaves[leaf_index].shard.shard_id
        return leaf_index

    def _note_depth(self, delta: int) -> None:
        self._depth_total += delta
        self._depth_gauge.set(float(self._depth_total))

    def _leaf_budget_ms(self, deadline_ms: float | None) -> float:
        """What is left of a deadline once every level kept its overhead.

        Units: milliseconds of simulated time (infinite without one).
        """
        if deadline_ms is None:
            return math.inf
        budget_ms = deadline_ms
        for __ in range(self.aggregation_levels):
            budget_ms = max(0.0, budget_ms - self.policy.overhead_ms)
        return budget_ms

    # ------------------------------------------------------------------

    def submit_at(
        self,
        arrival_ms: float,
        terms: Sequence[int] = (),
        top_k: int = 10,
        deadline_ms: float | None = None,
        query_key: int | None = None,
        parent_span: SpanContext | None = None,
    ) -> int:
        """Schedule one query's arrival; returns its sequence number.

        ``query_key`` defaults to the sequence number — the same
        convention the front end uses — keying this query's fault and
        latency draws.  ``parent_span`` continues a caller's trace (the
        front end's query span); without one each query's spans start a
        trace of their own.

        Units: ``arrival_ms`` is an absolute simulated time;
        ``deadline_ms`` is a relative budget from arrival (None = no
        deadline).
        """
        if deadline_ms is not None and deadline_ms <= 0:
            raise ConfigurationError(
                f"deadline_ms must be positive, got {deadline_ms}"
            )
        seq = self._next_query_seq
        self._next_query_seq += 1
        key = seq if query_key is None else query_key
        terms_list = [int(t) for t in terms]
        self.loop.schedule_at(
            arrival_ms,
            lambda: self._start_query(
                seq, terms_list, key, top_k, deadline_ms, parent_span
            ),
        )
        return seq

    def run(self, until_ms: float | None = None) -> list[SearchResultPage]:
        """Drain the event heap; pages completed so far, in arrival order.

        Units: ``until_ms`` is an absolute simulated-time stopping point
        (None drains everything).
        """
        self.loop.run(until_ms=until_ms)
        return [self._pages[seq] for seq in sorted(self._pages)]

    # ------------------------------------------------------------------

    def _start_query(
        self,
        seq: int,
        terms: list[int],
        query_key: int,
        top_k: int,
        deadline_ms: float | None,
        parent_span: SpanContext | None,
    ) -> None:
        self._engine_queries.inc()
        query = _QueryState(
            seq=seq,
            terms=terms,
            query_key=query_key,
            top_k=top_k,
            start_ms=self.loop.clock.now_ms,
            deadline_ms=deadline_ms,
            leaf_budget_ms=self._leaf_budget_ms(deadline_ms),
            num_leaves=self.num_leaves,
        )
        if self.tracer.enabled:
            query.trace_start_ms = self.injector.clock.now_ms
            query.parent_span = parent_span
        if deadline_ms is not None:
            # A leaf answering exactly at its budget is in time.
            query.deadline_handle = self.loop.schedule_at(
                math.nextafter(query.deadline_at_ms, math.inf),
                lambda: self._on_deadline(query),
            )
        for leaf_index in range(self.num_leaves):
            self._leaf_rpcs.inc()
            self._issue_rpc(query, leaf_index, attempt=1)

    def _issue_rpc(self, query: _QueryState, leaf_index: int, attempt: int) -> None:
        draw = self.injector.plan_rpc(
            self._leaf_id(leaf_index),
            query_key=query.query_key,
            attempt=attempt,
        )
        if attempt < HEDGE_ATTEMPT_OFFSET:
            query.attempts[leaf_index] = attempt
        refused = draw.kind in ("dead", "hard")
        if refused or self.queue.discipline == "none":
            # A refused connection is detected without occupying a queue;
            # with no queue at all, every draw is the whole sojourn time.
            self.loop.schedule(
                draw.latency_ms,
                lambda: self._rpc_outcome(query, leaf_index, attempt, draw.kind),
            )
        elif not self._enqueue(query, leaf_index, attempt, draw):
            return
        if self.policy.hedge is not None and attempt == 1 and not refused:
            query.hedge_handles[leaf_index] = self.loop.schedule(
                self.policy.hedge.after_ms,
                lambda: self._fire_hedge(query, leaf_index, attempt),
            )

    def _enqueue(
        self, query: _QueryState, leaf_index: int, attempt: int, draw: RpcDraw
    ) -> bool:
        """Queue one RPC on its leaf's least-loaded replica; False if shed."""
        replica = min(
            self._replicas[leaf_index],
            key=lambda r: (r.outstanding, r.replica_index),
        )
        if (
            self.queue.max_depth is not None
            and replica.outstanding >= self.queue.max_depth
        ):
            self._shed.inc()
            self._rpc_failed(query, leaf_index, attempt, transient=False)
            return False
        job = _Job(
            seq=self._next_job_seq,
            query=query,
            leaf_index=leaf_index,
            attempt=attempt,
            draw=draw,
            deadline_at_ms=query.deadline_at_ms,
        )
        self._next_job_seq += 1
        replica.enqueue(job)
        return True

    def _fire_hedge(self, query: _QueryState, leaf_index: int, attempt: int) -> None:
        if query.done or query.resolved[leaf_index]:
            return
        query.hedged[leaf_index] = True
        self._hedged.inc()
        self._issue_rpc(query, leaf_index, HEDGE_ATTEMPT_OFFSET + attempt)

    def _rpc_resolved(self, job: _Job) -> None:
        self._sojourn_hist.observe(self.loop.clock.now_ms - job.enqueued_ms)
        self._rpc_outcome(job.query, job.leaf_index, job.attempt, job.draw.kind)

    def _rpc_outcome(
        self, query: _QueryState, leaf_index: int, attempt: int, kind: str
    ) -> None:
        if kind == "ok":
            self._rpc_succeeded(query, leaf_index)
        else:
            self._rpc_failed(
                query, leaf_index, attempt, transient=kind == "transient"
            )

    def _rpc_failed(
        self, query: _QueryState, leaf_index: int, attempt: int, transient: bool
    ) -> None:
        if query.done or query.resolved[leaf_index]:
            return
        if attempt >= HEDGE_ATTEMPT_OFFSET:
            # A failed hedge forfeits the hedge; the primary may still win.
            return
        retry = self.policy.retry
        if transient and attempt < retry.max_attempts:
            self._retries.inc()
            self.loop.schedule(
                retry.backoff_ms,
                lambda: self._retry(query, leaf_index, attempt + 1),
            )
            return
        self._leaf_failures.inc()
        self._resolve_leaf(query, leaf_index, hits=None)

    def _retry(self, query: _QueryState, leaf_index: int, attempt: int) -> None:
        # A backoff that ends past the deadline never draws the retry.
        if query.done or query.resolved[leaf_index]:
            return
        self._issue_rpc(query, leaf_index, attempt)

    def _rpc_succeeded(self, query: _QueryState, leaf_index: int) -> None:
        if query.done or query.resolved[leaf_index]:
            return  # late reply: lost a hedge race or the deadline passed
        if self.score_content:
            assert self.leaves is not None
            hits = self.leaves[leaf_index].search(query.terms, top_k=query.top_k)
        else:
            hits = []
        self._resolve_leaf(query, leaf_index, hits=hits)

    def _resolve_leaf(
        self, query: _QueryState, leaf_index: int, hits: list[SearchHit] | None
    ) -> None:
        now_ms = self.loop.clock.now_ms
        query.resolved[leaf_index] = True
        query.resolved_ms[leaf_index] = now_ms
        query.resolved_count += 1
        handle = query.hedge_handles[leaf_index]
        if handle is not None:
            handle.cancel()
        if hits is not None:
            query.answered += 1
            query.leaf_hits[leaf_index] = hits
        if query.resolved_count == self.num_leaves:
            # Every leaf is in, so the deadline no longer applies; each
            # level pays its merge overhead on the way up.
            if query.deadline_handle is not None:
                query.deadline_handle.cancel()
            finish_ms = now_ms
            for __ in range(self.aggregation_levels):
                finish_ms += self.policy.overhead_ms
            self.loop.schedule_at(
                finish_ms,
                lambda: self._finalize(query, self.loop.clock.now_ms - query.start_ms),
            )

    def _on_deadline(self, query: _QueryState) -> None:
        query.done = True
        for leaf_index in range(self.num_leaves):
            if not query.resolved[leaf_index]:
                self._deadline_misses.inc()
        deadline_ms = query.deadline_ms
        assert deadline_ms is not None
        # A straggler made the root wait out its whole budget.
        self.loop.schedule_at(
            max(self.loop.clock.now_ms, query.start_ms + deadline_ms),
            lambda: self._finalize(query, deadline_ms),
        )

    def _finalize(self, query: _QueryState, latency_ms: float) -> None:
        query.done = True
        merged = _merge_hits(
            (hit for hits in query.leaf_hits if hits for hit in hits),
            query.top_k,
        )
        if self.score_content and merged:
            assert self.leaves is not None
            answered = [hits is not None for hits in query.leaf_hits]
            # The snippet comes from the last owner that answered.
            snippets = tuple(
                self.leaves[
                    max(i for i in self.leaves.owners[hit.doc_id] if answered[i])
                ].snippet(hit.doc_id, query.terms)
                for hit in merged
            )
        else:
            snippets = tuple("" for __ in merged)
        complete = query.answered == self.num_leaves
        if not complete:
            self._engine_degraded.inc()
        self._engine_latency.observe(latency_ms)
        if self.tracer.enabled:
            self._trace(query, self.tree, query.parent_span, query.deadline_ms, True)
        page = SearchResultPage(
            terms=tuple(query.terms),
            hits=tuple(merged),
            snippets=snippets,
            complete=complete,
            leaves_answered=query.answered,
            leaves_total=self.num_leaves,
            latency_ms=latency_ms,
        )
        self._pages[query.seq] = page
        if self._on_done is not None:
            self._on_done(page)

    def _trace(
        self,
        query: _QueryState,
        node: LeafTree,
        parent: SpanContext | None,
        budget_ms: float | None,
        top: bool,
    ) -> tuple[int, int, float, bool]:
        """Emit one aggregator's span subtree; returns its reply summary.

        The summary is ``(answered, total, ready_ms, missed_deadline)``:
        an aggregator is ready ``overhead_ms`` after its slowest child,
        or at its own budget when a leaf below it missed the deadline.

        Units: ``budget_ms`` is this level's deadline budget in
        simulated milliseconds (None = no deadline).
        """
        tracer = self.tracer
        start_ms = query.trace_start_ms
        span = tracer.start_span(
            "root.aggregate", parent=parent, start_ms=start_ms
        ).tag(children=len(node), snippets=top and self.score_content)
        child_budget_ms = (
            None
            if budget_ms is None
            else max(0.0, budget_ms - self.policy.overhead_ms)
        )
        answered = total = 0
        completion_ms = 0.0
        missed = False
        for child in node:
            if isinstance(child, int):
                total += 1
                if not query.resolved[child]:
                    outcome, ready_ms, child_missed = "deadline", child_budget_ms, True
                else:
                    ready_ms = query.resolved_ms[child] - query.start_ms
                    outcome = "failed" if query.leaf_hits[child] is None else "ok"
                    child_missed = False
                answered += outcome == "ok"
                assert ready_ms is not None
                tracer.start_span(
                    "leaf.rpc", parent=span.context, start_ms=start_ms
                ).tag(
                    shard=self._leaf_id(child),
                    attempts=query.attempts[child],
                    hedged=query.hedged[child],
                    outcome=outcome,
                ).finish(ready_ms)
            else:
                child_answered, child_total, ready_ms, child_missed = self._trace(
                    query, child, span.context, child_budget_ms, False
                )
                answered += child_answered
                total += child_total
            completion_ms = max(completion_ms, ready_ms)
            missed = missed or child_missed
        if missed and budget_ms is not None:
            completion_ms = budget_ms
        else:
            completion_ms += self.policy.overhead_ms
        span.tag(answered=answered, total=total, missed_deadline=missed).finish(
            completion_ms
        )
        return answered, total, completion_ms, missed


# ----------------------------------------------------------------------
# Heterogeneous big/little pool ("hurry up" scheduling)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CoreSpec:
    """A homogeneous core group: how many, and how fast.

    ``speed`` is relative throughput — a core at 2.0 drains work twice
    as fast as a unit core, so a job with ``demand_ms`` of unit-speed
    work occupies it for ``demand_ms / 2``.
    """

    count: int
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ConfigurationError(f"count must be >= 0, got {self.count}")
        if self.speed <= 0:
            raise ConfigurationError(f"speed must be positive, got {self.speed}")


@dataclass
class _PoolJob:
    """One deadline-carrying job flowing through the pool."""

    seq: int
    demand_ms: float
    arrival_ms: float
    deadline_at_ms: float
    remaining_ms: float = 0.0
    started_ms: float = -1.0
    running_on: str = ""
    migrated: bool = False
    finished: bool = False
    done_handle: EventHandle | None = None
    panic_handle: EventHandle | None = None


@dataclass
class PoolStats:
    """Aggregate outcome of one pool run."""

    completed: int = 0
    deadline_misses: int = 0
    migrations: int = 0
    preemptions: int = 0
    latencies_ms: list[float] = field(default_factory=list)

    def quantile_ms(self, p: float) -> float:
        """Empirical p-quantile of job completion latency."""
        if not 0 < p < 1:
            raise ConfigurationError(f"p must be in (0, 1), got {p}")
        if not self.latencies_ms:
            raise ConfigurationError("no jobs completed yet")
        ordered = sorted(self.latencies_ms)
        index = min(len(ordered) - 1, math.ceil(p * len(ordered)) - 1)
        return ordered[index]

    @property
    def miss_rate(self) -> float:
        """Fraction of completed jobs that blew their deadline."""
        return self.deadline_misses / self.completed if self.completed else 0.0


class HeterogeneousPool:
    """Big/little cores with deadline-aware "hurry up" migration.

    Two policies share the same event loop and job stream:

    * ``"fifo"`` — one arrival-ordered queue; any free core takes the
      head (fastest free core first).  The baseline: long jobs camp on
      big cores whether they need them or not.
    * ``"hurryup"`` — every job starts life on a little (efficient)
      core.  At admission a *panic time* is computed: the last instant
      a big core, paying ``migration_overhead_ms``, could still meet
      the deadline.  A panic timer migrates the job — preempting it
      mid-service if necessary, carrying exactly its remaining demand —
      onto the big queue (earliest deadline first).  Jobs whose little
      completion makes the deadline never migrate; jobs no big core
      could save are left to finish late rather than waste a migration.

    Deadlines are soft: late jobs complete and are counted in
    ``stats.deadline_misses``.
    """

    def __init__(
        self,
        loop: EventLoop,
        big: CoreSpec,
        little: CoreSpec,
        policy: str = "hurryup",
        migration_overhead_ms: float = 0.5,
    ) -> None:
        if policy not in ("fifo", "hurryup"):
            raise ConfigurationError(
                f"policy must be 'fifo' or 'hurryup', got {policy!r}"
            )
        if big.count + little.count < 1:
            raise ConfigurationError("pool needs at least one core")
        if policy == "hurryup":
            if not big.count or not little.count:
                raise ConfigurationError("hurryup needs both core kinds")
            if big.speed <= little.speed:
                raise ConfigurationError(
                    "hurryup needs big cores faster than little ones "
                    f"(got {big.speed} <= {little.speed})"
                )
        if migration_overhead_ms < 0:
            raise ConfigurationError(
                f"migration_overhead_ms must be >= 0, got {migration_overhead_ms}"
            )
        self.loop = loop
        self.big = big
        self.little = little
        self.policy = policy
        self.migration_overhead_ms = migration_overhead_ms
        self.stats = PoolStats()
        self._free_big = big.count
        self._free_little = little.count
        #: Waiting jobs: (rank, seq, job).  FIFO ranks by seq; the
        #: hurryup big queue ranks by absolute deadline (EDF).
        self._big_queue: list[tuple[float, int, _PoolJob]] = []
        self._little_queue: list[tuple[float, int, _PoolJob]] = []
        self._next_seq = 0

    # ------------------------------------------------------------------

    def submit_at(
        self, arrival_ms: float, demand_ms: float, deadline_ms: float
    ) -> int:
        """Schedule one job; returns its sequence number.

        Units: ``arrival_ms`` absolute simulated time; ``demand_ms`` is
        unit-speed work; ``deadline_ms`` is a relative budget from
        arrival.
        """
        if demand_ms <= 0:
            raise ConfigurationError(f"demand_ms must be positive, got {demand_ms}")
        if deadline_ms <= 0:
            raise ConfigurationError(
                f"deadline_ms must be positive, got {deadline_ms}"
            )
        seq = self._next_seq
        self._next_seq += 1
        job = _PoolJob(
            seq=seq,
            demand_ms=float(demand_ms),
            arrival_ms=float(arrival_ms),
            deadline_at_ms=float(arrival_ms) + float(deadline_ms),
            remaining_ms=float(demand_ms),
        )
        self.loop.schedule_at(arrival_ms, lambda: self._arrive(job))
        return seq

    def run(self) -> PoolStats:
        """Drain the loop and return the run's aggregate stats."""
        self.loop.run()
        return self.stats

    # ------------------------------------------------------------------

    def _arrive(self, job: _PoolJob) -> None:
        if self.policy == "fifo":
            heapq.heappush(self._big_queue, (float(job.seq), job.seq, job))
            self._dispatch_fifo()
            return
        # hurryup: little first, with a panic timer as the safety net.
        heapq.heappush(self._little_queue, (float(job.seq), job.seq, job))
        self._arm_panic(job)
        self._dispatch_little()

    def _dispatch_fifo(self) -> None:
        while self._big_queue and (self._free_big or self._free_little):
            job = heapq.heappop(self._big_queue)[2]
            if self._free_big:
                self._free_big -= 1
                self._start(job, "big", self.big.speed)
            else:
                self._free_little -= 1
                self._start(job, "little", self.little.speed)

    def _dispatch_little(self) -> None:
        while self._free_little and self._little_queue:
            job = heapq.heappop(self._little_queue)[2]
            if job.migrated or job.finished:
                continue
            self._free_little -= 1
            self._start(job, "little", self.little.speed)

    def _dispatch_big(self) -> None:
        while self._free_big and self._big_queue:
            job = heapq.heappop(self._big_queue)[2]
            if job.finished:
                continue
            self._free_big -= 1
            self._start(job, "big", self.big.speed)

    def _start(self, job: _PoolJob, kind: str, speed: float) -> None:
        now_ms = self.loop.clock.now_ms
        job.started_ms = now_ms
        job.running_on = kind
        service_ms = job.remaining_ms / speed
        job.done_handle = self.loop.schedule(
            service_ms, lambda: self._complete(job)
        )
        if (
            self.policy == "hurryup"
            and kind == "little"
            and job.panic_handle is not None
        ):
            # Re-arm with the running-job formula: remaining demand now
            # shrinks at little speed, moving the break-even point.
            job.panic_handle.cancel()
            job.panic_handle = None
            self._arm_panic(job)

    def _complete(self, job: _PoolJob) -> None:
        now_ms = self.loop.clock.now_ms
        job.finished = True
        job.running_on, freed = "", job.running_on
        if job.panic_handle is not None:
            job.panic_handle.cancel()
            job.panic_handle = None
        self.stats.completed += 1
        self.stats.latencies_ms.append(now_ms - job.arrival_ms)
        if now_ms > job.deadline_at_ms:
            self.stats.deadline_misses += 1
        if freed == "big":
            self._free_big += 1
        else:
            self._free_little += 1
        if self.policy == "fifo":
            self._dispatch_fifo()
        else:
            self._dispatch_big()
            self._dispatch_little()

    # -- hurryup machinery ---------------------------------------------

    def _panic_time_ms(self, job: _PoolJob) -> float | None:
        """Latest instant a big core still meets this job's deadline.

        None when no migration will ever be needed (the little path
        makes the deadline) or none can help (already unsalvageable).
        """
        now_ms = self.loop.clock.now_ms
        overhead_ms = self.migration_overhead_ms
        if job.running_on == "little":
            # remaining(t) = remaining_now - (t - now) * little_speed
            little_done_ms = job.started_ms + job.remaining_ms / self.little.speed
            if little_done_ms <= job.deadline_at_ms:
                return None
            remaining_now_ms = job.remaining_ms - (
                (now_ms - job.started_ms) * self.little.speed
            )
            ratio = self.little.speed / self.big.speed
            panic_ms = (
                job.deadline_at_ms
                - overhead_ms
                - remaining_now_ms / self.big.speed
                - now_ms * ratio
            ) / (1.0 - ratio)
        else:
            # Waiting: demand does not shrink while queued.
            panic_ms = (
                job.deadline_at_ms
                - overhead_ms
                - job.remaining_ms / self.big.speed
            )
        if panic_ms < now_ms:
            return None  # even an instant migration would be late
        return panic_ms

    def _arm_panic(self, job: _PoolJob) -> None:
        panic_ms = self._panic_time_ms(job)
        if panic_ms is None:
            return
        job.panic_handle = self.loop.schedule_at(
            panic_ms, lambda: self._panic(job)
        )

    def _panic(self, job: _PoolJob) -> None:
        job.panic_handle = None
        if job.finished or job.migrated:
            return
        now_ms = self.loop.clock.now_ms
        if job.running_on == "little":
            # Preempt: bank the work done so far, free the core.
            elapsed_ms = now_ms - job.started_ms
            job.remaining_ms = max(
                0.0, job.remaining_ms - elapsed_ms * self.little.speed
            )
            if job.done_handle is not None:
                job.done_handle.cancel()
                job.done_handle = None
            job.running_on = ""
            self._free_little += 1
            self.stats.preemptions += 1
        job.migrated = True
        job.remaining_ms += self.migration_overhead_ms * self.big.speed
        self.stats.migrations += 1
        heapq.heappush(self._big_queue, (job.deadline_at_ms, job.seq, job))
        self._dispatch_big()
        self._dispatch_little()
