"""The synchronous serving tree, frozen as a test oracle.

``RootServer.search`` used to walk the aggregation tree depth first,
drawing every attempt of one leaf before moving to the next and adding
the latencies up by hand.  That walk is kept here, unchanged apart from
drawing through :meth:`FaultInjector.plan_rpc`, so the engine-backed
``RootServer.search`` can be checked against it page for page
(``test_serving_equivalence.py``).  Not library code: nothing under
``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, DeadlineExceededError, ServingError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER, SpanContext, Tracer
from repro.search.engine import SearchResultPage, _merge_hits, fanout_counters
from repro.search.faults import HEDGE_ATTEMPT_OFFSET, FaultInjector
from repro.search.leaf import LeafServer, SearchHit
from repro.search.policies import ServingPolicy
from repro.search.root import RootServer

_DEFAULT_POLICY = ServingPolicy()


class _LeafUnavailable(Exception):
    """A leaf RPC failed; ``after_ms`` is the time lost learning of it."""

    def __init__(self, transient: bool, after_ms: float) -> None:
        super().__init__()
        self.transient = transient
        self.after_ms = after_ms


def _leaf_latency_ms(injector, leaf_id, query_key, attempt):
    draw = injector.plan_rpc(leaf_id, query_key=query_key, attempt=attempt)
    if draw.kind in ("dead", "hard"):
        raise _LeafUnavailable(transient=False, after_ms=draw.latency_ms)
    if draw.kind == "transient":
        raise _LeafUnavailable(transient=True, after_ms=draw.latency_ms)
    return draw.latency_ms


@dataclass
class _SubtreeReply:
    """One subtree's contribution to a fan-out query."""

    hits: list[SearchHit]
    answered: int
    total: int
    #: When this subtree's merged reply was ready, ms after query start.
    completion_ms: float
    missed_deadline: bool
    answered_leaves: list[LeafServer] = field(default_factory=list)


class SyncTreeOracle:
    """Serves queries over ``root``'s tree the synchronous way.

    Drop-in for ``RootServer`` where a front end calls ``search``; the
    fan-out counters and ``repro.search.root.queries`` count into
    ``metrics`` exactly as the tree's own would.
    """

    def __init__(self, root: RootServer, metrics: MetricsRegistry) -> None:
        self.root = root
        fanout = fanout_counters(metrics)
        self._leaf_rpcs = fanout["leaf_rpcs"]
        self._retries = fanout["retries"]
        self._hedged = fanout["hedged_rpcs"]
        self._deadline_misses = fanout["deadline_misses"]
        self._leaf_failures = fanout["leaf_failures"]
        self._queries = metrics.counter("repro.search.root.queries")

    def _leaf_reply(
        self,
        leaf: LeafServer,
        terms: list[int],
        top_k: int,
        budget_ms: float | None,
        injector: FaultInjector | None,
        policy: ServingPolicy,
        tracer: Tracer = NULL_TRACER,
        parent_span: SpanContext | None = None,
        query_key: int | None = None,
    ) -> tuple[list[SearchHit] | None, float, bool]:
        self._leaf_rpcs.inc()
        span = None
        if tracer.enabled:
            start_ms = injector.clock.now_ms if injector is not None else 0.0
            span = tracer.start_span(
                "leaf.rpc", parent=parent_span, start_ms=start_ms
            ).tag(shard=leaf.shard.shard_id)
        if injector is None:
            hits = leaf.search(terms, top_k=top_k)
            if span is not None:
                span.tag(attempts=1, hedged=False, outcome="ok").finish(0.0)
            return hits, 0.0, False
        leaf_id = leaf.shard.shard_id
        retry = policy.retry
        elapsed = 0.0
        hedged_any = False
        for attempt in range(1, retry.max_attempts + 1):
            if attempt > 1:
                self._retries.inc()
            try:
                latency = _leaf_latency_ms(injector, leaf_id, query_key, attempt)
            except _LeafUnavailable as error:
                elapsed += error.after_ms
                if budget_ms is not None and elapsed > budget_ms:
                    self._deadline_misses.inc()
                    if span is not None:
                        span.tag(
                            attempts=attempt, hedged=hedged_any, outcome="deadline"
                        ).finish(budget_ms)
                    return None, budget_ms, True
                if not error.transient or attempt == retry.max_attempts:
                    self._leaf_failures.inc()
                    if span is not None:
                        span.tag(
                            attempts=attempt, hedged=hedged_any, outcome="failed"
                        ).finish(elapsed)
                    return None, elapsed, False
                elapsed += retry.backoff_ms
                continue
            if policy.hedge is not None and latency > policy.hedge.after_ms:
                self._hedged.inc()
                hedged_any = True
                try:
                    hedged = _leaf_latency_ms(
                        injector, leaf_id, query_key, HEDGE_ATTEMPT_OFFSET + attempt
                    )
                except _LeafUnavailable:
                    hedged = None  # the hedge itself failed; keep the primary
                if hedged is not None:
                    latency = min(latency, policy.hedge.after_ms + hedged)
            elapsed += latency
            if budget_ms is not None and elapsed > budget_ms:
                self._deadline_misses.inc()
                if span is not None:
                    span.tag(
                        attempts=attempt, hedged=hedged_any, outcome="deadline"
                    ).finish(budget_ms)
                return None, budget_ms, True
            hits = leaf.search(terms, top_k=top_k)
            if span is not None:
                span.tag(
                    attempts=attempt, hedged=hedged_any, outcome="ok"
                ).finish(elapsed)
            return hits, elapsed, False
        self._leaf_failures.inc()
        if span is not None:
            span.tag(
                attempts=retry.max_attempts, hedged=hedged_any, outcome="failed"
            ).finish(elapsed)
        return None, elapsed, False

    def _collect(
        self,
        node: RootServer,
        terms: list[int],
        top_k: int,
        budget_ms: float | None,
        injector: FaultInjector | None,
        policy: ServingPolicy,
        tracer: Tracer,
        parent_span: SpanContext | None,
        query_key: int | None,
    ) -> _SubtreeReply:
        span = None
        level_ctx = parent_span
        if tracer.enabled:
            start_ms = injector.clock.now_ms if injector is not None else 0.0
            span = tracer.start_span(
                "root.aggregate", parent=parent_span, start_ms=start_ms
            ).tag(children=len(node.children), snippets=node is self.root)
            level_ctx = span.context
        child_budget = (
            None if budget_ms is None else max(0.0, budget_ms - policy.overhead_ms)
        )
        merged: list[SearchHit] = []
        answered_leaves: list[LeafServer] = []
        answered = total = 0
        completion = 0.0
        missed = False
        for child in node.children:
            if isinstance(child, LeafServer):
                total += 1
                hits, ready_ms, child_missed = self._leaf_reply(
                    child,
                    terms,
                    top_k,
                    child_budget,
                    injector,
                    policy,
                    tracer=tracer,
                    parent_span=level_ctx,
                    query_key=query_key,
                )
                if hits is not None:
                    answered += 1
                    answered_leaves.append(child)
                    merged.extend(hits)
            else:
                reply = self._collect(
                    child,
                    terms,
                    top_k,
                    child_budget,
                    injector,
                    policy,
                    tracer,
                    level_ctx,
                    query_key,
                )
                total += reply.total
                answered += reply.answered
                answered_leaves.extend(reply.answered_leaves)
                merged.extend(reply.hits)
                ready_ms, child_missed = reply.completion_ms, reply.missed_deadline
            completion = max(completion, ready_ms)
            missed = missed or child_missed
        if missed and budget_ms is not None:
            # A straggler forced this level to wait out its entire budget.
            completion = budget_ms
        elif injector is not None:
            completion += policy.overhead_ms
        if span is not None:
            span.tag(
                answered=answered, total=total, missed_deadline=missed
            ).finish(completion)
        return _SubtreeReply(
            hits=_merge_hits(merged, top_k),
            answered=answered,
            total=total,
            completion_ms=completion,
            missed_deadline=missed,
            answered_leaves=answered_leaves,
        )

    def search(
        self,
        terms: list[int],
        top_k: int = 10,
        deadline_ms: float | None = None,
        injector: FaultInjector | None = None,
        policy: ServingPolicy | None = None,
        on_incomplete: str = "degrade",
        tracer: Tracer | None = None,
        parent_span: SpanContext | None = None,
        query_key: int | None = None,
    ) -> SearchResultPage:
        if deadline_ms is not None and deadline_ms <= 0:
            raise ConfigurationError(
                f"deadline_ms must be positive, got {deadline_ms}"
            )
        policy = policy or _DEFAULT_POLICY
        self._queries.inc()
        reply = self._collect(
            self.root,
            terms,
            top_k,
            deadline_ms,
            injector,
            policy,
            tracer if tracer is not None else NULL_TRACER,
            parent_span,
            query_key,
        )
        complete = reply.answered == reply.total
        if not complete and on_incomplete == "raise":
            if reply.missed_deadline:
                assert deadline_ms is not None
                raise DeadlineExceededError(deadline_ms, reply.answered, reply.total)
            raise ServingError(
                f"{reply.total - reply.answered} of {reply.total} leaves "
                "failed and retries were exhausted"
            )
        owner_of = {
            int(doc): leaf
            for leaf in reply.answered_leaves
            for doc in leaf.shard.doc_ids.tolist()
        }
        snippets = [
            owner_of[hit.doc_id].snippet(hit.doc_id, terms) for hit in reply.hits
        ]
        return SearchResultPage(
            terms=tuple(terms),
            hits=tuple(reply.hits),
            snippets=tuple(snippets),
            complete=complete,
            leaves_answered=reply.answered,
            leaves_total=reply.total,
            latency_ms=None if injector is None else reply.completion_ms,
        )
