"""Root and intermediate aggregation servers.

Queries "propagate down to all leaf nodes; results propagate up the tree,
with intermediate parents scoring and ordering content" (Figure 1).  A
:class:`RootServer` is one aggregator of that tree: its children are
leaves or other aggregators, and the true root asks the owning leaves
for snippets of the winning documents.

:meth:`RootServer.search` serves one query, closed loop, by submitting it
to a fresh :class:`~repro.search.engine.ServingEngine` over the tree's
leaves and draining it — the fan-out, retries, hedges, deadlines and
partial aggregation all live in the engine.  A query may carry a deadline
(milliseconds of simulated time, per :mod:`repro._units` convention);
each aggregation level spends ``policy.overhead_ms`` of that budget.
Leaf RPC latencies and failures are drawn from an optional
:class:`~repro.search.faults.FaultInjector` whose spec carries the leaf
utilization (the draws include the M/M/1 wait, so no RPC queues).
Leaves that miss the deadline or fail outright are left out of the merge:
the query returns a *degraded* :class:`SearchResultPage` (``complete``
False, ``leaves_answered < leaves_total``) instead of an error — the
graceful-degradation behaviour real serving trees exhibit under the
paper's §IV-B latency SLO.

Observability: the engine opens a ``root.aggregate`` span per
aggregation level under the front end's query span, and a ``leaf.rpc``
span per leaf tagged with the shard, attempt count, hedging decision,
and outcome.  Fan-out counters (``repro.search.root.*``) are shared by
all levels of one tree through the cluster's
:class:`~repro.obs.metrics.MetricsRegistry`; the engine's own queue and
engine families stay private to the tree.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence, Union

from repro.errors import ConfigurationError, DeadlineExceededError, ServingError
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.tracing import SpanContext, Tracer
from repro.search.engine import (
    LeafSet,
    LeafTree,
    QueueConfig,
    SearchResultPage,
    ServingEngine,
    fanout_counters,
)
from repro.search.faults import FaultInjector, RpcDraw, SimulatedClock
from repro.search.leaf import LeafServer
from repro.search.policies import ServingPolicy

Child = Union["RootServer", LeafServer]

#: The injector's draws already include the queueing wait.
_NO_QUEUE = QueueConfig(discipline="none")


class _IdealInjector(FaultInjector):
    """Every leaf answers at once; draws and counts nothing."""

    _INSTANT = RpcDraw(kind="ok", latency_ms=0.0)

    def plan_rpc(
        self, leaf_id: int, query_key: int | None = None, attempt: int = 1
    ) -> RpcDraw:
        return self._INSTANT


#: The no-injector path: zero latency, no aggregation overhead.
_IDEAL_INJECTOR = _IdealInjector()
_IDEAL_POLICY = ServingPolicy(overhead_ms=0.0)


class RootServer:
    """Aggregates results from a subtree of leaves.

    All nodes of one tree should share a ``metrics`` registry
    (``build_tree`` wires this) so the fan-out counters aggregate across
    levels.
    """

    def __init__(
        self,
        children: Sequence[Child],
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not children:
            raise ConfigurationError("a root server needs at least one child")
        self.children = list(children)
        # Per-instance: only the searched root counts, and build_tree
        # constructs the true root last, so its registration wins.
        self._queries = Counter(
            "repro.search.root.queries",
            help="Queries aggregated by the root server.",
            unit="queries",
        )
        if metrics is not None:
            metrics.register(self._queries, replace=True)
        # Each query's engine publishes into this private registry, which
        # holds the tree's shared fan-out counters and nothing else the
        # caller can see.
        self._engine_metrics = MetricsRegistry()
        fanout = fanout_counters(
            metrics if metrics is not None else self._engine_metrics
        )
        for counter in fanout.values():
            self._engine_metrics.register(counter)
        self._deadline_misses = fanout["deadline_misses"]
        # Children are fixed from here on: every query's engine shares
        # this layout, and with it the leaf set's doc → owners map.
        self._layout = self.layout()

    @property
    def queries_served(self) -> int:
        """Queries this aggregator has served (registry-backed)."""
        return self._queries.value

    def layout(self) -> tuple[LeafSet, LeafTree]:
        """The subtree's leaves (depth first) and their index tree.

        The tree nests leaf indices one level per aggregator, the shape
        :class:`~repro.search.engine.ServingEngine` takes as ``tree``.
        """
        leaves: list[LeafServer] = []

        def shape(node: RootServer) -> LeafTree:
            nested: list[int | LeafTree] = []
            for child in node.children:
                if isinstance(child, LeafServer):
                    nested.append(len(leaves))
                    leaves.append(child)
                else:
                    nested.append(shape(child))
            return tuple(nested)

        tree = shape(self)
        return LeafSet(leaves), tree

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
        """Serve one query through the whole subtree.

        Without an injector this is the ideal, zero-latency path (every
        leaf answers, ``latency_ms`` is None, nothing is drawn).  With
        one, leaves may spike, error, or die; ``on_incomplete`` selects
        between returning a degraded page (``"degrade"``, the default)
        and raising (``"raise"`` → :class:`DeadlineExceededError` when
        the deadline expired, :class:`ServingError` when leaves failed
        outright).  Every leaf must sit at the same depth of the tree.

        ``tracer``/``parent_span`` continue the front end's query span;
        leave them unset to serve untraced.  ``query_key`` (the query's
        arrival sequence number) keys the injector's per-(leaf, query,
        attempt) RNG streams; it defaults to this root's own arrival
        count.

        Units: ``deadline_ms`` is milliseconds of simulated time.
        """
        if deadline_ms is not None and deadline_ms <= 0:
            raise ConfigurationError(
                f"deadline_ms must be positive, got {deadline_ms}"
            )
        if on_incomplete not in ("degrade", "raise"):
            raise ConfigurationError(
                f"on_incomplete must be 'degrade' or 'raise', got {on_incomplete!r}"
            )
        self._queries.inc()
        ideal = injector is None
        leaves, tree = self._layout
        engine = ServingEngine(
            leaves=leaves,
            injector=_IDEAL_INJECTOR if ideal else injector,
            policy=_IDEAL_POLICY if ideal else policy,
            queue=_NO_QUEUE,
            metrics=self._engine_metrics,
            tree=tree,
            # Zero origin: latencies add up from 0.0 exactly, while the
            # injector's clock stays at the query's start.
            clock=SimulatedClock(),
            tracer=tracer,
        )
        misses_before = self._deadline_misses.value
        engine.submit_at(
            0.0,
            terms,
            top_k=top_k,
            # No latency, so no deadline can expire.
            deadline_ms=None if ideal else deadline_ms,
            query_key=self._queries.value - 1 if query_key is None else query_key,
            parent_span=parent_span,
        )
        (page,) = engine.run()
        if not page.complete and on_incomplete == "raise":
            if self._deadline_misses.value > misses_before:
                assert deadline_ms is not None
                raise DeadlineExceededError(
                    deadline_ms, page.leaves_answered, page.leaves_total
                )
            raise ServingError(
                f"{page.leaves_total - page.leaves_answered} of "
                f"{page.leaves_total} leaves failed and retries were exhausted"
            )
        return replace(page, latency_ms=None) if ideal else page

    @classmethod
    def build_tree(
        cls,
        leaves: Sequence[LeafServer],
        fanout: int = 4,
        metrics: MetricsRegistry | None = None,
    ) -> "RootServer":
        """Build a balanced aggregation tree over the leaves.

        Intermediate parents are inserted whenever a level exceeds the
        fanout, mirroring the paper's root/intermediate-parent hierarchy.
        All levels share ``metrics`` so the ``repro.search.root.*``
        counters aggregate across the whole tree.
        """
        if fanout < 2:
            raise ConfigurationError(f"fanout must be >= 2, got {fanout}")
        level: list[Child] = list(leaves)
        if not level:
            raise ConfigurationError("need at least one leaf")
        while len(level) > fanout:
            level = [
                cls(level[i : i + fanout], metrics=metrics)
                for i in range(0, len(level), fanout)
            ]
        return cls(level, metrics=metrics)
