"""The complete serving system of Figure 1, wired end to end.

``SearchCluster.build`` constructs the whole stack — corpus, sharded index
placed in simulated memory, instrumented leaf servers, an aggregation tree
with a snippet-generating root, and a caching front end.  ``serve`` pushes a
query stream through it and ``leaf_trace`` returns the interleaved memory
trace the leaves emitted, ready for the cache simulators.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.memtrace.interleave import interleave_round_robin
from repro.memtrace.trace import Trace
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.tracing import Tracer
from repro.search.documents import Corpus, CorpusConfig
from repro.search.engine import QueueConfig, ServingEngine
from repro.search.faults import FaultInjector, FaultSpec
from repro.search.frontend import FrontendServer, ResultCache
from repro.search.loadgen import (
    LoadReport,
    poisson_arrival_times_ms,
    run_open_loop,
)
from repro.search.indexer import InvertedIndexBuilder
from repro.search.latency import LatencyAccumulator, QueryLatencyModel
from repro.search.leaf import LeafServer
from repro.search.policies import ServingPolicy
from repro.search.querygen import QueryGenerator
from repro.search.root import RootServer, SearchResultPage
from repro.search.simmem import SimulatedMemory, TraceRecorder


@dataclass(frozen=True)
class ClusterStats:
    """Aggregate behaviour of one serving run."""

    queries: int
    frontend_cache_hit_rate: float
    postings_scored: int
    leaf_instructions: int
    trace_accesses: int

    def render(self) -> str:
        return (
            f"{self.queries} queries; front-end cache hit rate "
            f"{self.frontend_cache_hit_rate:.1%}; {self.postings_scored} "
            f"postings scored; {self.leaf_instructions} leaf instructions; "
            f"{self.trace_accesses} traced accesses"
        )


class SearchCluster:
    """A self-contained search serving cluster."""

    def __init__(
        self,
        corpus: Corpus,
        leaves: list[LeafServer],
        frontend: FrontendServer,
        recorders: list[TraceRecorder],
        memory: SimulatedMemory,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not leaves:
            raise ConfigurationError("cluster needs at least one leaf")
        self.corpus = corpus
        self.leaves = leaves
        self.frontend = frontend
        self.recorders = recorders
        self.memory = memory
        #: The cluster-wide registry every component publishes into
        #: (a private one when the caller did not supply any).
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        corpus_config: CorpusConfig | None = None,
        num_leaves: int = 4,
        fanout: int = 4,
        result_cache_capacity: int = 2048,
        record_traces: bool = True,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> "SearchCluster":
        """Construct the full Figure 1 stack over a fresh synthetic corpus.

        Every component publishes into one shared ``metrics`` registry (a
        private one is created when none is given — ``metrics_snapshot``
        always works); pass a ``tracer`` to record per-query span trees.
        """
        if num_leaves < 1:
            raise ConfigurationError(f"num_leaves must be >= 1, got {num_leaves}")
        registry = metrics if metrics is not None else MetricsRegistry()
        corpus = Corpus(corpus_config or CorpusConfig(seed=seed))
        builder = InvertedIndexBuilder(num_shards=num_leaves)
        builder.add_corpus(corpus)
        memory = SimulatedMemory()
        shards = builder.build(memory=memory, seed=seed)

        recorders = [
            TraceRecorder(thread_id=i, metrics=registry) if record_traces else None
            for i in range(num_leaves)
        ]
        leaves = [
            LeafServer(
                shard,
                memory=memory,
                recorder=recorders[i],
                seed=seed + i,
                metrics=registry,
            )
            for i, shard in enumerate(shards)
        ]
        root = RootServer.build_tree(leaves, fanout=fanout, metrics=registry)
        frontend = FrontendServer(
            root,
            vocabulary=corpus.vocabulary,
            cache=ResultCache(result_cache_capacity, metrics=registry),
            metrics=registry,
            tracer=tracer,
        )
        return cls(
            corpus=corpus,
            leaves=leaves,
            frontend=frontend,
            recorders=[r for r in recorders if r is not None],
            memory=memory,
            metrics=registry,
        )

    # ------------------------------------------------------------------

    def serve_terms(self, queries: list[list[int]], top_k: int = 10) -> list[SearchResultPage]:
        """Serve a stream of term-id queries through the front end."""
        return [self.frontend.search_terms(q, top_k=top_k) for q in queries]

    def serve_generated(
        self, generator: QueryGenerator, count: int, top_k: int = 10
    ) -> list[SearchResultPage]:
        """Serve ``count`` queries sampled from a generator."""
        return self.serve_terms(generator.generate(count), top_k=top_k)

    def leaf_trace(self, chunk: int = 64) -> Trace:
        """Interleaved memory trace of all leaf servers."""
        if not self.recorders:
            raise ConfigurationError("cluster was built with record_traces=False")
        traces = [r.to_trace() for r in self.recorders]
        traces = [t for t in traces if len(t)]
        if not traces:
            raise ConfigurationError("no accesses recorded yet; serve queries first")
        if len(traces) == 1:
            return traces[0]
        return interleave_round_robin(traces, chunk=chunk)

    def stats(self) -> ClusterStats:
        """Aggregate counters of the run so far.

        Counters are cumulative over the cluster's lifetime: they survive
        trace drains (``TraceRecorder.reset``), unlike the recorders'
        ``pending_accesses`` buffers.
        """
        return ClusterStats(
            queries=self.frontend.queries_received,
            frontend_cache_hit_rate=self.frontend.cache.hit_rate,
            postings_scored=sum(leaf.postings_scored for leaf in self.leaves),
            leaf_instructions=sum(r.total_instructions for r in self.recorders),
            trace_accesses=sum(r.total_accesses for r in self.recorders),
        )

    def metrics_snapshot(self, prefix: str = "") -> MetricsSnapshot:
        """A point-in-time view of every registered metric.

        ``prefix`` filters hierarchically (e.g. ``"repro.search.leaf"``);
        see :meth:`repro.obs.metrics.MetricsRegistry.snapshot`.
        """
        return self.metrics.snapshot(prefix=prefix)

    # ------------------------------------------------------------------
    # Robust serving
    # ------------------------------------------------------------------

    def with_faults(
        self,
        spec: FaultSpec,
        policy: ServingPolicy | None = None,
        latency_model: QueryLatencyModel | None = None,
        result_cache_capacity: int = 0,
        seed: int = 0,
        tracer: Tracer | None = None,
    ) -> "SearchCluster":
        """A view of this cluster serving through a fault injector.

        Reuses the (expensive) corpus, shards, and aggregation tree but
        swaps in a fresh front end — new result cache, new injector, new
        simulated clock — so fault configurations can be swept without
        rebuilding the index and without cross-contaminating caches.
        The fresh components re-register into the shared registry
        (``replace=True``), so snapshots follow the active view while the
        superseded front end keeps its own counts.
        """
        frontend = FrontendServer(
            self.frontend.root,
            vocabulary=self.corpus.vocabulary,
            cache=ResultCache(result_cache_capacity, metrics=self.metrics),
            injector=FaultInjector(
                spec, model=latency_model, seed=seed, metrics=self.metrics
            ),
            policy=policy,
            metrics=self.metrics,
            tracer=tracer if tracer is not None else self.frontend.tracer,
        )
        return SearchCluster(
            corpus=self.corpus,
            leaves=self.leaves,
            frontend=frontend,
            recorders=self.recorders,
            memory=self.memory,
            metrics=self.metrics,
        )

    def with_engine(
        self,
        spec: FaultSpec | None = None,
        policy: ServingPolicy | None = None,
        latency_model: QueryLatencyModel | None = None,
        queue: QueueConfig | None = None,
        seed: int = 0,
    ) -> ServingEngine:
        """An event-driven serving engine over this cluster's leaves.

        The engine reuses the (expensive) shards and leaf servers but
        owns a fresh injector and event loop, so open-loop campaigns
        can be swept without rebuilding the index.  Its queue metrics
        (``repro.search.queue.*``) and reused fan-out counters publish
        into the cluster's shared registry.  The engine's tree is the
        cluster's aggregation tree, so overhead accounting agrees.
        """
        injector = FaultInjector(
            spec if spec is not None else FaultSpec(utilization=0.0),
            model=latency_model,
            seed=seed,
            metrics=self.metrics,
        )
        leaves, tree = self.frontend.root.layout()
        return ServingEngine(
            leaves=leaves,
            injector=injector,
            policy=policy,
            queue=queue,
            metrics=self.metrics,
            tree=tree,
        )

    def serve_open_loop(
        self,
        queries: list[list[int]],
        qps: float,
        top_k: int = 10,
        deadline_ms: float | None = None,
        spec: FaultSpec | None = None,
        policy: ServingPolicy | None = None,
        latency_model: QueryLatencyModel | None = None,
        queue: QueueConfig | None = None,
        seed: int = 0,
    ) -> tuple[list[SearchResultPage], LoadReport]:
        """Serve a query stream under open-loop Poisson arrivals.

        Unlike :meth:`serve_terms` (closed loop — the client waits for
        each page), arrivals here follow a fixed Poisson schedule at
        ``qps``, so the measured latencies in the returned
        :class:`~repro.search.loadgen.LoadReport` include queueing
        delay, and offered load beyond capacity shows up as degraded
        pages instead of being structurally impossible.

        Units: ``deadline_ms`` is each query's relative budget in
        simulated milliseconds.
        """
        engine = self.with_engine(
            spec=spec,
            policy=policy,
            latency_model=latency_model,
            queue=queue,
            seed=seed,
        )
        arrival_times_ms = poisson_arrival_times_ms(
            qps, len(queries), seed=seed
        )
        report = run_open_loop(
            engine,
            arrival_times_ms,
            queries=queries,
            top_k=top_k,
            deadline_ms=deadline_ms,
        )
        return engine.run(), report

    def serve_with_outcomes(
        self,
        queries: list[list[int]],
        top_k: int = 10,
        deadline_ms: float | None = None,
    ) -> tuple[list[SearchResultPage], LatencyAccumulator]:
        """Serve a query stream and accumulate per-query serving outcomes."""
        outcomes = LatencyAccumulator(metrics=self.metrics)
        pages = []
        for query in queries:
            page = self.frontend.search_terms(
                query, top_k=top_k, deadline_ms=deadline_ms
            )
            outcomes.observe(page)
            pages.append(page)
        return pages, outcomes
