"""Tests for the event-driven serving core (:mod:`repro.search.engine`)."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.search.cluster import SearchCluster
from repro.search.documents import CorpusConfig
from repro.search.engine import (
    CoreSpec,
    EventLoop,
    HeterogeneousPool,
    QueueConfig,
    ServingEngine,
)
from repro.search.faults import (
    HEDGE_ATTEMPT_OFFSET,
    FaultInjector,
    FaultSpec,
    RpcDraw,
)
from repro.search.latency import QueryLatencyModel
from repro.search.policies import HedgePolicy, RetryPolicy, ServingPolicy


class PlannedInjector(FaultInjector):
    """Plays back scripted :class:`RpcDraw` outcomes per leaf.

    Script values are floats (an ok draw with that latency) or
    ``(kind, latency_ms)`` pairs; off-script calls are ok at 1 ms.
    """

    def __init__(self, script=None):
        super().__init__(FaultSpec(utilization=0.0), seed=0)
        self.script = {k: list(v) for k, v in (script or {}).items()}
        self.planned = []

    def plan_rpc(self, leaf_id, query_key=None, attempt=1):
        self.planned.append((leaf_id, query_key, attempt))
        queue = self.script.get(leaf_id)
        if not queue:
            return RpcDraw(kind="ok", latency_ms=1.0)
        outcome = queue.pop(0)
        if isinstance(outcome, tuple):
            kind, latency_ms = outcome
            return RpcDraw(kind=kind, latency_ms=float(latency_ms))
        return RpcDraw(kind="ok", latency_ms=float(outcome))


def _engine(script=None, metrics=None, **kwargs):
    """A content-free engine with scripted draws and zero overheads."""
    kwargs.setdefault("num_leaves", 1)
    kwargs.setdefault(
        "policy",
        ServingPolicy(retry=RetryPolicy(max_attempts=1), overhead_ms=0.0),
    )
    return ServingEngine(
        injector=PlannedInjector(script), metrics=metrics, **kwargs
    )


class TestEventLoop:
    def test_orders_by_time_then_schedule_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(5.0, lambda: fired.append("late"))
        loop.schedule_at(1.0, lambda: fired.append("first"))
        loop.schedule_at(1.0, lambda: fired.append("second"))
        assert loop.run() == 3
        assert fired == ["first", "second", "late"]
        assert loop.clock.now_ms == 5.0
        assert loop.events_run == 3

    def test_clock_lands_exactly_on_event_times(self):
        """Regression: advancing by ``time - now`` drifted in the last bit,
        so an event at t could observe a clock reading a hair before t."""
        loop = EventLoop()
        target = 5.416179938894346
        seen = []
        loop.schedule_at(1.1, lambda: None)
        loop.schedule_at(target, lambda: seen.append(loop.clock.now_ms))
        loop.run()
        assert seen == [target]
        assert loop.clock.now_ms == target

    def test_nested_scheduling(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(
            1.0,
            lambda: (
                fired.append("outer"),
                loop.schedule(2.0, lambda: fired.append("inner")),
            ),
        )
        loop.run()
        assert fired == ["outer", "inner"]
        assert loop.clock.now_ms == 3.0

    def test_cancel_skips_event(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule_at(1.0, lambda: fired.append("cancelled"))
        loop.schedule_at(2.0, lambda: fired.append("kept"))
        handle.cancel()
        assert loop.run() == 1
        assert fired == ["kept"]

    def test_run_until_leaves_future_events_pending(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(1.0, lambda: fired.append(1))
        loop.schedule_at(10.0, lambda: fired.append(10))
        loop.run(until_ms=5.0)
        assert fired == [1] and len(loop) == 1
        loop.run()
        assert fired == [1, 10]

    def test_validation(self):
        loop = EventLoop()
        loop.clock.advance(5.0)
        with pytest.raises(ConfigurationError):
            loop.schedule_at(4.0, lambda: None)
        with pytest.raises(ConfigurationError):
            loop.schedule(-1.0, lambda: None)


class TestQueueConfig:
    def test_defaults_are_mm1(self):
        config = QueueConfig()
        assert config.discipline == "fifo"
        assert config.replicas == 1 and config.max_batch == 1
        assert config.max_depth is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"discipline": "lifo"},
            {"replicas": 0},
            {"max_depth": 0},
            {"max_batch": 0},
            {"batch_overhead_ms": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            QueueConfig(**kwargs)


class TestServingEngine:
    def test_construction_validation(self):
        with pytest.raises(ConfigurationError):
            ServingEngine()
        with pytest.raises(ConfigurationError):
            ServingEngine(num_leaves=0)
        with pytest.raises(ConfigurationError):
            ServingEngine(num_leaves=1, tree=())

    def test_submit_validation(self):
        engine = _engine()
        with pytest.raises(ConfigurationError):
            engine.submit_at(0.0, deadline_ms=0.0)

    def test_waiting_emerges_from_contention(self):
        # Two queries overlap on one server: the second's latency is its
        # service time plus the time it spent queued behind the first.
        engine = _engine({0: [10.0, 10.0]})
        engine.submit_at(0.0)
        engine.submit_at(1.0)
        pages = engine.run()
        assert [p.latency_ms for p in pages] == [10.0, 19.0]
        assert all(p.complete for p in pages)

    def test_replicas_absorb_contention(self):
        engine = _engine({0: [10.0, 10.0]}, queue=QueueConfig(replicas=2))
        engine.submit_at(0.0)
        engine.submit_at(0.0)
        pages = engine.run()
        assert [p.latency_ms for p in pages] == [10.0, 10.0]

    def test_admission_control_sheds(self):
        metrics = MetricsRegistry()
        engine = _engine(
            {0: [10.0] * 3}, queue=QueueConfig(max_depth=1), metrics=metrics
        )
        for __ in range(3):
            engine.submit_at(0.0)
        pages = engine.run()
        served = [p for p in pages if p.leaves_answered]
        shed = [p for p in pages if not p.leaves_answered]
        assert len(served) == 1 and len(shed) == 2
        assert served[0].latency_ms == 10.0
        assert all(p.latency_ms == 0.0 for p in shed)
        snap = metrics.snapshot()
        assert snap.value("repro.search.queue.shed") == 2
        assert snap.value("repro.search.root.leaf_failures") == 2

    def test_batching_amortizes_dispatch(self):
        # First arrival dispatches alone; the two queued behind it drain
        # as one batch paying the overhead once.
        metrics = MetricsRegistry()
        engine = _engine(
            {0: [10.0] * 3},
            queue=QueueConfig(max_batch=2, batch_overhead_ms=1.0),
            metrics=metrics,
        )
        for __ in range(3):
            engine.submit_at(0.0)
        pages = engine.run()
        assert [p.latency_ms for p in pages] == [11.0, 22.0, 32.0]
        assert metrics.snapshot().value("repro.search.queue.batches") == 2

    def test_edf_discipline_reorders_waiting_rpcs(self):
        engine = _engine(
            {0: [10.0] * 3}, queue=QueueConfig(discipline="edf")
        )
        engine.submit_at(0.0, deadline_ms=1000.0)
        engine.submit_at(1.0, deadline_ms=1000.0)  # looser: served last
        engine.submit_at(1.0, deadline_ms=50.0)  # tighter: jumps the queue
        pages = engine.run()
        assert [p.latency_ms for p in pages] == [10.0, 29.0, 19.0]

    def test_transient_retry_then_success(self):
        metrics = MetricsRegistry()
        engine = _engine(
            {0: [("transient", 2.0), 3.0]},
            policy=ServingPolicy(
                retry=RetryPolicy(max_attempts=2, backoff_ms=1.0),
                overhead_ms=0.0,
            ),
            metrics=metrics,
        )
        engine.submit_at(0.0)
        (page,) = engine.run()
        # error surfaces at 2, backoff to 3, retry serves by 6.
        assert page.latency_ms == 6.0 and page.complete
        assert metrics.snapshot().value("repro.search.root.retries") == 1

    def test_retries_exhausted_degrades(self):
        metrics = MetricsRegistry()
        engine = _engine(
            {0: [("transient", 2.0), ("transient", 2.0)]},
            policy=ServingPolicy(
                retry=RetryPolicy(max_attempts=2, backoff_ms=1.0),
                overhead_ms=0.0,
            ),
            metrics=metrics,
        )
        engine.submit_at(0.0)
        (page,) = engine.run()
        assert not page.complete and page.leaves_answered == 0
        assert metrics.snapshot().value("repro.search.root.leaf_failures") == 1

    def test_hedge_wins_race(self):
        metrics = MetricsRegistry()
        engine = _engine(
            {0: [50.0, 2.0]},
            policy=ServingPolicy(
                retry=RetryPolicy(max_attempts=1),
                hedge=HedgePolicy(after_ms=5.0),
                overhead_ms=0.0,
            ),
            queue=QueueConfig(replicas=2),
            metrics=metrics,
        )
        engine.submit_at(0.0)
        (page,) = engine.run()
        assert page.latency_ms == 7.0 and page.complete
        assert metrics.snapshot().value("repro.search.root.hedged_rpcs") == 1
        # The hedge attempt drew from its own keyed namespace.
        injector = engine.injector
        assert (0, 0, HEDGE_ATTEMPT_OFFSET + 1) in injector.planned

    def test_deadline_emits_degraded_page(self):
        metrics = MetricsRegistry()
        engine = _engine({0: [50.0]}, metrics=metrics)
        engine.submit_at(0.0, deadline_ms=10.0)
        (page,) = engine.run()
        assert page.latency_ms == 10.0
        assert not page.complete and page.leaves_answered == 0
        snap = metrics.snapshot()
        assert snap.value("repro.search.root.deadline_misses") == 1
        assert snap.value("repro.search.engine.degraded") == 1

    def test_hard_failure_detected_without_queueing(self):
        engine = _engine({0: [("hard", 0.5)]}, num_leaves=2)
        engine.submit_at(0.0)
        (page,) = engine.run()
        # Leaf 0 fail-stops at 0.5 ms; leaf 1 answers at 1 ms (default).
        assert page.latency_ms == 1.0
        assert page.leaves_answered == 1 and page.leaves_total == 2

    def test_aggregation_levels_charge_overhead(self):
        engine = _engine(
            {0: [4.0]},
            policy=ServingPolicy(retry=RetryPolicy(max_attempts=1), overhead_ms=2.0),
            tree=(((0,),),),
        )
        engine.submit_at(0.0)
        (page,) = engine.run()
        assert page.latency_ms == 4.0 + 3 * 2.0

    def test_open_loop_queries_are_traced(self):
        tracer = Tracer(capacity=64)
        engine = _engine(
            {0: [30.0, 1.0], 1: [2.0, 2.0]},
            num_leaves=2,
            queue=QueueConfig(replicas=2),
            tracer=tracer,
        )
        engine.submit_at(0.0)
        engine.submit_at(5.0)
        engine.run()
        spans = tracer.spans()
        # Pages finish out of arrival order; each query is its own trace.
        roots = [s for s in spans if s.name == "root.aggregate"]
        assert [(s.start_ms, s.duration_ms) for s in roots] == [
            (5.0, 2.0),
            (0.0, 30.0),
        ]
        assert all(s.parent_id is None for s in roots)
        for root in roots:
            leaf_spans = [s for s in spans if s.parent_id == root.span_id]
            assert [s.tags["shard"] for s in leaf_spans] == [0, 1]
            assert {s.trace_id for s in leaf_spans} == {root.trace_id}
            assert root.tags["answered"] == root.tags["total"] == 2

    def test_pages_return_in_arrival_order(self):
        engine = _engine({0: [30.0, 1.0]}, queue=QueueConfig(replicas=2))
        engine.submit_at(0.0)
        engine.submit_at(0.0)
        pages = engine.run()
        assert [p.latency_ms for p in pages] == [30.0, 1.0]

    def test_measured_quantiles_flow_into_queue_histograms(self):
        metrics = MetricsRegistry()
        engine = _engine({0: [10.0, 10.0]}, metrics=metrics)
        engine.submit_at(0.0)
        engine.submit_at(0.0)
        engine.run()
        snap = metrics.snapshot()
        wait = snap.payload("repro.search.queue.wait_ms")
        sojourn = snap.payload("repro.search.queue.sojourn_ms")
        assert wait["count"] == 2
        assert wait["sum"] == pytest.approx(10.0)  # 0 + 10
        assert sojourn["sum"] == pytest.approx(30.0)  # 10 + 20
        assert snap.value("repro.search.queue.depth") == 0.0


class TestSyncEquivalence:
    """The engine and the synchronous tree consume identical keyed draws."""

    @pytest.fixture(scope="class")
    def cluster(self):
        return SearchCluster.build(
            corpus_config=CorpusConfig(
                num_documents=120, vocabulary_size=250, seed=5
            ),
            num_leaves=4,
            fanout=2,
        )

    def test_isolated_queries_match_synchronous_tree(self, cluster):
        spec = FaultSpec(
            utilization=0.0,
            transient_error_rate=0.15,
            latency_spike_rate=0.15,
        )
        policy = ServingPolicy(
            retry=RetryPolicy(max_attempts=2, backoff_ms=1.0), overhead_ms=2.0
        )
        model = QueryLatencyModel(base_service_ms=8.0, fanout=4, overhead_ms=2.0)
        queries = [[t] for t in range(1, 13)]

        faulty = cluster.with_faults(
            spec, policy=policy, latency_model=model, seed=42
        )
        sync_pages = [faulty.frontend.search_terms(q) for q in queries]

        engine = cluster.with_engine(
            spec=spec, policy=policy, latency_model=model, seed=42
        )
        # Arrivals spaced far beyond any sojourn: no queueing overlap, so
        # measured latency reduces to the same draws the tree consumed.
        for index, query in enumerate(queries):
            engine.submit_at(10_000.0 * index, terms=query, query_key=index)
        engine_pages = engine.run()

        assert len(engine_pages) == len(sync_pages)
        for sync_page, engine_page in zip(sync_pages, engine_pages):
            assert engine_page.complete == sync_page.complete
            assert engine_page.leaves_answered == sync_page.leaves_answered
            assert engine_page.hits == sync_page.hits
            assert engine_page.snippets == sync_page.snippets
            assert engine_page.latency_ms == pytest.approx(
                sync_page.latency_ms, abs=1e-6
            )


class TestHeterogeneousPool:
    def test_validation(self):
        loop = EventLoop()
        with pytest.raises(ConfigurationError):
            HeterogeneousPool(loop, CoreSpec(1, 2.0), CoreSpec(1), policy="rr")
        with pytest.raises(ConfigurationError):
            HeterogeneousPool(
                loop, CoreSpec(0, 2.0), CoreSpec(0), policy="fifo"
            )
        with pytest.raises(ConfigurationError):
            HeterogeneousPool(loop, CoreSpec(0, 2.0), CoreSpec(1))
        with pytest.raises(ConfigurationError):
            HeterogeneousPool(loop, CoreSpec(1, 1.0), CoreSpec(1, 1.0))
        with pytest.raises(ConfigurationError):
            HeterogeneousPool(
                loop, CoreSpec(1, 2.0), CoreSpec(1), migration_overhead_ms=-1.0
            )
        pool = HeterogeneousPool(loop, CoreSpec(1, 2.0), CoreSpec(1))
        with pytest.raises(ConfigurationError):
            pool.submit_at(0.0, demand_ms=0.0, deadline_ms=10.0)
        with pytest.raises(ConfigurationError):
            pool.submit_at(0.0, demand_ms=1.0, deadline_ms=0.0)

    def test_fifo_prefers_fast_free_cores(self):
        pool = HeterogeneousPool(
            EventLoop(), CoreSpec(1, 2.0), CoreSpec(1, 1.0), policy="fifo"
        )
        for __ in range(3):
            pool.submit_at(0.0, demand_ms=10.0, deadline_ms=8.0)
        stats = pool.run()
        # big at 2x: done 5; little: done 10; third reuses big: 5 + 5.
        assert sorted(stats.latencies_ms) == [5.0, 10.0, 10.0]
        assert stats.deadline_misses == 2
        assert stats.migrations == 0

    def test_hurryup_stays_little_when_deadline_safe(self):
        pool = HeterogeneousPool(EventLoop(), CoreSpec(1, 2.0), CoreSpec(1, 1.0))
        pool.submit_at(0.0, demand_ms=10.0, deadline_ms=20.0)
        stats = pool.run()
        assert stats.latencies_ms == [10.0]
        assert stats.migrations == 0 and stats.preemptions == 0
        assert stats.miss_rate == 0.0

    def test_hurryup_migrates_waiting_job_at_panic_time(self):
        pool = HeterogeneousPool(
            EventLoop(),
            CoreSpec(1, 2.0),
            CoreSpec(1, 1.0),
            migration_overhead_ms=0.5,
        )
        # A long, safe job camps on the only little core...
        pool.submit_at(0.0, demand_ms=100.0, deadline_ms=1000.0)
        # ...so this one waits; panic = 30 - 0.5 - 20/2 = 19.5, after
        # which the big core (20 + 0.5*2 demand at 2x) finishes at 30.0.
        pool.submit_at(0.0, demand_ms=20.0, deadline_ms=30.0)
        stats = pool.run()
        assert stats.migrations == 1 and stats.preemptions == 0
        assert stats.deadline_misses == 0
        assert 30.0 in stats.latencies_ms

    def test_hurryup_preempts_running_job(self):
        pool = HeterogeneousPool(
            EventLoop(),
            CoreSpec(1, 2.0),
            CoreSpec(1, 1.0),
            migration_overhead_ms=0.5,
        )
        # Little alone finishes at 100 > 60; panic fires at
        # (60 - 0.5 - 50)/0.5 = 19, banking 19 ms of work; the big core
        # serves (81 + 1)/2 = 41 more ms: done exactly at the deadline.
        pool.submit_at(0.0, demand_ms=100.0, deadline_ms=60.0)
        stats = pool.run()
        assert stats.preemptions == 1 and stats.migrations == 1
        assert stats.latencies_ms == [60.0]
        assert stats.deadline_misses == 0

    def test_unsalvageable_job_is_left_alone(self):
        pool = HeterogeneousPool(
            EventLoop(), CoreSpec(1, 2.0), CoreSpec(1, 1.0)
        )
        # Even an instant migration would miss: no panic timer fires.
        pool.submit_at(0.0, demand_ms=100.0, deadline_ms=10.0)
        stats = pool.run()
        assert stats.migrations == 0
        assert stats.deadline_misses == 1
        assert stats.latencies_ms == [100.0]

    def test_stats_validation(self):
        pool = HeterogeneousPool(EventLoop(), CoreSpec(1, 2.0), CoreSpec(1))
        with pytest.raises(ConfigurationError):
            pool.stats.quantile_ms(0.5)
        with pytest.raises(ConfigurationError):
            pool.stats.quantile_ms(1.5)
