"""Tests for deadline-, retry-, and fault-aware serving-tree behaviour."""

import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServingError,
)
from repro.search.cluster import SearchCluster
from repro.search.documents import Corpus, CorpusConfig
from repro.search.faults import FaultInjector, FaultSpec, RpcDraw
from repro.search.frontend import FrontendServer, ResultCache
from repro.search.indexer import InvertedIndexBuilder
from repro.search.latency import LatencyAccumulator, QueryLatencyModel
from repro.search.leaf import LeafServer
from repro.search.policies import HedgePolicy, RetryPolicy, ServingPolicy
from repro.search.root import RootServer


@pytest.fixture(scope="module")
def corpus():
    return Corpus(CorpusConfig(num_documents=160, vocabulary_size=300, seed=9))


@pytest.fixture
def leaves(corpus):
    builder = InvertedIndexBuilder(num_shards=4)
    builder.add_corpus(corpus)
    return [LeafServer(shard) for shard in builder.build()]


@pytest.fixture(scope="module")
def term(corpus):
    return int(corpus[0].terms[0])


class ScriptedInjector(FaultInjector):
    """Plays back per-leaf outcome scripts: floats are latencies (ms),
    "transient"/"hard" are failures; off-script calls take 1 ms."""

    def __init__(self, script):
        super().__init__(FaultSpec(), seed=0)
        self.script = {k: list(v) for k, v in script.items()}

    def plan_rpc(self, leaf_id, query_key=None, attempt=1):
        self._calls.inc()
        if self.is_dead(leaf_id):
            return RpcDraw(kind="dead", latency_ms=0.5)
        queue = self.script.get(leaf_id)
        if not queue:
            return RpcDraw(kind="ok", latency_ms=1.0)
        outcome = queue.pop(0)
        if outcome == "transient":
            return RpcDraw(kind="transient", latency_ms=1.0)
        if outcome == "hard":
            self.died_at_ms[leaf_id] = self.clock.now_ms
            return RpcDraw(kind="hard", latency_ms=0.5)
        return RpcDraw(kind="ok", latency_ms=float(outcome))


class TestPolicies:
    def test_retry_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_ms=-1.0)

    def test_hedge_validation(self):
        with pytest.raises(ConfigurationError):
            HedgePolicy(after_ms=0.0)

    def test_serving_policy_validation(self):
        with pytest.raises(ConfigurationError):
            ServingPolicy(overhead_ms=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_retry_backoff_must_be_finite(self, value):
        with pytest.raises(ConfigurationError, match="backoff_ms"):
            RetryPolicy(backoff_ms=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_hedge_after_must_be_finite(self, value):
        """``hedge=None`` is how a policy says "never hedge"."""
        with pytest.raises(ConfigurationError, match="after_ms"):
            HedgePolicy(after_ms=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_serving_overhead_must_be_finite(self, value):
        with pytest.raises(ConfigurationError, match="overhead_ms"):
            ServingPolicy(overhead_ms=value)


class TestRobustSearch:
    def test_ideal_path_unchanged(self, leaves, term):
        """Without an injector the page is complete and unstamped."""
        root = RootServer(leaves)
        page = root.search([term], top_k=5)
        assert page.complete
        assert page.latency_ms is None
        assert page.leaves_answered == page.leaves_total == len(leaves)

    def test_healthy_injector_stamps_latency(self, leaves, term):
        root = RootServer(leaves)
        page = root.search([term], injector=ScriptedInjector({}))
        assert page.complete
        # Four 1 ms leaves under one 2 ms aggregation level.
        assert page.latency_ms == pytest.approx(3.0)

    def test_overheads_accumulate_per_level(self, leaves, term):
        tree = RootServer.build_tree(leaves, fanout=2)
        page = tree.search([term], injector=ScriptedInjector({}))
        assert page.latency_ms == pytest.approx(5.0)  # leaf + two levels

    def test_straggler_dropped_at_deadline(self, leaves, term):
        flat = RootServer(leaves)
        full = flat.search([term], top_k=1000)  # > corpus size: no truncation
        slow_leaf = leaves[0].shard.shard_id
        page = flat.search(
            [term],
            top_k=1000,
            deadline_ms=50.0,
            injector=ScriptedInjector({slow_leaf: [200.0]}),
        )
        assert not page.complete
        assert page.leaves_answered == len(leaves) - 1
        # The query waited out its whole budget for the straggler.
        assert page.latency_ms == pytest.approx(50.0)
        # The straggler's documents are missing; everyone else's are there.
        lost = {int(d) for d in leaves[0].shard.doc_ids.tolist()}
        returned = {h.doc_id for h in page.hits}
        assert returned == {h.doc_id for h in full.hits} - lost

    def test_everything_misses_tiny_deadline(self, leaves, term):
        root = RootServer(leaves)
        page = root.search(
            [term],
            deadline_ms=0.5,  # less than one aggregation overhead
            injector=ScriptedInjector({}),
        )
        assert not page.complete
        assert page.leaves_answered == 0
        assert page.hits == ()
        assert page.latency_ms == pytest.approx(0.5)

    def test_transient_error_retried_to_success(self, leaves, term):
        leaf_id = leaves[1].shard.shard_id
        injector = ScriptedInjector({leaf_id: ["transient", 1.0]})
        page = RootServer(leaves).search([term], injector=injector)
        assert page.complete
        # Failed attempt (1 ms) + backoff (1 ms) + success (1 ms) + merge.
        assert page.latency_ms == pytest.approx(5.0)

    def test_retries_exhausted_degrades(self, leaves, term):
        leaf_id = leaves[1].shard.shard_id
        injector = ScriptedInjector({leaf_id: ["transient", "transient"]})
        page = RootServer(leaves).search([term], injector=injector)
        assert not page.complete
        assert page.leaves_answered == len(leaves) - 1

    def test_hard_failure_not_retried(self, leaves, term):
        leaf_id = leaves[2].shard.shard_id
        injector = ScriptedInjector({leaf_id: ["hard", 1.0]})
        page = RootServer(leaves).search([term], injector=injector)
        assert not page.complete
        # The scripted success was never consumed: no retry after fail-stop.
        assert injector.script[leaf_id] == [1.0]

    def test_hedge_caps_stragglers(self, leaves, term):
        leaf_id = leaves[3].shard.shard_id
        injector = ScriptedInjector({leaf_id: [100.0, 1.0]})
        policy = ServingPolicy(hedge=HedgePolicy(after_ms=5.0))
        page = RootServer(leaves).search(
            [term], deadline_ms=50.0, injector=injector, policy=policy
        )
        assert page.complete
        # min(100, 5 + 1) for the hedged leaf, + 2 ms aggregation.
        assert page.latency_ms == pytest.approx(8.0)

    def test_raise_mode_deadline(self, leaves, term):
        with pytest.raises(DeadlineExceededError) as excinfo:
            RootServer(leaves).search(
                [term],
                deadline_ms=50.0,
                injector=ScriptedInjector({leaves[0].shard.shard_id: [200.0]}),
                on_incomplete="raise",
            )
        assert excinfo.value.answered == len(leaves) - 1

    def test_raise_mode_failure(self, leaves, term):
        with pytest.raises(ServingError):
            RootServer(leaves).search(
                [term],
                injector=ScriptedInjector({leaves[0].shard.shard_id: ["hard"]}),
                on_incomplete="raise",
            )

    def test_validation(self, leaves, term):
        root = RootServer(leaves)
        with pytest.raises(ConfigurationError):
            root.search([term], deadline_ms=0.0)
        with pytest.raises(ConfigurationError):
            root.search([term], on_incomplete="explode")


class TestFrontendRobustness:
    def test_degraded_pages_not_cached(self, leaves, term):
        leaf_id = leaves[0].shard.shard_id
        injector = ScriptedInjector({leaf_id: ["transient", "transient"]})
        frontend = FrontendServer(RootServer(leaves), injector=injector)
        degraded = frontend.search_terms([term])
        assert not degraded.complete
        assert frontend.degraded_served == 1
        assert len(frontend.cache) == 0
        # The leaf recovered (script exhausted): the retry now succeeds
        # and the fresh, complete page is cached.
        healthy = frontend.search_terms([term])
        assert healthy.complete
        assert len(frontend.cache) == 1

    def test_cache_hit_is_free_in_simulated_time(self, leaves, term):
        frontend = FrontendServer(RootServer(leaves), injector=ScriptedInjector({}))
        first = frontend.search_terms([term])
        assert first.latency_ms == pytest.approx(3.0)
        hit = frontend.search_terms([term])
        assert hit.latency_ms == 0.0
        assert hit.hits == first.hits

    def test_clock_advances_per_query(self, leaves, term):
        injector = ScriptedInjector({})
        frontend = FrontendServer(RootServer(leaves), injector=injector)
        frontend.search_terms([term])
        assert injector.clock.now_ms == pytest.approx(3.0)
        frontend.search_terms([term])  # cache hit: free
        assert injector.clock.now_ms == pytest.approx(3.0)

    def test_explicit_empty_cache_respected(self, leaves, term):
        """Regression: ResultCache defines __len__, so an empty cache is
        falsy — the frontend must not silently replace it."""
        disabled = ResultCache(capacity=0)
        frontend = FrontendServer(RootServer(leaves), cache=disabled)
        frontend.search_terms([term])
        frontend.search_terms([term])
        assert frontend.cache is disabled
        assert frontend.cache.hits == 0 and frontend.cache.misses == 2


class TestClusterRobustness:
    def test_with_faults_outcomes(self):
        cluster = SearchCluster.build(
            corpus_config=CorpusConfig(num_documents=80, vocabulary_size=120, seed=4),
            num_leaves=4,
            record_traces=False,
            seed=4,
        )
        model = QueryLatencyModel(base_service_ms=8.0, fanout=4)
        faulted = cluster.with_faults(
            FaultSpec(transient_error_rate=0.3, utilization=0.5),
            policy=ServingPolicy(retry=RetryPolicy(max_attempts=1)),
            latency_model=model,
            seed=11,
        )
        queries = [[1 + i % 20] for i in range(120)]
        pages, outcomes = faulted.serve_with_outcomes(queries, deadline_ms=120.0)
        assert outcomes.queries == 120
        assert outcomes.degraded_rate > 0.3  # no retries, 30% error rate
        assert outcomes.availability > 0.5
        assert all(p.latency_ms is not None for p in pages)
        # The base cluster's ideal path is untouched.
        assert cluster.frontend.injector is None

    def test_accumulator_math(self):
        acc = LatencyAccumulator()
        assert acc.availability == 1.0 and acc.degraded_rate == 0.0
        with pytest.raises(ConfigurationError):
            acc.p99_ms()

        class Page:
            def __init__(self, latency_ms, complete, answered):
                self.latency_ms = latency_ms
                self.complete = complete
                self.leaves_answered = answered

        for latency in (10.0, 20.0, 30.0, 40.0):
            acc.observe(Page(latency, True, 4))
        acc.observe(Page(50.0, False, 2))
        acc.observe(Page(60.0, False, 0))
        assert acc.queries == 6
        assert acc.complete == 4 and acc.degraded == 1 and acc.failed == 1
        assert acc.availability == pytest.approx(5 / 6)
        assert acc.degraded_rate == pytest.approx(2 / 6)
        assert acc.mean_ms() == pytest.approx(35.0)
        assert acc.quantile_ms(0.5) == 30.0
        assert acc.p99_ms() == 60.0
        with pytest.raises(ConfigurationError):
            acc.quantile_ms(1.5)

    def test_empirical_tail_tracks_analytic_model(self):
        """§IV-B, behaviourally: the simulated tree's tail matches the
        M/M/1 math it is driven by."""
        cluster = SearchCluster.build(
            corpus_config=CorpusConfig(num_documents=80, vocabulary_size=120, seed=4),
            num_leaves=4,
            record_traces=False,
            seed=4,
        )
        model = QueryLatencyModel(base_service_ms=8.0, fanout=4, overhead_ms=2.0)
        faulted = cluster.with_faults(
            FaultSpec(utilization=0.5), latency_model=model, seed=2
        )
        queries = [[1 + i % 50] for i in range(400)]
        __, outcomes = faulted.serve_with_outcomes(queries)
        assert outcomes.mean_ms() == pytest.approx(
            model.mean_query_ms(0.5), rel=0.25
        )
        assert outcomes.p99_ms() == pytest.approx(
            model.query_quantile_ms(0.99, 0.5), rel=0.5
        )
