"""End-to-end observability: serving metrics reconcile with served results.

The acceptance bar for the instrumentation is *reconciliation*: the
registry's counters must agree exactly with what the serving tree
returned (pages served, cache misses x leaves fanned out to), and the
cumulative counters must survive trace drains.  Runner-level coverage
lives here too: every experiment of the session's shared campaign run
carries a metrics snapshot.
"""

import json

import pytest

from repro.experiments import runner
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.search.cluster import SearchCluster
from repro.search.querygen import QueryGenerator, QueryGeneratorConfig


def make_generator(seed):
    return QueryGenerator(
        QueryGeneratorConfig(vocabulary_size=300, distinct_queries=100, seed=seed)
    )


@pytest.fixture(scope="module")
def served():
    """A small instrumented cluster after serving a generated stream."""
    registry = MetricsRegistry()
    cluster = SearchCluster.build(num_leaves=3, seed=7, metrics=registry)
    pages = cluster.serve_generated(make_generator(7), count=40)
    return cluster, pages


class TestServingReconciliation:
    def test_frontend_queries_equal_pages_served(self, served):
        cluster, pages = served
        snap = cluster.metrics_snapshot()
        assert snap.value("repro.search.frontend.queries") == len(pages)
        assert cluster.frontend.queries_received == len(pages)

    def test_leaf_queries_equal_misses_times_leaves(self, served):
        cluster, pages = served
        snap = cluster.metrics_snapshot()
        misses = snap.value("repro.search.frontend.cache.misses")
        hits = snap.value("repro.search.frontend.cache.hits")
        assert misses + hits == len(pages)
        # Every cache miss fans out to every leaf exactly once on the
        # fault-free path; hits never reach the tree.
        num_leaves = len(cluster.leaves)
        assert snap.value("repro.search.leaf.queries") == misses * num_leaves
        assert snap.value("repro.search.root.leaf_rpcs") == misses * num_leaves
        assert snap.value("repro.search.root.queries") == misses

    def test_per_shard_children_partition_the_total(self, served):
        cluster, __ = served
        snap = cluster.metrics_snapshot()
        payload = snap.payload("repro.search.leaf.queries")
        per_shard = payload["children"]
        assert len(per_shard) == len(cluster.leaves)
        assert sum(per_shard.values()) == payload["value"]
        assert len(set(per_shard.values())) == 1  # uniform fan-out

    def test_accessors_agree_with_snapshot(self, served):
        cluster, __ = served
        snap = cluster.metrics_snapshot()
        assert sum(leaf.queries_served for leaf in cluster.leaves) == snap.value(
            "repro.search.leaf.queries"
        )
        assert sum(
            leaf.postings_scored for leaf in cluster.leaves
        ) == snap.value("repro.search.leaf.postings_scored")


class TestCountersSurviveReset:
    def test_leaf_and_recorder_counters_survive_trace_drain(self):
        registry = MetricsRegistry()
        cluster = SearchCluster.build(num_leaves=2, seed=3, metrics=registry)
        cluster.serve_generated(make_generator(3), count=10)
        before = cluster.stats()
        assert before.trace_accesses > 0 and before.leaf_instructions > 0

        cluster.leaf_trace()  # assemble once, then drain the buffers
        for recorder in cluster.recorders:
            recorder.reset()

        assert all(r.pending_accesses == 0 for r in cluster.recorders)
        after = cluster.stats()
        assert after == before  # cumulative counters, not buffer sizes
        snap = cluster.metrics_snapshot()
        assert snap.value("repro.mem.trace.accesses") == before.trace_accesses
        assert (
            snap.value("repro.mem.trace.instructions")
            == before.leaf_instructions
        )

    def test_registry_counters_survive_tracer_drain(self):
        registry = MetricsRegistry()
        tracer = Tracer(capacity=64)
        cluster = SearchCluster.build(
            num_leaves=2, seed=5, metrics=registry, tracer=tracer
        )
        pages = cluster.serve_generated(make_generator(5), count=8)
        assert tracer.finished_spans > 0
        tracer.drain()
        snap = cluster.metrics_snapshot()
        assert snap.value("repro.search.frontend.queries") == len(pages)


class TestTracedServing:
    def test_span_tree_mirrors_the_fanout(self):
        tracer = Tracer(capacity=4096)
        cluster = SearchCluster.build(num_leaves=3, seed=11, tracer=tracer)
        page = cluster.frontend.search_terms([1, 2, 3])
        spans = tracer.spans()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        (query_span,) = by_name["frontend.query"]
        assert query_span.parent_id is None
        assert all(
            s.trace_id == query_span.trace_id for s in spans
        )  # one query, one trace
        leaf_spans = by_name["leaf.rpc"]
        assert len(leaf_spans) == page.leaves_total == 3
        assert {s.tags["outcome"] for s in leaf_spans} == {"ok"}
        aggregate_ids = {s.span_id for s in by_name["root.aggregate"]}
        assert all(s.parent_id in aggregate_ids for s in leaf_spans)

    def test_cache_hit_skips_the_tree(self):
        tracer = Tracer(capacity=4096)
        cluster = SearchCluster.build(num_leaves=2, seed=11, tracer=tracer)
        cluster.frontend.search_terms([4, 5])
        first = len(tracer)
        cluster.frontend.search_terms([4, 5])  # served from the result cache
        hit_spans = tracer.spans()[first:]
        assert [s.name for s in hit_spans] == ["frontend.query"]
        assert hit_spans[0].tags["cache"] == "hit"


class TestRunnerEmitsMetrics:
    @pytest.fixture(scope="class")
    def results(self, campaign):
        # The session's shared tiny-preset run, in canonical order.
        return list(campaign.results.values())

    def test_every_experiment_emits_a_snapshot(self, results):
        assert len(results) == len(runner.ALL_MODULES)
        for result in results:
            assert result.metrics is not None, result.experiment_id
            assert len(result.metrics) > 0, result.experiment_id

    def test_serving_experiment_snapshot_reconciles(self, results):
        (slo_result,) = [r for r in results if r.experiment_id == "slo"]
        snap = slo_result.metrics
        # The whole sweep shares one aggregation tree: leaf fan-out must
        # account for every root query (plus retries, which re-issue the
        # leaf call), across every fault configuration.
        leaf_rpcs = snap.value("repro.search.root.leaf_rpcs")
        assert snap.value("repro.search.leaf.queries") <= leaf_rpcs
        assert leaf_rpcs > 0 and snap.value("repro.search.faults.calls") > 0

    def test_metrics_out_writes_one_document(self, results, tmp_path):
        path = tmp_path / "metrics.json"
        runner.write_metrics(results, str(path))
        document = json.loads(path.read_text())
        assert set(document) == {m.EXPERIMENT_ID for m in runner.ALL_MODULES}
        for entry in document.values():
            assert entry["metrics"], entry["title"]
