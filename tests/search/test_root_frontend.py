"""Tests for root aggregation, result caching, and the front end."""

import pytest

from repro.errors import ConfigurationError
from repro.search.cluster import SearchCluster
from repro.search.documents import Corpus, CorpusConfig
from repro.search.frontend import FrontendServer, ResultCache
from repro.search.indexer import InvertedIndexBuilder
from repro.search.engine import _merge_hits
from repro.search.leaf import LeafServer, SearchHit
from repro.search.root import RootServer, SearchResultPage


@pytest.fixture(scope="module")
def corpus():
    return Corpus(CorpusConfig(num_documents=160, vocabulary_size=300, seed=9))


@pytest.fixture(scope="module")
def leaves(corpus):
    builder = InvertedIndexBuilder(num_shards=4)
    builder.add_corpus(corpus)
    return [LeafServer(shard) for shard in builder.build()]


class TestRootServer:
    def test_merges_across_shards(self, corpus, leaves):
        """Sharded retrieval finds (nearly) the same documents as a
        single-shard index.  Exact scores differ slightly: document
        frequency is shard-local (as in real document-sharded engines)
        and static rank is assigned per build."""
        root = RootServer(leaves)
        single = InvertedIndexBuilder()
        single.add_corpus(corpus)
        reference = LeafServer(single.build()[0])
        # A mid-frequency term: high-df (stopword-class) terms have ~zero
        # idf, so their ranking is pure static-rank noise.
        term = next(
            t
            for t, p in sorted(reference.shard.postings.items())
            if 8 <= p.doc_count <= 20
        )
        tree_ids = {h.doc_id for h in root.search([term], top_k=8).hits}
        flat_ids = {h.doc_id for h in reference.search([term], top_k=8)}
        assert len(tree_ids & flat_ids) >= 5

    def test_merge_returns_global_top_k(self, corpus, leaves):
        """The merged top-k is exactly the best of the children's results."""
        root = RootServer(leaves)
        term = int(corpus[0].terms[0])
        merged = root.search([term], top_k=6).hits
        everything = []
        for leaf in leaves:
            everything.extend(leaf.search([term], top_k=100))
        everything.sort(key=lambda h: (-h.score, h.doc_id))
        assert list(merged) == everything[:6]

    def test_snippets_generated_at_root(self, corpus, leaves):
        root = RootServer(leaves)
        page = root.search([int(corpus[0].terms[0])], top_k=5)
        assert len(page.snippets) == len(page.hits)
        assert all(s for s in page.snippets)

    def test_build_tree_inserts_parents(self, leaves):
        # 4 leaves with fanout 2: one intermediate level.
        root = RootServer.build_tree(leaves, fanout=2)
        assert len(root.children) == 2
        assert all(isinstance(c, RootServer) for c in root.children)

    def test_tree_results_match_flat(self, corpus, leaves):
        flat = RootServer(leaves)
        tree = RootServer.build_tree(leaves, fanout=2)
        term = int(corpus[0].terms[0])
        assert (
            flat.search([term], top_k=8).hits == tree.search([term], top_k=8).hits
        )

    def test_duplicate_doc_ids_merged_once(self, corpus):
        """Two replicas of the same (unsharded) index: every document is
        reachable through both children but must appear once per page."""
        replicas = []
        for __ in range(2):
            builder = InvertedIndexBuilder()
            builder.add_corpus(corpus)
            replicas.append(LeafServer(builder.build()[0]))
        root = RootServer(replicas)
        term = int(corpus[0].terms[0])
        page = root.search([term], top_k=1000)
        ids = [h.doc_id for h in page.hits]
        assert len(ids) == len(set(ids))
        assert set(ids) == {h.doc_id for h in replicas[0].search([term], top_k=1000)}

    def test_top_k_beyond_total_hits(self, corpus, leaves):
        root = RootServer(leaves)
        term = int(corpus[0].terms[0])
        everything = root.search([term], top_k=10_000).hits
        assert 0 < len(everything) < 10_000
        # Asking for even more changes nothing.
        assert root.search([term], top_k=20_000).hits == everything

    def test_merge_tie_break_is_deterministic(self):
        hits = [
            SearchHit(doc_id=7, score=1.0),
            SearchHit(doc_id=3, score=1.0),
            SearchHit(doc_id=5, score=2.0),
            SearchHit(doc_id=3, score=0.5),  # duplicate, worse score
        ]
        merged = _merge_hits(hits, top_k=10)
        assert [(h.doc_id, h.score) for h in merged] == [
            (5, 2.0),
            (3, 1.0),  # equal scores break ties by doc_id
            (7, 1.0),
        ]

    def test_merge_keeps_best_score_for_duplicate(self):
        hits = [SearchHit(doc_id=1, score=0.25), SearchHit(doc_id=1, score=4.0)]
        assert _merge_hits(hits, top_k=5) == [SearchHit(doc_id=1, score=4.0)]

    def test_empty_children_rejected(self):
        with pytest.raises(ConfigurationError):
            RootServer([])

    def test_bad_fanout(self, leaves):
        with pytest.raises(ConfigurationError):
            RootServer.build_tree(leaves, fanout=1)


class TestResultCache:
    def page(self):
        return SearchResultPage(terms=(1,), hits=(), snippets=())

    def test_hit_after_put(self):
        cache = ResultCache(capacity=4)
        cache.put((1, 2), self.page())
        assert cache.get((1, 2)) is not None
        assert cache.hits == 1

    def test_miss_counted(self):
        cache = ResultCache()
        assert cache.get((9,)) is None
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put((1,), self.page())
        cache.put((2,), self.page())
        cache.get((1,))  # refresh 1
        cache.put((3,), self.page())  # evicts 2
        assert cache.get((2,)) is None
        assert cache.get((1,)) is not None

    def test_hit_rate(self):
        cache = ResultCache()
        cache.put((1,), self.page())
        cache.get((1,))
        cache.get((2,))
        assert cache.hit_rate == pytest.approx(0.5)

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            ResultCache(capacity=-1)

    def test_zero_capacity_disables_caching(self):
        cache = ResultCache(capacity=0)
        cache.put((1,), self.page())
        assert len(cache) == 0
        assert cache.get((1,)) is None
        assert cache.evictions == 0

    def test_evictions_counted(self):
        cache = ResultCache(capacity=1)
        cache.put((1,), self.page())
        cache.put((2,), self.page())
        assert cache.evictions == 1


class TestFrontend:
    def test_repeated_query_served_from_cache(self, corpus, leaves):
        root = RootServer(leaves)
        frontend = FrontendServer(root, vocabulary=corpus.vocabulary)
        term = int(corpus[0].terms[0])
        frontend.search_terms([term])
        served_before = sum(leaf.queries_served for leaf in leaves)
        frontend.search_terms([term])
        assert sum(leaf.queries_served for leaf in leaves) == served_before

    def test_normalization_order_independent(self, corpus, leaves):
        frontend = FrontendServer(RootServer(leaves))
        t1, t2 = int(corpus[0].terms[0]), int(corpus[1].terms[0])
        frontend.search_terms([t1, t2])
        frontend.search_terms([t2, t1])
        assert frontend.cache.hits == 1

    def test_cache_key_includes_top_k(self, corpus, leaves):
        """Regression: a page cached for one top_k must not satisfy a
        request for another — the old key was the terms alone, so a
        top_k=3 page could be served for a top_k=10 query."""
        frontend = FrontendServer(RootServer(leaves))
        term = int(corpus[0].terms[0])
        small = frontend.search_terms([term], top_k=3)
        big = frontend.search_terms([term], top_k=10)
        assert frontend.cache.hits == 0
        assert len(small.hits) == 3
        assert len(big.hits) == 10
        # Matching (terms, top_k) still hits.
        frontend.search_terms([term], top_k=3)
        assert frontend.cache.hits == 1

    def test_text_queries_need_vocabulary(self, leaves):
        frontend = FrontendServer(RootServer(leaves))
        with pytest.raises(ConfigurationError):
            frontend.search_text("hello")

    def test_text_query_roundtrip(self, corpus, leaves):
        frontend = FrontendServer(RootServer(leaves), vocabulary=corpus.vocabulary)
        word = corpus.vocabulary.word(int(corpus[0].terms[0]))
        page = frontend.search_text(word)
        assert page.hits


class TestSearchCluster:
    def test_end_to_end(self):
        cluster = SearchCluster.build(
            corpus_config=CorpusConfig(num_documents=120, vocabulary_size=300, seed=3),
            num_leaves=3,
            seed=3,
        )
        from repro.search.querygen import QueryGenerator, QueryGeneratorConfig

        generator = QueryGenerator(
            QueryGeneratorConfig(vocabulary_size=300, distinct_queries=50, seed=3)
        )
        pages = cluster.serve_generated(generator, 120)
        assert len(pages) == 120
        stats = cluster.stats()
        assert stats.queries == 120
        assert stats.frontend_cache_hit_rate > 0.2  # Zipf repeats get cached
        trace = cluster.leaf_trace()
        assert len(trace) == stats.trace_accesses
        assert trace.instruction_count == stats.leaf_instructions

    def test_stats_survive_recorder_reset(self):
        """Regression: stats() used to read the recorders' pending
        buffers, so draining traces zeroed the counters."""
        cluster = SearchCluster.build(
            corpus_config=CorpusConfig(num_documents=60, vocabulary_size=100, seed=2),
            num_leaves=2,
            seed=2,
        )
        cluster.serve_terms([[1], [2], [3]])
        before = cluster.stats()
        assert before.trace_accesses > 0
        for recorder in cluster.recorders:
            recorder.reset()
        after = cluster.stats()
        assert after.trace_accesses == before.trace_accesses
        assert after.leaf_instructions == before.leaf_instructions

    def test_trace_requires_recording(self):
        cluster = SearchCluster.build(
            corpus_config=CorpusConfig(num_documents=60, vocabulary_size=100, seed=1),
            num_leaves=2,
            record_traces=False,
            seed=1,
        )
        with pytest.raises(ConfigurationError):
            cluster.leaf_trace()

    def test_stats_render(self):
        cluster = SearchCluster.build(
            corpus_config=CorpusConfig(num_documents=60, vocabulary_size=100, seed=2),
            num_leaves=2,
            seed=2,
        )
        cluster.serve_terms([[1], [2]])
        assert "2 queries" in cluster.stats().render()
