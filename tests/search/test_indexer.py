"""Tests for inverted-index construction and sharding."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.memtrace.trace import Segment
from repro.search.documents import Corpus, CorpusConfig
from repro.search.indexer import InvertedIndexBuilder
from repro.search.simmem import SimulatedMemory


@pytest.fixture(scope="module")
def corpus():
    return Corpus(CorpusConfig(num_documents=200, vocabulary_size=500, seed=2))


def build(corpus, num_shards=1, memory=None):
    builder = InvertedIndexBuilder(num_shards=num_shards)
    builder.add_corpus(corpus)
    return builder.build(memory=memory)


class TestBuilder:
    def test_single_shard_holds_all_docs(self, corpus):
        shards = build(corpus)
        assert shards[0].num_docs == 200
        assert shards[0].total_docs == 200

    def test_sharding_partitions_docs(self, corpus):
        shards = build(corpus, num_shards=4)
        assert sum(s.num_docs for s in shards) == 200
        all_ids = np.concatenate([s.doc_ids for s in shards])
        assert len(np.unique(all_ids)) == 200

    def test_round_robin_assignment(self, corpus):
        shards = build(corpus, num_shards=4)
        for shard in shards:
            assert (shard.doc_ids % 4 == shard.shard_id).all()

    def test_postings_consistent_with_documents(self, corpus):
        shard = build(corpus)[0]
        doc = corpus[17]
        terms, counts = np.unique(doc.terms, return_counts=True)
        for term, count in zip(terms.tolist(), counts.tolist()):
            local_ids, freqs = shard.postings[term].decode()
            position = list(shard.doc_ids[local_ids]).index(17)
            assert freqs[position] == count

    def test_every_term_indexed(self, corpus):
        shard = build(corpus)[0]
        seen_terms = set()
        for doc in corpus:
            seen_terms.update(doc.terms.tolist())
        assert set(shard.postings) == seen_terms

    def test_doc_lengths(self, corpus):
        shard = build(corpus)[0]
        for local, doc_id in enumerate(shard.doc_ids[:20].tolist()):
            assert shard.doc_lengths[local] == corpus[doc_id].length

    def test_local_index_built_once(self, corpus):
        for shard in build(corpus, num_shards=3):
            index = shard.local_index_of()
            assert index == {int(d): i for i, d in enumerate(shard.doc_ids)}
            assert shard.local_index_of() is index

    def test_empty_builder_rejected(self):
        with pytest.raises(ConfigurationError):
            InvertedIndexBuilder().build()

    def test_bad_shard_count(self):
        with pytest.raises(ConfigurationError):
            InvertedIndexBuilder(num_shards=0)


class TestMemoryPlacement:
    def test_postings_in_shard_segment(self, corpus):
        memory = SimulatedMemory()
        shard = build(corpus, memory=memory)[0]
        for posting in list(shard.postings.values())[:50]:
            assert memory.address_space.classify(posting.shard_addr) == Segment.SHARD

    def test_metadata_in_heap(self, corpus):
        memory = SimulatedMemory()
        shard = build(corpus, memory=memory)[0]
        assert memory.address_space.classify(shard.doc_length_addr) == Segment.HEAP
        assert memory.address_space.classify(shard.static_rank_addr) == Segment.HEAP

    def test_unplaced_when_no_memory(self, corpus):
        shard = build(corpus)[0]
        assert shard.doc_length_addr == -1
        assert next(iter(shard.postings.values())).shard_addr == -1

    def test_shard_bytes_accounted(self, corpus):
        memory = SimulatedMemory()
        shard = build(corpus, memory=memory)[0]
        assert memory.used_bytes(Segment.SHARD) >= shard.shard_bytes
