"""Leaf scoring from cached per-term score vectors against the dict loop.

``LeafServer.search`` decodes and scores each term's postings once per
leaf and sums a query's terms into a dense per-document array.  It must
return what the frozen per-posting dict loop (``leaf_scoring_oracle``)
returns — the same doc ids, the same float scores bit for bit — move
every work counter the same way, and, with a ``TraceRecorder``, emit the
same memory trace access for access.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.search.documents import Corpus, CorpusConfig
from repro.search.indexer import InvertedIndexBuilder
from repro.search.leaf import LeafServer
from repro.search.postings import PostingList
from repro.search.simmem import SimulatedMemory, TraceRecorder
from tests.search.leaf_scoring_oracle import DictLoopLeaf


@lru_cache(maxsize=None)
def _corpus(num_documents: int, vocabulary_size: int, seed: int) -> Corpus:
    return Corpus(
        CorpusConfig(
            num_documents=num_documents,
            vocabulary_size=vocabulary_size,
            mean_doc_length=12,
            min_doc_length=1,
            seed=seed,
        )
    )


def _leaf(leaf_class, case):
    """One leaf over a freshly built copy of the case's shard."""
    memory = SimulatedMemory() if case["recorded"] else None
    builder = InvertedIndexBuilder(num_shards=case["num_shards"])
    builder.add_corpus(
        _corpus(case["num_documents"], case["vocabulary_size"], case["seed"])
    )
    shard = builder.build(memory=memory, seed=case["seed"])[case["shard"]]
    if case["flat_rank"]:
        # Equal static ranks make equal-length documents tie on score.
        shard.static_rank[:] = 0.0
    for term in case["empty_terms"]:
        empty = PostingList(term_id=term, doc_count=0, blob=b"")
        shard.postings.setdefault(term, empty)
    recorder = TraceRecorder() if case["recorded"] else None
    return leaf_class(shard, memory=memory, recorder=recorder), recorder


def _assert_same_serving(case) -> None:
    leaf, recorder = _leaf(LeafServer, case)
    oracle, oracle_recorder = _leaf(DictLoopLeaf, case)
    for terms in case["queries"]:
        hits = leaf.search(terms, case["top_k"], case["early_termination"])
        expected = oracle.search(terms, case["top_k"], case["early_termination"])
        assert hits == expected
        assert all(
            type(h.doc_id) is int and type(h.score) is float for h in hits
        )
    assert leaf.queries_served == oracle.queries_served
    assert leaf.postings_scored == oracle.postings_scored
    assert leaf.postings_skipped == oracle.postings_skipped
    if recorder is not None:
        trace, expected_trace = recorder.to_trace(), oracle_recorder.to_trace()
        for field in ("addr", "kind", "segment", "thread"):
            np.testing.assert_array_equal(
                getattr(trace, field), getattr(expected_trace, field)
            )
        assert trace.instruction_count == expected_trace.instruction_count
        assert recorder.total_accesses == oracle_recorder.total_accesses


@st.composite
def _cases(draw):
    num_documents = draw(st.integers(1, 90))
    vocabulary_size = draw(st.integers(1, 40))
    num_shards = draw(st.integers(1, min(3, num_documents)))
    # Terms past the vocabulary are unknown; some of them get empty lists.
    term = st.integers(0, vocabulary_size + 6)
    queries = draw(st.lists(st.lists(term, max_size=8), min_size=1, max_size=6))
    if draw(st.booleans()) and queries[0]:
        queries[0] = queries[0] + queries[0][:1]  # a duplicated term
    return {
        "num_documents": num_documents,
        "vocabulary_size": vocabulary_size,
        "seed": draw(st.integers(0, 2**16)),
        "num_shards": num_shards,
        "shard": draw(st.integers(0, num_shards - 1)),
        "empty_terms": draw(
            st.lists(st.integers(vocabulary_size, vocabulary_size + 6), max_size=3)
        ),
        "queries": queries,
        "top_k": draw(st.integers(1, 120)),
        "early_termination": draw(st.booleans()),
        "recorded": draw(st.booleans()),
        "flat_rank": draw(st.booleans()),
    }


class TestAgainstDictLoopOracle:
    @given(_cases())
    def test_hits_counters_and_trace_match(self, case):
        _assert_same_serving(case)

    def test_early_termination_skips_like_the_oracle(self):
        """Rare terms first, common ones skipped: both leaves skip alike."""
        corpus = _corpus(400, 60, 3)
        doc_frequency: dict[int, int] = {}
        for document in corpus:
            for term in set(document.terms.tolist()):
                doc_frequency[term] = doc_frequency.get(term, 0) + 1
        by_frequency = sorted(doc_frequency, key=lambda t: (doc_frequency[t], t))
        query = by_frequency[:2] + by_frequency[-4:]
        case = {
            "num_documents": 400,
            "vocabulary_size": 60,
            "seed": 3,
            "num_shards": 1,
            "shard": 0,
            "empty_terms": [],
            "queries": [query, query[::-1], query + query[:1]],
            "top_k": 1,
            "early_termination": True,
            "recorded": True,
            "flat_rank": False,
        }
        _assert_same_serving(case)
        leaf, __ = _leaf(LeafServer, case)
        leaf.search(query, top_k=1, early_termination=True)
        assert leaf.postings_skipped > 0

    def test_each_posting_list_is_decoded_once(self, monkeypatch):
        case = {
            "num_documents": 60,
            "vocabulary_size": 20,
            "seed": 1,
            "num_shards": 1,
            "shard": 0,
            "empty_terms": [],
            "queries": [],
            "top_k": 5,
            "early_termination": False,
            "recorded": False,
            "flat_rank": False,
        }
        leaf, __ = _leaf(LeafServer, case)
        decoded = []
        original = PostingList.decode

        def counting_decode(posting):
            decoded.append(posting.term_id)
            return original(posting)

        monkeypatch.setattr(PostingList, "decode", counting_decode)
        terms = sorted(leaf.shard.postings)[:3]
        first = leaf.search(terms)
        assert leaf.search(terms) == first
        leaf.search(terms[::-1], early_termination=True)
        assert sorted(decoded) == terms
