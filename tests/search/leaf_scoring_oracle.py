"""The per-posting leaf scoring loop, frozen as a test oracle.

``LeafServer.search`` used to decode and score every posting list on
every query and sum the term scores into a dict keyed by document.  That
loop is kept here unchanged, so the cached-score, dense-accumulator
``LeafServer.search`` can be checked against it hit for hit, counter for
counter and trace access for trace access
(``test_leaf_differential.py``).  Not library code: nothing under
``src/`` imports it.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.memtrace.trace import AccessKind, Segment
from repro.search.leaf import (
    _INSTR_PER_POSTING_DECODE,
    _INSTR_PER_POSTING_SCORE,
    _INSTR_PER_TERM_LOOKUP,
    _INSTR_PER_TOPK_CANDIDATE,
    _INSTR_QUERY_OVERHEAD,
    LeafServer,
    SearchHit,
)
from repro.search.scoring import bm25_score, idf


class DictLoopLeaf(LeafServer):
    """A leaf that scores the way ``LeafServer.search`` used to."""

    def search(
        self,
        terms: list[int],
        top_k: int = 10,
        early_termination: bool = False,
    ) -> list[SearchHit]:
        if top_k < 1:
            raise ConfigurationError(f"top_k must be >= 1, got {top_k}")
        self._queries.inc()
        self._code("parse", 0.5, _INSTR_QUERY_OVERHEAD)

        shard = self.shard
        if early_termination:
            terms = sorted(
                terms,
                key=lambda t: -self._term_upper_bound(t),
            )
        remaining_bound = sum(self._term_upper_bound(t) for t in terms)

        scores: dict[int, float] = {}
        for position, term in enumerate(terms):
            if early_termination and len(scores) >= top_k:
                kth = sorted(scores.values(), reverse=True)[top_k - 1]
                if remaining_bound < kth:
                    for skipped in terms[position:]:
                        posting = shard.postings.get(skipped)
                        if posting is not None:
                            self._postings_skipped.inc(posting.doc_count)
                    break
            remaining_bound -= self._term_upper_bound(term)
            posting = shard.postings.get(term)
            self._code("lookup", 0.6, _INSTR_PER_TERM_LOOKUP)
            if self._term_dict_addr >= 0:
                rank = self._term_rank.get(term, 0)
                self._touch(
                    self._term_dict_addr + 48 * rank,
                    48,
                    AccessKind.LOAD,
                    Segment.HEAP,
                )
            if posting is None or posting.doc_count == 0:
                continue

            local_ids, freqs = posting.decode()
            self._postings_scored.inc(posting.doc_count)
            self._code(
                "decode", 1.0, _INSTR_PER_POSTING_DECODE * posting.doc_count
            )
            self._touch(
                posting.shard_addr,
                max(1, posting.size_bytes),
                AccessKind.LOAD,
                Segment.SHARD,
            )

            lengths = shard.doc_lengths[local_ids]
            term_scores = bm25_score(
                freqs,
                lengths,
                shard.average_length,
                shard.total_docs,
                posting.doc_count,
                self.bm25,
            )
            term_scores = term_scores * (1.0 + 0.1 * shard.static_rank[local_ids])
            self._code(
                "score", 1.0, _INSTR_PER_POSTING_SCORE * posting.doc_count
            )
            if self.recorder is not None:
                self._record_scoring_accesses(local_ids)

            for local, s in zip(local_ids.tolist(), term_scores.tolist()):
                doc = int(shard.doc_ids[local])
                scores[doc] = scores.get(doc, 0.0) + s

        self._code("topk", 0.8, _INSTR_PER_TOPK_CANDIDATE * len(scores))
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
        return [SearchHit(doc_id=d, score=s) for d, s in ranked]

    def _term_upper_bound(self, term: int) -> float:
        """Maximum BM25 contribution any document can get from one term."""
        posting = self.shard.postings.get(term)
        if posting is None or posting.doc_count == 0:
            return 0.0
        # tf-saturation limit is (k1 + 1); static rank boosts up to 10%.
        return (
            idf(self.shard.total_docs, posting.doc_count)
            * (self.bm25.k1 + 1.0)
            * 1.1
        )
