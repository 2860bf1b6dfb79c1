"""Leaf server: score an index shard for a query, emitting a memory trace.

The leaf is the paper's focus — it is where the shard scans, the heap
scoring structures, and the large code footprint live.  Query processing
follows the standard document-at-a-time outline:

1. look up each query term's posting list (heap dictionary access);
2. decode its postings, streaming through the compressed blob in the
   **shard** segment (sequential line touches, no temporal reuse);
3. score candidates with BM25 using per-doc metadata in the **heap**
   (doc lengths, static rank — Zipf-reused across queries because popular
   terms recur), accumulating into a hot scratch region;
4. select the top-k (stack-resident partial sort).

Each stage also charges instructions and touches its function's **code**
range, so the emitted trace carries all four segments of §III-B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._units import KiB
from repro.errors import ConfigurationError
from repro.memtrace.trace import AccessKind, Segment
from repro.obs.metrics import MetricsRegistry
from repro.search.indexer import IndexShard
from repro.search.postings import PostingList
from repro.search.scoring import Bm25Parameters, bm25_score, idf
from repro.search.simmem import SimulatedMemory, TraceRecorder

_LINE_BYTES = 64

#: Instruction-cost model per unit of work (coarse, Haswell-ish).
_INSTR_PER_POSTING_DECODE = 6
_INSTR_PER_POSTING_SCORE = 14
_INSTR_PER_TERM_LOOKUP = 120
_INSTR_PER_TOPK_CANDIDATE = 4
_INSTR_QUERY_OVERHEAD = 600


@dataclass(frozen=True)
class SearchHit:
    """One scored result."""

    doc_id: int
    score: float


@dataclass(frozen=True)
class _ScoredTerm:
    """A term's posting list, decoded and scored once per leaf."""

    posting: PostingList | None
    #: Heap offset of the term's dictionary entry.
    dict_offset: int
    #: Upper bound of any document's score from this term.
    bound: float
    #: Shard-local ids of the term's documents, and their boosted BM25.
    local_ids: np.ndarray
    scores: np.ndarray


class LeafServer:
    """Scores its shard; optionally records every memory access."""

    def __init__(
        self,
        shard: IndexShard,
        memory: SimulatedMemory | None = None,
        recorder: TraceRecorder | None = None,
        bm25: Bm25Parameters = Bm25Parameters(),
        accumulator_slots: int = 1 << 15,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if accumulator_slots <= 0:
            raise ConfigurationError("accumulator_slots must be positive")
        self.shard = shard
        self.memory = memory
        self.recorder = recorder
        self.bm25 = bm25
        self._rng = np.random.default_rng(seed)
        # Work counters are labeled children of cluster-wide families
        # (``repro.search.leaf.*``, label ``shard``): each leaf owns its
        # child, the family value sums across leaves.  Without a shared
        # registry a private one keeps the per-leaf accessors live.
        registry = metrics if metrics is not None else MetricsRegistry()
        shard_label = str(shard.shard_id)
        self._queries = registry.counter(
            "repro.search.leaf.queries",
            help="Queries scored by leaf servers (per shard).",
            unit="queries",
        ).labels(shard=shard_label)
        self._postings_scored = registry.counter(
            "repro.search.leaf.postings_scored",
            help="Postings decoded and scored (per shard).",
            unit="postings",
        ).labels(shard=shard_label)
        self._postings_skipped = registry.counter(
            "repro.search.leaf.postings_skipped",
            help="Postings skipped by early termination (per shard).",
            unit="postings",
        ).labels(shard=shard_label)

        self._accumulator_addr = -1
        self._term_dict_addr = -1
        self._code_addr: dict[str, int] = {}
        if memory is not None:
            self._accumulator_addr = memory.alloc(
                Segment.HEAP, 8 * accumulator_slots, label="score-accumulators"
            )
            self._term_dict_addr = memory.alloc(
                Segment.HEAP,
                max(64, 48 * len(shard.postings)),
                label="term-dictionary",
            )
            for stage, size in (
                ("parse", 2048),
                ("lookup", 4096),
                ("decode", 8192),
                ("score", 16384),
                ("topk", 4096),
            ):
                self._code_addr[stage] = memory.alloc(
                    Segment.CODE, size, label=f"leaf-code:{stage}"
                )
        self._accumulator_slots = accumulator_slots
        self._term_rank = {
            term: rank for rank, term in enumerate(sorted(shard.postings))
        }
        #: term -> its scored postings, filled on the term's first query.
        #: The shard never changes, so decoding and scoring once serves
        #: every later query.
        self._scored: dict[int, _ScoredTerm] = {}

    @property
    def queries_served(self) -> int:
        """Queries this leaf has scored (registry-backed)."""
        return self._queries.value

    @property
    def postings_scored(self) -> int:
        """Postings this leaf has decoded and scored (registry-backed)."""
        return self._postings_scored.value

    @property
    def postings_skipped(self) -> int:
        """Postings early termination let this leaf skip (registry-backed)."""
        return self._postings_skipped.value

    # ------------------------------------------------------------------
    # Instrumentation helpers (no-ops when not recording)
    # ------------------------------------------------------------------

    def _code(self, stage: str, fraction: float, instructions: int) -> None:
        recorder = self.recorder
        if recorder is None:
            return
        recorder.execute(instructions)
        addr = self._code_addr.get(stage, -1)
        if addr < 0:
            return
        size = max(_LINE_BYTES, int(fraction * (4 * KiB)))
        recorder.touch(addr, size, AccessKind.INSTR, Segment.CODE)

    def _touch(self, addr: int, size: int, kind: AccessKind, segment: Segment) -> None:
        if self.recorder is not None and addr >= 0:
            self.recorder.touch(addr, size, kind, segment)

    # ------------------------------------------------------------------

    def search(
        self,
        terms: list[int],
        top_k: int = 10,
        early_termination: bool = False,
    ) -> list[SearchHit]:
        """Score the shard for a bag of term ids; return the best hits.

        ``early_termination`` enables a Moffat–Zobel-style *quit* strategy:
        terms are processed in decreasing idf order, and scoring stops once
        the remaining terms' combined score upper bound cannot displace the
        current k-th candidate.  It is approximate (already-admitted
        candidates forgo small boosts) but slashes posting traffic for
        queries mixing rare and stopword-class terms — one lever behind the
        shard's scan-length distribution.
        """
        if top_k < 1:
            raise ConfigurationError(f"top_k must be >= 1, got {top_k}")
        self._queries.inc()
        self._code("parse", 0.5, _INSTR_QUERY_OVERHEAD)

        entries = [self._scored_term(t) for t in terms]
        if early_termination:
            entries = sorted(entries, key=lambda e: -e.bound)
        remaining_bound = sum(e.bound for e in entries)

        # Each list holds a document at most once, so a dense accumulator
        # adds every document's term scores from 0.0 in term order — the
        # same sums a per-document dict gives.
        num_docs = self.shard.num_docs
        scores = np.zeros(num_docs)
        seen = np.zeros(num_docs, bool)
        for position, entry in enumerate(entries):
            if early_termination:
                admitted = scores[seen]
                rank = len(admitted) - top_k
                if rank >= 0:
                    kth = np.partition(admitted, rank)[rank]
                    if remaining_bound < kth:
                        for skipped in entries[position:]:
                            if skipped.posting is not None:
                                self._postings_skipped.inc(
                                    skipped.posting.doc_count
                                )
                        break
            remaining_bound -= entry.bound
            posting = entry.posting
            self._code("lookup", 0.6, _INSTR_PER_TERM_LOOKUP)
            if self._term_dict_addr >= 0:
                self._touch(
                    self._term_dict_addr + entry.dict_offset,
                    48,
                    AccessKind.LOAD,
                    Segment.HEAP,
                )
            if posting is None or posting.doc_count == 0:
                continue

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
            self._code(
                "score", 1.0, _INSTR_PER_POSTING_SCORE * posting.doc_count
            )
            if self.recorder is not None:
                self._record_scoring_accesses(entry.local_ids)
            scores[entry.local_ids] += entry.scores
            seen[entry.local_ids] = True

        candidates = np.flatnonzero(seen)
        self._code("topk", 0.8, _INSTR_PER_TOPK_CANDIDATE * len(candidates))
        doc_ids = self.shard.doc_ids[candidates]
        doc_scores = scores[candidates]
        best = np.lexsort((doc_ids, -doc_scores))[:top_k]
        return [
            SearchHit(doc_id=d, score=s)
            for d, s in zip(doc_ids[best].tolist(), doc_scores[best].tolist())
        ]

    def _scored_term(self, term: int) -> _ScoredTerm:
        """Decode and score one term's postings, once per leaf."""
        entry = self._scored.get(term)
        if entry is not None:
            return entry
        shard = self.shard
        posting = shard.postings.get(term)
        local_ids = np.empty(0, np.int32)
        scores = np.empty(0)
        bound = 0.0
        if posting is not None and posting.doc_count > 0:
            decoded_ids, freqs = posting.decode()
            scores = bm25_score(
                freqs,
                shard.doc_lengths[decoded_ids],
                shard.average_length,
                shard.total_docs,
                posting.doc_count,
                self.bm25,
            )
            scores = scores * (1.0 + 0.1 * shard.static_rank[decoded_ids])
            local_ids = decoded_ids.astype(np.int32)
            # tf-saturation limit is (k1 + 1); static rank boosts up to 10%.
            bound = (
                idf(shard.total_docs, posting.doc_count)
                * (self.bm25.k1 + 1.0)
                * 1.1
            )
        local_ids.flags.writeable = False
        scores.flags.writeable = False
        entry = _ScoredTerm(
            posting=posting,
            dict_offset=48 * self._term_rank.get(term, 0),
            bound=bound,
            local_ids=local_ids,
            scores=scores,
        )
        self._scored[term] = entry
        return entry

    def _record_scoring_accesses(self, local_ids: np.ndarray) -> None:
        """Heap touches of the scoring stage, vectorized."""
        local_ids = local_ids.astype(np.int64)
        meta = self.shard.doc_length_addr + 8 * local_ids
        rank = self.shard.static_rank_addr + 8 * local_ids
        acc = self._accumulator_addr + 8 * (local_ids % self._accumulator_slots)
        recorder = self.recorder
        recorder.touch_many(
            (meta // _LINE_BYTES) * _LINE_BYTES, AccessKind.LOAD, Segment.HEAP
        )
        recorder.touch_many(
            (rank // _LINE_BYTES) * _LINE_BYTES, AccessKind.LOAD, Segment.HEAP
        )
        recorder.touch_many(
            (acc // _LINE_BYTES) * _LINE_BYTES, AccessKind.STORE, Segment.HEAP
        )

    # ------------------------------------------------------------------

    def snippet(self, doc_id: int, terms: list[int]) -> str:
        """A result snippet for one of this shard's documents.

        Touches the document's metadata the way snippet generation re-reads
        the stored document.
        """
        local = self.shard.local_index_of().get(doc_id)
        if local is None:
            raise ConfigurationError(
                f"doc {doc_id} is not in shard {self.shard.shard_id}"
            )
        self._code("score", 0.3, 200)
        self._touch(
            self.shard.doc_length_addr + 8 * local, 8, AccessKind.LOAD, Segment.HEAP
        )
        return f"doc{doc_id}: …{' '.join(f't{t}' for t in terms[:3])}…"
