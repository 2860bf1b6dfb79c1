"""Inverted-index construction and sharding.

The indexing system of Figure 1: documents are partitioned into shards,
each shard holding var-byte posting lists for its documents plus per-doc
metadata (lengths, static rank).  When built against a
:class:`~repro.search.simmem.SimulatedMemory`, posting blobs are placed in
the read-only **shard** segment and metadata in the **heap** segment —
exactly the placement the paper attributes misses to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.memtrace.trace import Segment
from repro.search.documents import Corpus, Document
from repro.search.postings import PostingList, encode_postings
from repro.search.simmem import SimulatedMemory


@dataclass
class IndexShard:
    """One shard: posting lists over a disjoint subset of documents."""

    shard_id: int
    postings: dict[int, PostingList]
    #: Global doc id of each shard-local document.
    doc_ids: np.ndarray
    doc_lengths: np.ndarray
    static_rank: np.ndarray
    average_length: float
    total_docs: int
    #: Simulated heap addresses of the metadata arrays (-1 if unplaced).
    doc_length_addr: int = -1
    static_rank_addr: int = -1
    _local_index: dict[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.doc_ids) != len(self.doc_lengths):
            raise ConfigurationError("doc_ids and doc_lengths must align")

    @property
    def num_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def shard_bytes(self) -> int:
        """Total compressed posting bytes in this shard."""
        return sum(p.size_bytes for p in self.postings.values())

    def local_index_of(self) -> dict[int, int]:
        """Map global doc id -> shard-local index (built once; do not mutate)."""
        if self._local_index is None:
            self._local_index = {int(d): i for i, d in enumerate(self.doc_ids)}
        return self._local_index


class InvertedIndexBuilder:
    """Builds document-sharded inverted indexes.

    Documents are assigned to shards round-robin by doc id, the standard
    document partitioning of web-search serving systems (each leaf owns a
    shard and scores it independently, §II-A).
    """

    def __init__(self, num_shards: int = 1) -> None:
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self._docs: list[list[Document]] = [[] for _ in range(num_shards)]
        self._total_docs = 0
        self._total_terms = 0

    def add(self, document: Document) -> None:
        """Route one document to its shard."""
        self._docs[document.doc_id % self.num_shards].append(document)
        self._total_docs += 1
        self._total_terms += document.length

    def add_corpus(self, corpus: Corpus) -> None:
        """Add every document of a corpus."""
        for document in corpus:
            self.add(document)

    # ------------------------------------------------------------------

    def build(
        self, memory: SimulatedMemory | None = None, seed: int = 0
    ) -> list[IndexShard]:
        """Build all shards, optionally placing them in simulated memory."""
        if self._total_docs == 0:
            raise ConfigurationError("no documents added")
        average_length = self._total_terms / self._total_docs
        rng = np.random.default_rng(seed)
        return [
            self._build_shard(shard_id, average_length, memory, rng)
            for shard_id in range(self.num_shards)
        ]

    def _build_shard(
        self,
        shard_id: int,
        average_length: float,
        memory: SimulatedMemory | None,
        rng: np.random.Generator,
    ) -> IndexShard:
        docs = sorted(self._docs[shard_id], key=lambda d: d.doc_id)
        if not docs:
            raise ConfigurationError(f"shard {shard_id} received no documents")
        term_docs: dict[int, list[int]] = {}
        term_freqs: dict[int, list[int]] = {}
        doc_ids = np.array([d.doc_id for d in docs], np.int64)
        doc_lengths = np.array([d.length for d in docs], np.int64)

        for local, doc in enumerate(docs):
            terms, counts = np.unique(doc.terms, return_counts=True)
            for term, count in zip(terms.tolist(), counts.tolist()):
                term_docs.setdefault(term, []).append(local)
                term_freqs.setdefault(term, []).append(count)

        postings: dict[int, PostingList] = {}
        for term in sorted(term_docs):
            locals_ = np.asarray(term_docs[term], np.int64)
            freqs = np.asarray(term_freqs[term], np.int64)
            blob = encode_postings(locals_, freqs)
            addr = -1
            if memory is not None:
                addr = memory.alloc(
                    Segment.SHARD, max(1, len(blob)), label=f"postings:{term}"
                )
            postings[term] = PostingList(
                term_id=term,
                doc_count=len(locals_),
                blob=blob,
                shard_addr=addr,
            )

        static_rank = rng.random(len(docs))
        doc_length_addr = -1
        static_rank_addr = -1
        if memory is not None:
            doc_length_addr = memory.alloc(
                Segment.HEAP, 8 * len(docs), label=f"shard{shard_id}:doc_lengths"
            )
            static_rank_addr = memory.alloc(
                Segment.HEAP, 8 * len(docs), label=f"shard{shard_id}:static_rank"
            )

        return IndexShard(
            shard_id=shard_id,
            postings=postings,
            doc_ids=doc_ids,
            doc_lengths=doc_lengths,
            static_rank=static_rank,
            average_length=average_length,
            total_docs=self._total_docs,
            doc_length_addr=doc_length_addr,
            static_rank_addr=static_rank_addr,
        )
