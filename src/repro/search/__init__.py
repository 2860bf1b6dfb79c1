"""A functional mini web-search serving system (the paper's Figure 1).

This package is the workload substrate: a synthetic corpus, an inverted-
index builder producing var-byte-compressed, sharded posting lists, BM25
scoring, and the serving tree — front-end with result caches, root with
snippet generation, and leaf servers that score their index shard.

Every index and runtime structure lives in a simulated address space
(:mod:`repro.search.simmem`), and leaf query execution emits a labelled
memory trace — code, heap, shard, stack — that feeds the same cache
simulators as the calibrated synthetic generators.  This is the honest
stand-in for the paper's Pin traces of production search.
"""

from repro.search.documents import Corpus, CorpusConfig, Document, Vocabulary
from repro.search.tokenizer import tokenize
from repro.search.postings import PostingList, decode_postings, encode_postings
from repro.search.scoring import Bm25Parameters, bm25_score
from repro.search.indexer import IndexShard, InvertedIndexBuilder
from repro.search.latency import LatencyAccumulator, QueryLatencyModel
from repro.search.faults import FaultInjector, FaultSpec, SimulatedClock
from repro.search.policies import HedgePolicy, RetryPolicy, ServingPolicy
from repro.search.simmem import SimulatedMemory, TraceRecorder
from repro.search.querygen import QueryGenerator, QueryGeneratorConfig
from repro.search.leaf import LeafServer, SearchHit
from repro.search.root import RootServer, SearchResultPage
from repro.search.frontend import FrontendServer, ResultCache
from repro.search.engine import (
    CoreSpec,
    EventLoop,
    HeterogeneousPool,
    PoolStats,
    QueueConfig,
    ServingEngine,
)
from repro.search.loadgen import (
    LoadReport,
    poisson_arrival_times_ms,
    run_open_loop,
)
from repro.search.cluster import ClusterStats, SearchCluster

__all__ = [
    "Corpus",
    "CorpusConfig",
    "Document",
    "Vocabulary",
    "tokenize",
    "PostingList",
    "encode_postings",
    "decode_postings",
    "Bm25Parameters",
    "bm25_score",
    "IndexShard",
    "InvertedIndexBuilder",
    "SimulatedMemory",
    "TraceRecorder",
    "QueryLatencyModel",
    "LatencyAccumulator",
    "FaultInjector",
    "FaultSpec",
    "SimulatedClock",
    "RetryPolicy",
    "HedgePolicy",
    "ServingPolicy",
    "QueryGenerator",
    "QueryGeneratorConfig",
    "LeafServer",
    "SearchHit",
    "RootServer",
    "SearchResultPage",
    "FrontendServer",
    "ResultCache",
    "EventLoop",
    "QueueConfig",
    "ServingEngine",
    "CoreSpec",
    "HeterogeneousPool",
    "PoolStats",
    "LoadReport",
    "poisson_arrival_times_ms",
    "run_open_loop",
    "ClusterStats",
    "SearchCluster",
]
