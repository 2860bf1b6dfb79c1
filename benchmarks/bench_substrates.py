"""Substrate microbenchmarks: simulator and engine throughput.

These are conventional performance benchmarks (many rounds) for the
building blocks the experiment regenerations lean on — useful for spotting
performance regressions in the simulators themselves.
"""

import numpy as np
import pytest

from repro._units import KiB
from repro.cachesim.cache import CacheGeometry
from repro.cachesim.directmapped import simulate_direct_mapped
from repro.cachesim.fastsim import fast_lru_hits
from repro.cachesim.misscurve import MissRatioCurve
from repro.cpu.branch import (
    BranchWorkloadConfig,
    TournamentPredictor,
    generate_branch_stream,
    measure_branch_mpki,
)
from repro.memtrace.synthetic import SyntheticWorkload, WorkloadConfig
from repro.search.cluster import SearchCluster
from repro.search.documents import CorpusConfig
from repro.search.querygen import QueryGenerator, QueryGeneratorConfig


@pytest.fixture(scope="module")
def zipf_lines():
    rng = np.random.default_rng(0)
    return (rng.zipf(1.3, 200_000) % 40_000).astype(np.int64)


def test_exact_set_associative_throughput(benchmark, zipf_lines):
    """Exact LRU simulation of 200k accesses through a 256 KiB cache."""

    geometry = CacheGeometry(256 * KiB, 8)

    def run():
        return fast_lru_hits(zipf_lines, geometry.num_sets, geometry.assoc).sum()

    hits = benchmark(run)
    assert hits > 0


def test_direct_mapped_vectorized_throughput(benchmark, zipf_lines):
    """Vectorized direct-mapped simulation (the L4 engine)."""
    hits = benchmark(simulate_direct_mapped, zipf_lines, 1 << 16)
    assert hits.any()


def test_misscurve_construction(benchmark, zipf_lines):
    """One footprint-theory pass over 200k accesses."""
    curve = benchmark(MissRatioCurve, zipf_lines)
    assert curve.distinct_lines > 0


def test_misscurve_capacity_query(benchmark, zipf_lines):
    """Re-solving a built curve at a new capacity must be cheap."""
    curve = MissRatioCurve(zipf_lines)
    rate = benchmark(curve.hit_rate, 4096)
    assert 0 < rate < 1


def test_synthetic_trace_generation(benchmark):
    """Generating a 100k-instruction interleaved trace."""
    workload = SyntheticWorkload(WorkloadConfig().scaled(1 / 64), seed=1)
    trace = benchmark(workload.generate, 100_000, 2)
    assert trace.instruction_count == 200_000


def test_branch_predictor_throughput(benchmark):
    """Tournament prediction over a 300k-branch stream."""
    stream = generate_branch_stream(BranchWorkloadConfig(), 2_000_000, seed=1)

    def run():
        return measure_branch_mpki(TournamentPredictor(), stream, warmup_fraction=0.0)

    mpki = benchmark(run)
    assert mpki > 0


def test_search_cluster_query_throughput(benchmark):
    """End-to-end query serving on the mini search engine."""
    cluster = SearchCluster.build(
        corpus_config=CorpusConfig(num_documents=1500, vocabulary_size=15_000, seed=5),
        num_leaves=4,
        record_traces=False,
        seed=5,
    )
    generator = QueryGenerator(
        QueryGeneratorConfig(vocabulary_size=15_000, distinct_queries=500, seed=5)
    )
    queries = generator.generate(200)

    def serve():
        return cluster.serve_terms(queries)

    pages = benchmark.pedantic(serve, rounds=1, iterations=1)
    assert len(pages) == 200
