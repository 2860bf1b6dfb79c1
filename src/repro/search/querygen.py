"""Query-stream generation.

Search traffic has two Zipfian layers: term popularity within queries, and
query popularity across the stream (repeated queries are what the cache
servers of Figure 1 absorb).  The generator first materializes a pool of
distinct queries, then samples the stream from a Zipf over that pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.memtrace.sampling import ZipfSampler


@dataclass(frozen=True)
class QueryGeneratorConfig:
    """Shape of the query stream."""

    vocabulary_size: int = 50_000
    distinct_queries: int = 5_000
    #: Popularity skew across distinct queries (drives cache-server hits).
    query_zipf: float = 0.85
    #: Term popularity within queries (flatter than corpus text).
    term_zipf: float = 0.80
    mean_terms: float = 2.4
    max_terms: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.distinct_queries <= 0 or self.vocabulary_size <= 0:
            raise ConfigurationError("pool and vocabulary sizes must be positive")
        if not 1 <= self.mean_terms <= self.max_terms:
            raise ConfigurationError("need 1 <= mean_terms <= max_terms")


class QueryGenerator:
    """Generates term-id queries with realistic repetition structure."""

    def __init__(self, config: QueryGeneratorConfig | None = None) -> None:
        self.config = config or QueryGeneratorConfig()
        cfg = self.config
        self._rng = np.random.default_rng(cfg.seed)
        term_sampler = ZipfSampler(cfg.vocabulary_size, cfg.term_zipf, self._rng)
        lengths = np.clip(
            self._rng.geometric(1.0 / cfg.mean_terms, cfg.distinct_queries),
            1,
            cfg.max_terms,
        )
        all_terms = term_sampler.sample(int(lengths.sum()))
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        self._pool = [
            all_terms[bounds[i] : bounds[i + 1]].tolist()
            for i in range(cfg.distinct_queries)
        ]
        self._query_sampler = ZipfSampler(
            cfg.distinct_queries, cfg.query_zipf, self._rng
        )

    def generate(self, count: int) -> list[list[int]]:
        """Sample ``count`` queries (term-id lists) from the pool."""
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        picks = self._query_sampler.sample(count)
        return [self._pool[int(p)] for p in picks]
