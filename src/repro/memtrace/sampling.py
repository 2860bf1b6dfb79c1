"""Random-sampling primitives shared by the workload generators.

Search traffic is Zipfian at every level — query terms, heap-object
popularity, function invocation counts — so a fast bounded-Zipf sampler is
the workhorse here.  numpy's ``random.zipf`` is unbounded and only supports
exponents > 1; the generators need bounded supports and exponents on both
sides of 1, so we sample by inverse-CDF over explicit rank probabilities.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: Keys sorted per rank lookup in :meth:`ZipfSampler.sample`.
_LOOKUP_CHUNK = 65_536


class ZipfSampler:
    """Sample ranks ``0..n-1`` with probability proportional to ``(k+1)**-a``.

    Parameters
    ----------
    n:
        Support size (number of ranks).
    exponent:
        Zipf exponent ``a >= 0``.  ``a = 0`` degenerates to uniform;
        values below 1 give the heavy, slowly-concentrating tails typical
        of index-shard reuse, values above 1 concentrate mass on few ranks.
    rng:
        numpy Generator used for sampling.
    """

    def __init__(self, n: int, exponent: float, rng: np.random.Generator) -> None:
        if n <= 0:
            raise ConfigurationError(f"support size must be positive, got {n}")
        if exponent < 0:
            raise ConfigurationError(f"exponent must be >= 0, got {exponent}")
        self.n = n
        self.exponent = exponent
        self._rng = rng
        weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` ranks (int64)."""
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        u = self._rng.random(count)
        ranks = np.empty(count, np.int64)
        # Sorted keys make the binary searches walk the CDF in order (and
        # reuse the previous bound); equal keys get equal ranks, so the
        # result is exactly ``searchsorted`` on ``u``.
        for start in range(0, count, _LOOKUP_CHUNK):
            keys = u[start : start + _LOOKUP_CHUNK]
            order = np.argsort(keys)
            ranks[start : start + _LOOKUP_CHUNK][order] = np.searchsorted(
                self._cdf, keys[order], side="left"
            )
        return ranks

    def probability(self, rank: int) -> float:
        """Exact probability of ``rank`` (mostly for tests)."""
        if not 0 <= rank < self.n:
            raise ConfigurationError(f"rank {rank} out of range [0, {self.n})")
        prev = self._cdf[rank - 1] if rank else 0.0
        return float(self._cdf[rank] - prev)


def bounded_geometric(
    mean: float, cap: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` lengths >= 1 with geometric tails, capped at ``cap``.

    Used for sequential-run lengths (posting-list scans, straight-line code
    runs).  The cap keeps a single draw from overflowing a region.
    """
    if mean < 1:
        raise ConfigurationError(f"mean must be >= 1, got {mean}")
    if cap < 1:
        raise ConfigurationError(f"cap must be >= 1, got {cap}")
    p = min(1.0, 1.0 / mean)
    draws = rng.geometric(p, size=count)
    return np.minimum(draws, cap).astype(np.int64)


def sequential_runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Expand run starts and lengths into one concatenated address stream.

    ``starts[i]`` begins a run of ``lengths[i]`` consecutive values:
    ``starts[i], starts[i]+1, ..., starts[i]+lengths[i]-1``.

    Fully vectorized: output size is ``lengths.sum()``.
    """
    if starts.shape != lengths.shape:
        raise ConfigurationError("starts and lengths must have the same shape")
    if len(starts) == 0:
        return np.empty(0, np.int64)
    lengths = lengths.astype(np.int64)
    if (lengths < 1).any():
        raise ConfigurationError("all run lengths must be >= 1")
    total = int(lengths.sum())
    # Classic repeat-and-offset expansion: for each output slot, subtract the
    # starting slot of its run to recover the within-run offset.
    run_first_slot = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(run_first_slot, lengths)
    return np.repeat(starts.astype(np.int64), lengths) + within


def scatter_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """A fixed random permutation of ``0..n-1``.

    The heap generator uses this to scatter hot objects across the address
    range, so popularity does not correlate with address — matching the
    paper's observation that larger cache blocks buy little for heap data
    (Figure 7b).
    """
    if n <= 0:
        raise ConfigurationError(f"n must be positive, got {n}")
    return rng.permutation(n)
