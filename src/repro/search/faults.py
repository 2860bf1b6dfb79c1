"""Simulated-clock fault injection for the serving tree.

The paper's serving hierarchy (Figure 1) runs under a strict latency SLO,
and §IV-B re-checks tail latency after rebalancing.  Real serving trees
meet that SLO *despite* misbehaving leaves: queueing spikes, transient
RPC errors, and fail-stop machine losses are the steady state at fleet
scale.  This module is the substrate that lets the simulated tree exhibit
those behaviours deterministically:

* :class:`SimulatedClock` — a manually advanced millisecond clock, so the
  serving path never reads wall-clock time (RPR102) and every run is
  replayable.
* :class:`FaultSpec` — per-leaf-call probabilities of latency spikes,
  transient errors, and fail-stop deaths, plus the queueing utilization
  the healthy latency draws are conditioned on.
* :class:`FaultInjector` — the seeded sampler the serving engine
  (:mod:`repro.search.engine`) consults before every leaf RPC.
  :meth:`FaultInjector.plan_rpc` classifies the attempt (ok, transient,
  hard, dead) and returns the simulated time the caller loses before the
  outcome surfaces; healthy calls draw an M/M/1 sojourn time from
  :class:`~repro.search.latency.QueryLatencyModel` at the spec's ρ.

Every draw consumes the same number of random variates regardless of the
configured rates, so runs at different fault rates are *coupled*: the
underlying latency stream is identical and only the fault classification
changes.  That is what makes the SLO experiment's sweeps smooth at modest
query counts.

Draws come in two flavours.  The legacy *shared-stream* draws consume
variates in call order from one generator — any reordering of the calls
silently re-deals every fault.  The *keyed* draws instead derive an
independent generator per ``(leaf, query, attempt)`` from a stable
:class:`numpy.random.SeedSequence` spawn key, so a query's faults and
latencies do not depend on how the event loop interleaved it with other
queries' RPCs.  Building a ``SeedSequence`` per RPC costs tens of
microseconds, so :class:`KeyedSeedWords` computes the same seed words for
a block of consecutive query keys at once with NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.errors import ConfigurationError
from repro.obs.metrics import Counter, MetricsRegistry
from repro.search.latency import QueryLatencyModel


#: Attempt-number namespace for hedged (backup) RPCs: hedge N of a leaf
#: call draws from attempt ``HEDGE_ATTEMPT_OFFSET + N``, so primaries and
#: hedges never share a keyed stream.
HEDGE_ATTEMPT_OFFSET = 1_000


#: Query keys per block of precomputed seed words (8 KiB of words per
#: ``(leaf, attempt)`` stream).
_SEED_BLOCK_KEYS = 256

#: Query keys from here on span two 32-bit words; their seed words come
#: from a per-RPC :class:`numpy.random.SeedSequence`.
_ONE_WORD_KEYS = 1 << 32

# The hash of numpy.random.SeedSequence (NumPy's ``bit_generator.pyx``,
# after O'Neill's ``seed_seq_fe``) on 32-bit words.
_MASK32 = 0xFFFF_FFFF
_POOL_WORDS = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _uint32_words(value: int) -> list[int]:
    """``value`` as little-endian 32-bit words, the way SeedSequence splits it."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


class _HashConstants:
    """A SeedSequence hash multiplier; it evolves independently of the data."""

    def __init__(self, init: int = _INIT_A, mult: int = _MULT_A) -> None:
        self.value = init
        self._mult = mult

    def next_pair(self) -> tuple[int, int]:
        """(xor constant, multiplier) of the next hash step."""
        xor = self.value
        self.value = (self.value * self._mult) & _MASK32
        return xor, self.value

    def hashmix(self, value: int) -> int:
        xor, mult = self.next_pair()
        value = ((value ^ xor) * mult) & _MASK32
        return value ^ (value >> _XSHIFT)


def _output_constants() -> list[tuple[int, int]]:
    """(xor constant, multiplier) of each 32-bit word ``generate_state``
    emits; PCG64 takes four uint64 = eight uint32 words."""
    constants = _HashConstants(_INIT_B, _MULT_B)
    return [constants.next_pair() for __ in range(8)]


_OUTPUT_CONSTANTS = _output_constants()


class KeyedSeedWords:
    """PCG64 seed words of the keyed streams of one ``(seed, leaf, attempt)``.

    The keyed stream of query ``k`` is seeded by
    ``SeedSequence(entropy=seed, spawn_key=(leaf, k, attempt))``.  Its
    entropy words are the seed's (padded to four), the leaf's, ``k``'s
    and the attempt's; only ``k``'s vary along a stream.  The hash state
    before ``k``'s word and the hash of the attempt's words after it are
    therefore computed once here, and :meth:`block` hashes a run of
    one-word keys (``0 <= k < 2**32``) with uint32 array arithmetic.
    The result equals ``SeedSequence(...).generate_state(4, np.uint64)``
    word for word.
    """

    def __init__(self, seed: int, leaf_id: int, attempt: int) -> None:
        run = _uint32_words(seed)
        run += [0] * (_POOL_WORDS - len(run))
        constants = _HashConstants()
        pool = [constants.hashmix(word) for word in run[:_POOL_WORDS]]
        for src in range(_POOL_WORDS):
            for dst in range(_POOL_WORDS):
                if src != dst:
                    pool[dst] = _mix(pool[dst], constants.hashmix(pool[src]))
        for word in run[_POOL_WORDS:] + _uint32_words(leaf_id):
            for dst in range(_POOL_WORDS):
                pool[dst] = _mix(pool[dst], constants.hashmix(word))
        #: ``_MIX_MULT_L * pool`` before the key word, per pool word.
        self._scaled_pool = [(_MIX_MULT_L * word) & _MASK32 for word in pool]
        #: ``hashmix`` constants the key word meets, per pool word.
        self._key_constants = [constants.next_pair() for __ in range(_POOL_WORDS)]
        #: ``(pool index, _MIX_MULT_R * hashed word)`` of the attempt's
        #: words, in order.
        self._suffix = [
            (dst, (_MIX_MULT_R * constants.hashmix(word)) & _MASK32)
            for word in _uint32_words(attempt)
            for dst in range(_POOL_WORDS)
        ]
        self._first_key = 0
        self._block = np.empty((0, 4), np.uint64)

    def block(self, first_key: int, count: int) -> np.ndarray:
        """Seed words of keys ``first_key .. first_key + count - 1``.

        Returns a ``(count, 4)`` uint64 array.  Every key must fit one
        32-bit word.
        """
        if not 0 <= first_key <= first_key + count <= _ONE_WORD_KEYS:
            raise ConfigurationError(
                f"keys {first_key}..{first_key + count - 1} are not in [0, 2**32)"
            )
        keys = np.arange(first_key, first_key + count, dtype=np.uint32)
        pool = []
        for scaled, (xor, mult) in zip(self._scaled_pool, self._key_constants):
            hashed = (keys ^ xor) * mult
            hashed ^= hashed >> _XSHIFT
            mixed = scaled - _MIX_MULT_R * hashed
            mixed ^= mixed >> _XSHIFT
            pool.append(mixed)
        for dst, scaled in self._suffix:
            mixed = _MIX_MULT_L * pool[dst] - scaled
            mixed ^= mixed >> _XSHIFT
            pool[dst] = mixed
        state = np.empty((count, len(_OUTPUT_CONSTANTS)), np.uint32)
        for index, (xor, mult) in enumerate(_OUTPUT_CONSTANTS):
            data = (pool[index % _POOL_WORDS] ^ xor) * mult
            state[:, index] = data ^ (data >> _XSHIFT)
        # Word pairs are little-endian uint64s, as in ``generate_state``.
        return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)

    def words(self, query_key: int) -> np.ndarray:
        """The four seed words of one key, from the latest block.

        A key outside the latest block replaces it with the aligned block
        of :data:`_SEED_BLOCK_KEYS` keys that holds it; only one block is
        kept.
        """
        index = query_key - self._first_key
        if not 0 <= index < len(self._block):
            self._first_key = query_key - query_key % _SEED_BLOCK_KEYS
            self._block = self.block(self._first_key, _SEED_BLOCK_KEYS)
            index = query_key - self._first_key
        return self._block[index]


@ISeedSequence.register
class _SeedWords:
    """Hands :class:`numpy.random.PCG64` its precomputed seed words.

    Registered rather than subclassed: a real subclass would get ABC
    caches of its own, filled mid-run by the ``isinstance(seed,
    ISeedSequence)`` check of every ``default_rng`` call.
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            raise ConfigurationError(
                f"precomputed seed words serve PCG64's 4 uint64 words, "
                f"not {n_words} of {dtype}"
            )
        return self._words


class SimulatedClock:
    """A monotonic, manually advanced clock in milliseconds."""

    def __init__(self, start_ms: float = 0.0) -> None:
        if start_ms < 0:
            raise ConfigurationError(f"start_ms must be >= 0, got {start_ms}")
        self._now_ms = float(start_ms)

    @property
    def now_ms(self) -> float:
        return self._now_ms

    def advance(self, delta_ms: float) -> float:
        """Move time forward; returns the new time."""
        if delta_ms < 0:
            raise ConfigurationError(
                f"time cannot move backwards: delta {delta_ms}"
            )
        self._now_ms += delta_ms
        return self._now_ms

    def advance_to(self, time_ms: float) -> float:
        """Move time to ``time_ms`` exactly (earlier times leave it put).

        ``advance(time_ms - now_ms)`` can land a bit off the target —
        ``now + (t - now)`` need not round back to ``t`` — which would
        make event times depend on the clock's history.  Returns the new
        time.
        """
        if time_ms > self._now_ms:
            self._now_ms = float(time_ms)
        return self._now_ms


@dataclass(frozen=True)
class FaultSpec:
    """Per-leaf-call fault probabilities and severities."""

    #: Probability a healthy call's latency is multiplied by
    #: ``spike_multiplier`` (a GC pause, an antagonist, a queue burst).
    latency_spike_rate: float = 0.0
    spike_multiplier: float = 6.0
    #: Probability a call fails with a retryable error.
    transient_error_rate: float = 0.0
    #: Probability a call kills the leaf outright (fail-stop; the leaf
    #: stays dead until :meth:`FaultInjector.revive`).
    hard_failure_rate: float = 0.0
    #: Simulated time to learn of a hard failure (connection refused is
    #: fast; it is not free).
    hard_fail_detect_ms: float = 0.5
    #: Queueing utilization the healthy sojourn-time draws assume.
    utilization: float = 0.5

    def __post_init__(self) -> None:
        for name in ("latency_spike_rate", "transient_error_rate", "hard_failure_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {rate}")
        if self.spike_multiplier < 1.0:
            raise ConfigurationError(
                f"spike_multiplier must be >= 1, got {self.spike_multiplier}"
            )
        if self.hard_fail_detect_ms < 0:
            raise ConfigurationError("hard_fail_detect_ms must be >= 0")
        if not 0.0 <= self.utilization < 1.0:
            raise ConfigurationError(
                f"utilization must be in [0, 1), got {self.utilization}"
            )


@dataclass(frozen=True)
class RpcDraw:
    """Classification and latency of one attempted leaf RPC.

    ``kind`` is one of ``"ok"``, ``"transient"``, ``"hard"`` (this draw
    fail-stopped the leaf), or ``"dead"`` (the leaf was already dead).
    ``latency_ms`` is the simulated time the caller loses before the
    outcome surfaces: the (possibly spiked) sojourn draw for ok and
    transient outcomes, the failure-detection time for dead leaves.
    """

    kind: str
    latency_ms: float
    spiked: bool = False

    @property
    def failed(self) -> bool:
        """True when the RPC produced no answer (any non-ok outcome)."""
        return self.kind != "ok"


class FaultInjector:
    """Samples per-RPC leaf behaviour from a :class:`FaultSpec`.

    One injector serves a whole tree; the serving engine calls
    :meth:`plan_rpc` once per attempted leaf RPC.  The injector owns the
    run's :class:`SimulatedClock` (advanced by the front end as queries
    complete, or by an open-loop engine's event loop) and records when
    each fail-stop death happened.

    Passing a ``query_key`` (any stable non-negative int — the query's
    arrival sequence number by convention) switches a draw from the
    shared call-order stream to an independent keyed stream, making the
    draw independent of every other RPC's ordering.
    """

    def __init__(
        self,
        spec: FaultSpec | None = None,
        model: QueryLatencyModel | None = None,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.spec = spec or FaultSpec()
        self.model = model or QueryLatencyModel()
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ConfigurationError(f"seed must be a non-negative int, got {seed!r}")
        self.clock = SimulatedClock()
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        #: (leaf, attempt) -> seed words of its keyed streams.
        self._keyed_seeds: dict[tuple[int, int], KeyedSeedWords] = {}
        #: leaf_id -> simulated time of death, in arrival order.
        self.died_at_ms: dict[int, float] = {}
        # Per-instance counters: fault sweeps build one injector per
        # configuration and read its counts afterwards, so these must not
        # be shared families.  The latest injector wins the registry
        # names (replace=True) — the snapshot describes the current run.
        self._calls = Counter(
            "repro.search.faults.calls",
            help="Leaf RPC latency draws requested from the injector.",
            unit="calls",
        )
        self._spikes = Counter(
            "repro.search.faults.spikes",
            help="Healthy draws that hit a latency spike.",
            unit="calls",
        )
        self._transient_errors = Counter(
            "repro.search.faults.transient_errors",
            help="Draws that failed with a retryable error.",
            unit="calls",
        )
        self._hard_failures = Counter(
            "repro.search.faults.hard_failures",
            help="Draws that fail-stopped a leaf.",
            unit="calls",
        )
        if metrics is not None:
            for counter in (
                self._calls,
                self._spikes,
                self._transient_errors,
                self._hard_failures,
            ):
                metrics.register(counter, replace=True)

    @property
    def calls(self) -> int:
        """Total latency draws this injector has served (registry-backed)."""
        return self._calls.value

    @property
    def spikes(self) -> int:
        """Latency spikes injected so far (registry-backed)."""
        return self._spikes.value

    @property
    def transient_errors(self) -> int:
        """Transient errors injected so far (registry-backed)."""
        return self._transient_errors.value

    @property
    def hard_failures(self) -> int:
        """Fail-stop deaths injected so far (registry-backed)."""
        return self._hard_failures.value

    # ------------------------------------------------------------------

    def is_dead(self, leaf_id: int) -> bool:
        return leaf_id in self.died_at_ms

    def revive(self, leaf_id: int) -> None:
        """Bring a fail-stopped leaf back (a repair/replacement event)."""
        self.died_at_ms.pop(leaf_id, None)

    def rng_for(self, leaf_id: int, query_key: int, attempt: int = 1) -> np.random.Generator:
        """The independent generator for one ``(leaf, query, attempt)``.

        Seeded as by a :class:`numpy.random.SeedSequence` spawn key
        ``(leaf_id, query_key, attempt)``, so the stream depends only on
        the injector's seed and the stable identifiers — never on how
        many other draws happened first.  Keys below ``2**32`` take their
        seed words from a :class:`KeyedSeedWords` block; larger keys
        build the ``SeedSequence`` itself.
        """
        if leaf_id < 0 or query_key < 0 or attempt < 1:
            raise ConfigurationError(
                f"need leaf_id >= 0, query_key >= 0 and attempt >= 1, got "
                f"({leaf_id}, {query_key}, {attempt})"
            )
        leaf_id, query_key, attempt = int(leaf_id), int(query_key), int(attempt)
        if query_key >= _ONE_WORD_KEYS:
            sequence = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(leaf_id, query_key, attempt)
            )
            return np.random.default_rng(sequence)
        seeds = self._keyed_seeds.get((leaf_id, attempt))
        if seeds is None:
            seeds = KeyedSeedWords(self.seed, leaf_id, attempt)
            self._keyed_seeds[leaf_id, attempt] = seeds
        words = seeds.words(query_key)
        return np.random.Generator(np.random.PCG64(_SeedWords(words)))

    def plan_rpc(
        self,
        leaf_id: int,
        query_key: int | None = None,
        attempt: int = 1,
    ) -> RpcDraw:
        """Draw one leaf RPC's outcome.

        With a ``query_key`` the draw comes from the keyed per-
        ``(leaf, query, attempt)`` stream; without one it consumes the
        legacy shared stream in call order.  The sojourn draw is taken
        at the spec's utilization: a spec with ρ > 0 bakes the M/M/1
        wait into every draw (the closed-loop tree's model), while
        ``utilization=0.0`` draws pure service time for engines whose
        replica queues supply the waiting.  Every call consumes exactly
        four variates of its stream, so fault rates stay coupled.

        Side effects (counters, fail-stop deaths) happen here, once per
        attempted RPC.
        """
        self._calls.inc()
        rng = (
            self._rng
            if query_key is None
            else self.rng_for(leaf_id, query_key, attempt)
        )
        # ``random`` draws what ``uniform(0, 1)`` would, minus its
        # argument handling.
        u_hard, u_transient, u_spike = rng.random(3).tolist()
        latency = self.model.sample_leaf_ms(rng, self.spec.utilization)

        if self.is_dead(leaf_id):
            return RpcDraw(kind="dead", latency_ms=self.spec.hard_fail_detect_ms)
        if u_hard < self.spec.hard_failure_rate:
            self._hard_failures.inc()
            self.died_at_ms[leaf_id] = self.clock.now_ms
            return RpcDraw(kind="hard", latency_ms=self.spec.hard_fail_detect_ms)
        if u_transient < self.spec.transient_error_rate:
            self._transient_errors.inc()
            # The error surfaces when the reply would have: full latency.
            return RpcDraw(kind="transient", latency_ms=latency)
        spiked = u_spike < self.spec.latency_spike_rate
        if spiked:
            self._spikes.inc()
            latency *= self.spec.spike_multiplier
        return RpcDraw(kind="ok", latency_ms=latency, spiked=spiked)
