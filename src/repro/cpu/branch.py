"""Branch-stream generation and branch-predictor simulation.

Table I shows branch MPKI is one of the sharpest contrasts between
production search (6–9.5 MPKI) and other workloads (SPEC mcf 11.3, CloudSuite
web search 0.5): search executes "numerous data-dependent branches" (§II-C).

The generator models a static branch population with Zipfian execution
frequency and three behaviour classes:

* **biased** — almost-always-taken/not-taken checks; trivially predictable.
* **loop** — taken for a (geometric) trip count, then one exit mispredict.
* **data-dependent** — outcomes driven by (simulated) scored data, i.e.
  effectively random coin flips with a per-branch bias; these produce the
  irreducible mispredicts that dominate search.

The predictor is a bimodal/local-history tournament with a per-PC
chooser, computed for a whole stream at once with the same result, bit
for bit, as stepping it branch by branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._units import is_power_of_two
from repro.cachesim.indexing import stable_group_order
from repro.errors import ConfigurationError
from repro.memtrace.sampling import ZipfSampler


@dataclass(frozen=True)
class BranchWorkloadConfig:
    """Composition of a workload's conditional-branch population."""

    static_branches: int = 4096
    zipf: float = 0.9
    #: Fraction of *static* branches in each behaviour class.
    biased_fraction: float = 0.55
    loop_fraction: float = 0.25
    data_dependent_fraction: float = 0.20
    #: Taken probability of a biased branch (or 1 - this, half the time).
    biased_rate: float = 0.03
    #: Mean loop trip count.
    loop_trip_mean: float = 12.0
    #: Coin-flip bias of data-dependent branches (0.5 = maximally random).
    data_dependent_bias: float = 0.5
    branches_per_ki: float = 150.0

    def __post_init__(self) -> None:
        total = (
            self.biased_fraction
            + self.loop_fraction
            + self.data_dependent_fraction
        )
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"behaviour-class fractions must sum to 1, got {total}"
            )
        if self.static_branches <= 0:
            raise ConfigurationError("static_branches must be positive")
        if not 0 < self.data_dependent_bias <= 0.5:
            raise ConfigurationError(
                "data_dependent_bias must be in (0, 0.5]"
            )


@dataclass(frozen=True)
class BranchStream:
    """A dynamic branch stream: PCs, outcomes, and the instruction budget.

    ``pcs`` are integers (any width or sign); ``outcomes`` are bool or
    0/1 integers and are stored as bool.
    """

    pcs: np.ndarray
    outcomes: np.ndarray
    instruction_count: int

    def __post_init__(self) -> None:
        pcs, outcomes = np.asarray(self.pcs), np.asarray(self.outcomes)
        if pcs.ndim != 1 or outcomes.ndim != 1:
            raise ConfigurationError("pcs and outcomes must be 1-D arrays")
        if len(pcs) != len(outcomes):
            raise ConfigurationError("pcs and outcomes must align")
        if not len(pcs):
            pcs, outcomes = pcs.astype(np.int64), outcomes.astype(bool)
        if pcs.dtype.kind not in "iu":
            raise ConfigurationError(f"pcs must be integers, got {pcs.dtype}")
        if outcomes.dtype != bool and (
            outcomes.dtype.kind not in "iu" or not np.isin(outcomes, (0, 1)).all()
        ):
            raise ConfigurationError("outcomes must be bool or 0/1")
        if self.instruction_count <= 0:
            raise ConfigurationError("instruction_count must be positive")
        object.__setattr__(self, "pcs", pcs)
        object.__setattr__(self, "outcomes", outcomes.astype(bool, copy=False))

    def __len__(self) -> int:
        return len(self.pcs)


def _grouped(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`stable_group_order` order of ``keys`` and each grouped
    access's position within its group of equal keys."""
    order, sorted_keys = stable_group_order(keys)
    n = len(keys)
    change = np.ones(n, bool)
    change[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(change)
    return order, np.arange(n) - np.repeat(starts, np.diff(starts, append=n))


# Behaviour-class tags used internally by the generator.
_BIASED, _LOOP, _DATA = 0, 1, 2


def generate_branch_stream(
    config: BranchWorkloadConfig,
    instructions: int,
    seed: int = 0,
) -> BranchStream:
    """Generate a dynamic branch stream representing ``instructions``."""
    if instructions <= 0:
        raise ConfigurationError("instructions must be positive")
    rng = np.random.default_rng(seed)
    n_branches = max(1, round(instructions / 1000 * config.branches_per_ki))
    n_static = config.static_branches

    # Stratified class assignment over popularity ranks: a golden-ratio
    # stripe gives every class its proportional share of hot *and* cold
    # ranks.  (A random shuffle occasionally drops a rare class onto the
    # hottest rank, swinging the dynamic mix — and MPKI — wildly by seed.)
    stripe = ((np.arange(n_static) + 1) * 0.6180339887498949) % 1.0
    classes = np.full(n_static, _BIASED, np.int8)
    classes[stripe < config.data_dependent_fraction + config.loop_fraction] = _LOOP
    classes[stripe < config.data_dependent_fraction] = _DATA

    # Per-branch taken bias.  Loops handled separately below.
    bias = np.empty(n_static, np.float64)
    biased_mask = classes == _BIASED
    flips = rng.random(n_static) < 0.5
    bias[biased_mask] = np.where(
        flips[biased_mask], config.biased_rate, 1.0 - config.biased_rate
    )
    data_mask = classes == _DATA
    flips2 = rng.random(n_static) < 0.5
    dd = config.data_dependent_bias
    bias[data_mask] = np.where(flips2[data_mask], dd, 1.0 - dd)
    loop_mask = classes == _LOOP
    trip = config.loop_trip_mean
    # A loop branch is taken trip/(trip+1) of the time on average.
    bias[loop_mask] = trip / (trip + 1.0)

    sampler = ZipfSampler(n_static, config.zipf, rng)
    pcs = sampler.sample(n_branches)
    u = rng.random(n_branches)
    outcomes = u < bias[pcs]

    # Give loop branches their periodic structure: trip-1 takens followed
    # by one not-taken exit.  Each static loop has a *fixed* trip count —
    # that is what makes short loops learnable by history predictors while
    # longer loops still mispredict roughly once per trip.
    is_loop_occ = classes[pcs] == _LOOP
    if is_loop_occ.any():
        per_branch_trips = np.maximum(2, rng.geometric(1.0 / trip, size=n_static))
        loop_idx = np.flatnonzero(is_loop_occ)
        loop_pcs = pcs[loop_idx]
        # Occurrence index of each dynamic instance within its static branch.
        order, occ = _grouped(loop_pcs)
        trips = per_branch_trips[loop_pcs[order]]
        taken = np.empty(len(loop_idx), bool)
        taken[order] = (occ % trips) != (trips - 1)
        outcomes[loop_idx] = taken

    return BranchStream(pcs=pcs, outcomes=outcomes, instruction_count=instructions)


#: Local-history geometry (fixed) and the Fibonacci-hash multiplier that
#: mixes the PC into the pattern-table index.
_HISTORY_ENTRIES, _PATTERN_BITS, _PC_HASH = 16384, 18, np.uint64(0x9E3779B1)

# A map f of the four states of a 2-bit counter packs into one byte, f(s)
# at bits 2s..2s+1: increment (1, 2, 3, 3), decrement (0, 0, 1, 2) and
# identity (0, 1, 2, 3).  ``_STEP[taken]`` is the map of one update.
_STEP = np.array([0b10010000, 0b11111001], np.uint8)
_IDENTITY = 0b11100100
#: Maps that send every state to one state: once a window of updates
#: has saturated a counter, no earlier update changes its result.
_CONSTANT = np.isin(np.arange(256), [0x00, 0x55, 0xAA, 0xFF])


def _compose_table() -> np.ndarray:
    """``table[f << 8 | g]`` is the packed map "apply ``f``, then ``g``"."""
    first = np.arange(256, dtype=np.uint16)[:, None]
    then = np.arange(256, dtype=np.uint16)[None, :]
    table = np.zeros((256, 256), np.uint16)
    for state in range(4):
        middle = (first >> (2 * state)) & 3
        table |= ((then >> (2 * middle)) & 3) << (2 * state)
    return table.astype(np.uint8).ravel()


_COMPOSE = _compose_table()


def _counter_predictions(grouping, maps: np.ndarray, initial: int) -> np.ndarray:
    """Predictions (state >= 2) of a table of 2-bit counters.

    Access ``i`` reads its counter, then applies the packed map
    ``maps[i]`` to it; ``grouping`` is :func:`_grouped` of the counter
    keys, and every counter starts at ``initial``.  The state an access
    reads is the composition of the earlier maps on its counter, so a
    segmented doubling scan (Hillis-Steele) over the grouped non-identity
    maps computes all of them at once.  A position leaves the scan once
    its window reaches its group's first update or its map is constant.
    """
    order, offsets = grouping
    sorted_maps = maps[order]
    moved = sorted_maps != _IDENTITY
    prior = np.cumsum(moved) - moved
    earlier = prior - prior[np.arange(len(order)) - offsets]
    updates = np.flatnonzero(moved)
    composed = sorted_maps[updates]
    scan_offsets = earlier[updates]
    active = np.flatnonzero(scan_offsets)
    step = 1
    while active.size:
        before = composed[active - step].astype(np.intp) << 8
        composed[active] = _COMPOSE[before | composed[active]]
        step *= 2
        active = active[(scan_offsets[active] >= step) & ~_CONSTANT[composed[active]]]
    state = np.full(len(order), initial, np.uint8)
    seen = np.flatnonzero(earlier)
    state[seen] = (composed[prior[seen] - 1] >> (2 * initial)) & 3
    predictions = np.empty(len(order), bool)
    predictions[order] = state >= 2
    return predictions


def _local_histories(grouping, outcomes: np.ndarray, bits: int) -> np.ndarray:
    """Each access's local history: the last ``bits`` outcomes in its
    history slot (``grouping`` is :func:`_grouped` of the slots), the
    most recent in bit 0."""
    order, offsets = grouping
    taken = outcomes[order].astype(np.uint32)
    history = np.zeros(len(order), np.uint32)
    for age in range(1, bits + 1):
        history[age:] |= (taken[:-age] * (offsets[age:] >= age)) << (age - 1)
    histories = np.empty_like(history)
    histories[order] = history
    return histories


@dataclass(frozen=True)
class TournamentPredictor:
    """Bimodal/local-history hybrid with a per-PC chooser (21264 style).

    The bimodal side (``entries`` 2-bit counters) suits the biased checks
    that dominate search code.  The local-history side (PAg, Yeh & Patt)
    learns loop periodicity: a per-PC register of the last
    ``history_bits`` outcomes, XORed with a hash of the PC, indexes shared
    2-bit pattern counters.  A per-PC chooser (``chooser_entries``
    counters, starting weakly on the bimodal side) steps toward the side
    that was right whenever the two disagree.  Every table trains on
    actual outcomes, never on predictions, so :meth:`predict` computes
    the tables in turn for the whole stream.
    """

    entries: int = 16384
    history_bits: int = 16
    chooser_entries: int = 4096

    def __post_init__(self) -> None:
        for entries in (self.entries, self.chooser_entries):
            if not is_power_of_two(entries):
                raise ConfigurationError(
                    f"table entries must be a power of two, got {entries}"
                )
        if self.history_bits <= 0:
            raise ConfigurationError("history_bits must be positive")

    def predict(self, stream: BranchStream) -> np.ndarray:
        """The prediction (bool) the predictor makes for every branch."""
        # Every index keeps only low PC bits, which any two's-complement
        # width agrees on: work in uint64.
        pcs = stream.pcs.astype(np.uint64)
        taken = stream.outcomes
        steps = _STEP[taken.view(np.uint8)]
        by_pc = _grouped(pcs & np.uint64(self.entries - 1))
        p_bimodal = _counter_predictions(by_pc, steps, 2)
        if self.entries != _HISTORY_ENTRIES:
            by_pc = _grouped(pcs & np.uint64(_HISTORY_ENTRIES - 1))
        # History bits above the pattern index's width never matter, and
        # bits 8.. of the wrapped PC product equal those of the exact one.
        history = _local_histories(by_pc, taken, min(self.history_bits, _PATTERN_BITS))
        patterns = (history ^ ((pcs * _PC_HASH) >> np.uint64(8))) & np.uint64(
            (1 << _PATTERN_BITS) - 1
        )
        p_local = _counter_predictions(_grouped(patterns), steps, 2)
        trained = _STEP[(p_local == taken).view(np.uint8)]
        chooser_maps = np.where(p_bimodal == p_local, np.uint8(_IDENTITY), trained)
        use_local = _counter_predictions(
            _grouped(pcs & np.uint64(self.chooser_entries - 1)), chooser_maps, 1
        )
        return np.where(use_local, p_local, p_bimodal)


def branch_mpki(mispredicts: int, instruction_count: int) -> float:
    """Branch mispredicts per kilo-instruction."""
    if instruction_count <= 0:
        raise ConfigurationError("instruction_count must be positive")
    return mispredicts / (instruction_count / 1000.0)


def measure_branch_mpki(
    predictor: TournamentPredictor, stream: BranchStream, warmup_fraction: float = 0.25
) -> float:
    """Steady-state branch MPKI: train first, measure the remainder.

    The paper's fleet measurements observe long-running servers; counting
    the predictor's cold-start mispredicts would systematically overstate
    MPKI for every workload, so the first ``warmup_fraction`` of the stream
    only trains.
    """
    if not 0 <= warmup_fraction < 1:
        raise ConfigurationError("warmup_fraction must be in [0, 1)")
    split = int(len(stream) * warmup_fraction)
    wrong = predictor.predict(stream)[split:] != stream.outcomes[split:]
    measured_instructions = stream.instruction_count * (1.0 - warmup_fraction)
    return branch_mpki(int(np.count_nonzero(wrong)), round(measured_instructions))
