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

Predictors are standard: bimodal (2-bit counters), gshare, and a
bimodal/gshare tournament with a chooser table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """A dynamic branch stream: PCs, outcomes, and the instruction budget."""

    pcs: np.ndarray
    outcomes: np.ndarray
    instruction_count: int

    def __post_init__(self) -> None:
        if len(self.pcs) != len(self.outcomes):
            raise ConfigurationError("pcs and outcomes must align")

    def __len__(self) -> int:
        return len(self.pcs)


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
        per_branch_trips = np.maximum(
            2, rng.geometric(1.0 / trip, size=n_static)
        )
        loop_idx = np.flatnonzero(is_loop_occ)
        loop_pcs = pcs[loop_idx]
        order, sorted_pcs = stable_group_order(loop_pcs)
        # Occurrence index of each dynamic instance within its static branch.
        new_group = np.empty(len(sorted_pcs), bool)
        new_group[0] = True
        new_group[1:] = sorted_pcs[1:] != sorted_pcs[:-1]
        group_start = np.maximum.accumulate(
            np.where(new_group, np.arange(len(sorted_pcs)), 0)
        )
        occ = np.arange(len(sorted_pcs)) - group_start
        trips = per_branch_trips[sorted_pcs]
        taken_sorted = (occ % trips) != (trips - 1)
        taken = np.empty(len(loop_idx), bool)
        taken[order] = taken_sorted
        outcomes[loop_idx] = taken

    return BranchStream(
        pcs=pcs.astype(np.int64),
        outcomes=outcomes,
        instruction_count=instructions,
    )


# ----------------------------------------------------------------------
# Predictors
# ----------------------------------------------------------------------


class _SaturatingCounterTable:
    """A table of 2-bit saturating counters (0..3; >= 2 predicts taken)."""

    def __init__(self, entries: int, initial: int = 2) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ConfigurationError(
                f"table entries must be a power of two, got {entries}"
            )
        if not 0 <= initial <= 3:
            raise ConfigurationError(f"initial counter must be 0..3, got {initial}")
        self.mask = entries - 1
        self.counters = [initial] * entries

    def predict(self, index: int) -> bool:
        return self.counters[index & self.mask] >= 2

    def update(self, index: int, taken: bool) -> None:
        i = index & self.mask
        c = self.counters[i]
        if taken:
            if c < 3:
                self.counters[i] = c + 1
        elif c > 0:
            self.counters[i] = c - 1


class BimodalPredictor:
    """Per-PC 2-bit counter predictor."""

    def __init__(self, entries: int = 4096) -> None:
        self._table = _SaturatingCounterTable(entries)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        prediction = self._table.predict(pc)
        self._table.update(pc, taken)
        return prediction


class GSharePredictor:
    """Global-history XOR PC predictor (McFarling)."""

    def __init__(self, entries: int = 16384, history_bits: int = 12) -> None:
        if history_bits <= 0:
            raise ConfigurationError("history_bits must be positive")
        self._table = _SaturatingCounterTable(entries)
        self._history = 0
        self._history_mask = (1 << history_bits) - 1

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        index = pc ^ self._history
        prediction = self._table.predict(index)
        self._table.update(index, taken)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        return prediction


class LocalHistoryPredictor:
    """Two-level per-branch-history predictor (PAg, Yeh & Patt).

    A per-PC history register indexes a shared pattern table of 2-bit
    counters.  This is what learns loop periodicity and per-branch
    patterns that global history cannot see through interleaving noise.
    """

    def __init__(
        self,
        history_bits: int = 16,
        history_entries: int = 16384,
        pattern_entries: int = 1 << 18,
    ) -> None:
        if history_bits <= 0:
            raise ConfigurationError("history_bits must be positive")
        if history_entries <= 0 or history_entries & (history_entries - 1):
            raise ConfigurationError(
                f"history_entries must be a power of two, got {history_entries}"
            )
        self._histories = [0] * history_entries
        self._history_mask = (1 << history_bits) - 1
        self._pc_mask = history_entries - 1
        self._patterns = _SaturatingCounterTable(pattern_entries)
        # Mix the PC into the pattern index so two branches with the same
        # local history do not necessarily collide.
        self._pc_hash_shift = history_bits

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        slot = pc & self._pc_mask
        history = self._histories[slot]
        # Fibonacci-hash the PC before mixing so different branches with
        # identical local histories spread across the pattern table.
        index = history ^ ((pc * 0x9E3779B1) >> 8)
        prediction = self._patterns.predict(index)
        self._patterns.update(index, taken)
        self._histories[slot] = ((history << 1) | int(taken)) & self._history_mask
        return prediction


class TournamentPredictor:
    """Bimodal/local-history hybrid with a per-PC chooser (21264 style).

    The bimodal side is near-optimal for the heavily-biased checks that
    dominate search code; the local-history side learns loop periodicity.
    A per-PC chooser routes each branch to whichever side predicts it
    better.  (A gshare side would add cross-branch correlation, which the
    synthetic streams deliberately do not contain — data-dependent search
    branches are the paper's irreducible mispredicts.)
    """

    def __init__(
        self,
        entries: int = 16384,
        history_bits: int = 16,
        chooser_entries: int = 4096,
    ) -> None:
        self._bimodal = BimodalPredictor(entries)
        self._local = LocalHistoryPredictor(history_bits=history_bits)
        # Start weakly on the bimodal side: local-history entries are cold
        # until a branch's pattern has actually repeated.
        self._chooser = _SaturatingCounterTable(chooser_entries, initial=1)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        p_bimodal = self._bimodal.predict_and_update(pc, taken)
        p_local = self._local.predict_and_update(pc, taken)
        use_local = self._chooser.predict(pc)
        prediction = p_local if use_local else p_bimodal
        if p_bimodal != p_local:
            self._chooser.update(pc, p_local == taken)
        return prediction


def simulate_predictor(predictor, stream: BranchStream) -> int:
    """Run a predictor over a stream; return the mispredict count."""
    mispredicts = 0
    predict = predictor.predict_and_update
    for pc, taken in zip(stream.pcs.tolist(), stream.outcomes.tolist()):
        if predict(pc, taken) != taken:
            mispredicts += 1
    return mispredicts


def branch_mpki(mispredicts: int, instruction_count: int) -> float:
    """Branch mispredicts per kilo-instruction."""
    if instruction_count <= 0:
        raise ConfigurationError("instruction_count must be positive")
    return mispredicts / (instruction_count / 1000.0)


def measure_branch_mpki(
    predictor, stream: BranchStream, warmup_fraction: float = 0.25
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
    mispredicts = 0
    predict = predictor.predict_and_update
    for i, (pc, taken) in enumerate(
        zip(stream.pcs.tolist(), stream.outcomes.tolist())
    ):
        if predict(pc, taken) != taken and i >= split:
            mispredicts += 1
    measured_instructions = stream.instruction_count * (1.0 - warmup_fraction)
    return branch_mpki(mispredicts, round(measured_instructions))
