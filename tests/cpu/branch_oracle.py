"""Per-branch predictors: the oracle for the vectorized tournament.

These are the textbook predictors, one Python step per dynamic branch:
2-bit saturating-counter tables, bimodal, gshare, a per-branch (PAg)
local-history predictor, and the bimodal/local-history tournament with
a per-PC chooser.  They are slow and obviously sequential, which is what
makes them the reference: the differential suite
(``test_branch_differential.py``) asserts that
:class:`repro.cpu.branch.TournamentPredictor` predicts every branch
exactly as :class:`OracleTournamentPredictor` does.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.branch import BranchStream, branch_mpki
from repro.errors import ConfigurationError


class SaturatingCounterTable:
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
        self._table = SaturatingCounterTable(entries)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        prediction = self._table.predict(pc)
        self._table.update(pc, taken)
        return prediction


class GSharePredictor:
    """Global-history XOR PC predictor (McFarling)."""

    def __init__(self, entries: int = 16384, history_bits: int = 12) -> None:
        if history_bits <= 0:
            raise ConfigurationError("history_bits must be positive")
        self._table = SaturatingCounterTable(entries)
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
        self._patterns = SaturatingCounterTable(pattern_entries)

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


class OracleTournamentPredictor:
    """Bimodal/local-history hybrid with a per-PC chooser (21264 style)."""

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
        self._chooser = SaturatingCounterTable(chooser_entries, initial=1)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        p_bimodal = self._bimodal.predict_and_update(pc, taken)
        p_local = self._local.predict_and_update(pc, taken)
        use_local = self._chooser.predict(pc)
        prediction = p_local if use_local else p_bimodal
        if p_bimodal != p_local:
            self._chooser.update(pc, p_local == taken)
        return prediction


def predictions(predictor, stream: BranchStream) -> np.ndarray:
    """Run a predictor over a stream; return every prediction (bool)."""
    predict = predictor.predict_and_update
    return np.array(
        [predict(pc, taken) for pc, taken in
         zip(stream.pcs.tolist(), stream.outcomes.tolist())],
        dtype=bool,
    )


def simulate_predictor(predictor, stream: BranchStream) -> int:
    """Run a predictor over a stream; return the mispredict count."""
    return int(np.count_nonzero(predictions(predictor, stream) != stream.outcomes))


def measure_branch_mpki(
    predictor, stream: BranchStream, warmup_fraction: float = 0.25
) -> float:
    """The per-branch form of :func:`repro.cpu.branch.measure_branch_mpki`."""
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
