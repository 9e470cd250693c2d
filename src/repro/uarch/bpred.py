"""Branch predictors: gshare (Table 1's default), bimodal, and static.

All share one interface — ``predict`` / ``checkpoint`` / ``speculate`` /
``train`` / ``recover`` — so the fetch unit and the recovery path are
predictor-agnostic.  The bimodal and static predictors exist for the
branch-predictor ablation (the mechanism's benefit depends on how many
mispredictions are left to exploit).
"""

from __future__ import annotations


class Gshare:
    """Global-history XOR-indexed pattern history table.

    History is updated *speculatively* at predict time; a misprediction
    recovery restores the history the branch saw and appends the actual
    outcome (the standard fix-up).  Counters train at branch resolution.
    """

    def __init__(self, bits: int = 16):
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.table = bytearray(b"\x02") * (1 << bits)  # weakly taken
        self.history = 0

    def _index(self, pc: int) -> int:
        return (pc ^ self.history) & self.mask

    def predict(self, pc: int, backward: bool = False) -> bool:
        return self.table[self._index(pc)] >= 2

    def checkpoint(self) -> int:
        """History value to save alongside an in-flight branch."""
        return self.history

    def speculate(self, taken: bool) -> None:
        """Push the predicted outcome into the speculative history."""
        self.history = ((self.history << 1) | (1 if taken else 0)) & self.mask

    def train(self, pc: int, history: int, taken: bool) -> None:
        """Update the counter the branch actually indexed with."""
        idx = (pc ^ history) & self.mask
        c = self.table[idx]
        if taken:
            if c < 3:
                self.table[idx] = c + 1
        elif c > 0:
            self.table[idx] = c - 1

    def recover(self, history: int, taken: bool) -> None:
        """Restore history after a misprediction of a branch that saw
        ``history`` and actually went ``taken``."""
        self.history = ((history << 1) | (1 if taken else 0)) & self.mask


class Bimodal:
    """PC-indexed 2-bit counters, no global history."""

    def __init__(self, bits: int = 12):
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.table = bytearray(b"\x02") * (1 << bits)

    def predict(self, pc: int, backward: bool = False) -> bool:
        return self.table[pc & self.mask] >= 2

    def checkpoint(self) -> int:
        return 0

    def speculate(self, taken: bool) -> None:
        pass

    def train(self, pc: int, history: int, taken: bool) -> None:
        idx = pc & self.mask
        c = self.table[idx]
        if taken:
            if c < 3:
                self.table[idx] = c + 1
        elif c > 0:
            self.table[idx] = c - 1

    def recover(self, history: int, taken: bool) -> None:
        pass


class StaticBTFN:
    """Backward-taken / forward-not-taken, no state at all."""

    def predict(self, pc: int, backward: bool = False) -> bool:
        return backward

    def checkpoint(self) -> int:
        return 0

    def speculate(self, taken: bool) -> None:
        pass

    def train(self, pc: int, history: int, taken: bool) -> None:
        pass

    def recover(self, history: int, taken: bool) -> None:
        pass


def make_predictor(kind: str, bits: int):
    """Factory for the ``bpred_kind`` configuration knob."""
    if kind == "gshare":
        return Gshare(bits)
    if kind == "bimodal":
        return Bimodal(min(bits, 14))
    if kind == "static":
        return StaticBTFN()
    raise ValueError(f"unknown branch predictor kind {kind!r}")
