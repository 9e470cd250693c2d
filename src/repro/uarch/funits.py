"""Functional-unit pools: per-cycle availability counters."""

from __future__ import annotations

from typing import Dict

from ..isa import FUClass
from .config import ProcessorConfig


class FUPool:
    """Issue-slot bookkeeping for one cycle.

    Fully pipelined units: an instruction occupies its unit only in the
    issue cycle (as in SimpleScalar's default), so availability resets
    every cycle.  Divides share the multiplier units (Table 1).
    """

    def __init__(self, cfg: ProcessorConfig):
        self._capacity: Dict[FUClass, int] = {
            FUClass.INT_ALU: cfg.num_int_alu,
            FUClass.INT_MUL: cfg.num_int_muldiv,
            FUClass.INT_DIV: cfg.num_int_muldiv,
            FUClass.FP_ADD: cfg.num_fp_add,
            FUClass.FP_MUL: cfg.num_fp_muldiv,
            FUClass.FP_DIV: cfg.num_fp_muldiv,
            FUClass.MEM: cfg.num_mem_units,
            FUClass.BRANCH: cfg.num_int_alu,   # branches resolve on int ALUs
            FUClass.NONE: cfg.issue_width,
        }
        # INT_MUL/INT_DIV (and FP_MUL/FP_DIV) share physical units; model
        # with a shared remaining-count per cycle.
        self._shared = {
            FUClass.INT_DIV: FUClass.INT_MUL,
            FUClass.FP_DIV: FUClass.FP_MUL,
            FUClass.BRANCH: FUClass.INT_ALU,
        }
        self._avail: Dict[FUClass, int] = {}
        self.reset()

    def reset(self) -> None:
        self._avail = dict(self._capacity)

    def acquire(self, fu: FUClass) -> bool:
        """Take one unit of class ``fu`` this cycle, if available."""
        key = self._shared.get(fu, fu)
        if self._avail[key] <= 0:
            return False
        self._avail[key] -= 1
        return True

    def available(self, fu: FUClass) -> int:
        return self._avail[self._shared.get(fu, fu)]
