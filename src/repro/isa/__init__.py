"""ISA substrate: opcodes, instructions, assembler, functional interpreter."""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

# Bound now, not on first use: ``predecode`` names both a submodule and
# the function this package exports, and importing the submodule later
# would rebind the package attribute to the module.
from .predecode import ProgramImage, image_digest, predecode

if TYPE_CHECKING:  # the names resolved on first use below
    from .assembler import Assembler, AssemblerError, assemble
    from .encoding import (INSTRUCTION_SIZE, EncodingError,
                           decode_instruction, decode_program,
                           encode_instruction, encode_program)
    from .instructions import NUM_LOGICAL_REGS, Instruction, make_nop
    from .interp import InterpError, InterpResult, StepLimitExceeded, run
    from .opcodes import (ALU_EVAL, BRANCH_COND, COND_BRANCHES, FU_LATENCY,
                          FU_OF_OP, MASK64, FUClass, Op, to_signed,
                          to_unsigned)
    from .program import DATA_BASE, WORD, Program

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    ".assembler": ("Assembler", "AssemblerError", "assemble"),
    ".encoding": ("INSTRUCTION_SIZE", "EncodingError", "decode_instruction",
                  "decode_program", "encode_instruction", "encode_program"),
    ".instructions": ("NUM_LOGICAL_REGS", "Instruction", "make_nop"),
    ".interp": ("InterpError", "InterpResult", "StepLimitExceeded", "run"),
    ".opcodes": ("ALU_EVAL", "BRANCH_COND", "COND_BRANCHES", "FU_LATENCY",
                 "FU_OF_OP", "MASK64", "FUClass", "Op", "to_signed",
                 "to_unsigned"),
    ".predecode": ("ProgramImage", "image_digest", "predecode"),
    ".program": ("DATA_BASE", "WORD", "Program"),
})
