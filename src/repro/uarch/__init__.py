"""Out-of-order superscalar substrate (the paper's SimpleScalar stand-in)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:  # the names resolved on first use below
    from .bpred import Bimodal, Gshare, StaticBTFN, make_predictor
    from .caches import CacheLevel, MemoryHierarchy
    from .config import (INF_REGS, CacheConfig, ProcessorConfig, ci, scal,
                         wb, with_spec_mem)
    from .core import Core, PortState, SimulationError, simulate
    from .frontend import FetchUnit
    from .funits import FUPool
    from .hooks import MechanismHooks
    from .rename import FreeList, RenameTable
    from .rob import MEM_ABSENT, DynInst
    from .stats import SimStats

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    ".bpred": ("Bimodal", "Gshare", "StaticBTFN", "make_predictor"),
    ".caches": ("CacheLevel", "MemoryHierarchy"),
    ".config": ("INF_REGS", "CacheConfig", "ProcessorConfig", "ci", "scal",
                "wb", "with_spec_mem"),
    ".core": ("Core", "PortState", "SimulationError", "simulate"),
    ".frontend": ("FetchUnit",),
    ".funits": ("FUPool",),
    ".hooks": ("MechanismHooks",),
    ".rename": ("FreeList", "RenameTable"),
    ".rob": ("DynInst", "MEM_ABSENT"),
    ".stats": ("SimStats",),
})
