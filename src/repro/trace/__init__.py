"""Trace-driven front end: dynamic traces and offline analyses.

Trace records are the canonical :class:`~repro.observe.events.RetireEvent`.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:  # the names resolved on first use below
    from ..observe.events import RetireEvent
    from .analysis import (BranchStats, LoadStats, ReconvergenceCheck,
                           TraceProfile, check_reconvergence, profile_trace)
    from .tracer import collect_trace

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "..observe.events": ("RetireEvent",),
    ".analysis": ("BranchStats", "LoadStats", "ReconvergenceCheck",
                  "TraceProfile", "check_reconvergence", "profile_trace"),
    ".tracer": ("collect_trace",),
})
