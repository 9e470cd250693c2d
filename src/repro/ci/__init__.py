"""The paper's contribution: control-flow independence reuse via dynamic
vectorization, as a composable pipeline of typed components.

Structures: MBS, NRBQ/CRP, stride predictor, SRSMT, replica scheduler,
the speculative data memory, and the squash-reuse buffer.  Components:
hard-branch filters, re-convergence trackers, slice selectors, replica
managers.  Policies (``ci`` / ``ci-iw`` / ``vect`` / ablations) are
registry entries assembling those components — see
:mod:`repro.ci.registry`.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:  # the names resolved on first use below
    from ..observe.events import ReuseEvent
    from .filters import (AlwaysHardFilter, HardBranchFilter, MBSFilter,
                          NeverHardFilter, OracleBiasFilter)
    from .mbs import MBS, MBSEntry
    from .pipeline import MechanismPipeline
    from .reconverge import (CRP, NRBQ, NRBQEntry,
                             estimate_reconvergent_point)
    from .registry import (PolicySpec, all_policies, build_components,
                           get_policy, policy_names, register_policy)
    from .replicas import ReplicaManager
    from .selection import GreedySliceSelector, SliceSelector
    from .specmem import SpecDataMemory
    from .squash_reuse import ReuseRecord, SquashReuseBuffer, SquashReuseUnit
    from .srsmt import SRSMT, Operand, ReplicaScheduler, SRSMTEntry
    from .stride import StrideEntry, StridePredictor
    from .tracking import (IdealReconvergenceTracker, ReconvergenceTracker,
                           compute_ipdoms)

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "..observe.events": ("ReuseEvent",),
    ".filters": ("AlwaysHardFilter", "HardBranchFilter", "MBSFilter",
                 "NeverHardFilter", "OracleBiasFilter"),
    ".mbs": ("MBS", "MBSEntry"),
    ".pipeline": ("MechanismPipeline",),
    ".reconverge": ("CRP", "NRBQ", "NRBQEntry",
                    "estimate_reconvergent_point"),
    ".registry": ("PolicySpec", "all_policies", "build_components",
                  "get_policy", "policy_names", "register_policy"),
    ".replicas": ("ReplicaManager",),
    ".selection": ("GreedySliceSelector", "SliceSelector"),
    ".specmem": ("SpecDataMemory",),
    ".squash_reuse": ("ReuseRecord", "SquashReuseBuffer", "SquashReuseUnit"),
    ".srsmt": ("Operand", "ReplicaScheduler", "SRSMT", "SRSMTEntry"),
    ".stride": ("StrideEntry", "StridePredictor"),
    ".tracking": ("IdealReconvergenceTracker", "ReconvergenceTracker",
                  "compute_ipdoms"),
})
