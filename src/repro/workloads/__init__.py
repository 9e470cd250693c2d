"""Synthetic SpecInt2000-like workload suite (registry-backed)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:  # the names resolved on first use below
    from .registry import (UnknownWorkloadError, WorkloadSpec, all_workloads,
                           build_program, get_workload, kernel_names,
                           register_workload, workload_names)

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    ".registry": ("UnknownWorkloadError", "WorkloadSpec", "all_workloads",
                  "build_program", "get_workload", "kernel_names",
                  "register_workload", "workload_names"),
})
