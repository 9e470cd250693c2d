"""Synthetic SpecInt2000-like workload suite (registry-backed)."""

from .registry import (
    UnknownWorkloadError,
    WorkloadSpec,
    all_workloads,
    get_workload,
    register_workload,
    workload_names,
)
from .suite import (
    BY_NAME,
    SUITE,
    build_program,
    build_suite,
    get_kernel,
    kernel_names,
)

__all__ = [
    "BY_NAME",
    "SUITE",
    "UnknownWorkloadError",
    "WorkloadSpec",
    "all_workloads",
    "build_program",
    "build_suite",
    "get_kernel",
    "get_workload",
    "kernel_names",
    "register_workload",
    "workload_names",
]
