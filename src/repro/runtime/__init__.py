"""Simulation runtime: the run vocabulary, parallel execution, caching.

Four cooperating pieces (see DESIGN.md §11):

* :class:`RunSpec` — the canonical, frozen description of one logical
  simulation (kernel, scale, seed, config, policy/fault/observer
  riders); every layer — CLI, experiments, pool, cache, serve — speaks
  it, and :mod:`repro.runtime.keys` derives its single
  content-addressed identity (:func:`run_key` / :func:`job_key`);
* :class:`ParallelRunner` / :func:`execute_jobs` — fan runs out over a
  process pool, with in-process fallback, worker-side exception
  capture, a stall watchdog with retry, and a ``keep_going`` mode that
  degrades failures into typed :class:`FailedResult` holes instead of
  aborting the sweep;
* :class:`ResultCache` — persistent content-addressed store of
  ``SimStats`` under those canonical keys, with atomic concurrent-safe
  writes, per-entry checksums, quarantine of corrupt files and
  run-spec provenance in the envelope;
* :func:`profile_kernel` — cProfile harness over one simulation for
  hot-loop work.

The experiment harness's ``repro.experiments.Runner`` delegates here,
so every figure, ablation, benchmark and CLI sweep gets the pool and
the cache for free.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:  # the names resolved on first use below
    from .cache import (CacheEntryError, ResultCache, cache_enabled,
                        default_cache_dir)
    from .keys import (CACHE_SCHEMA, cached_program, config_token,
                       image_digest, job_key, program_fingerprint, run_key,
                       stats_digest)
    from .parallel import (TRANSIENT_PHASES, FailedResult, ParallelRunner,
                           WorkerError, aggregate_failure_report,
                           default_jobs, default_retries, default_timeout,
                           execute_jobs, execute_jobs_observed,
                           pool_restart_count)
    from .profiling import profile_kernel
    from .spec import SPEC_FIELDS, RunSpec

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    ".cache": ("CacheEntryError", "ResultCache", "cache_enabled",
               "default_cache_dir"),
    ".keys": ("CACHE_SCHEMA", "cached_program", "config_token",
              "image_digest", "job_key", "program_fingerprint", "run_key",
              "stats_digest"),
    ".parallel": ("TRANSIENT_PHASES", "FailedResult", "ParallelRunner",
                  "WorkerError", "aggregate_failure_report", "default_jobs",
                  "default_retries", "default_timeout", "execute_jobs",
                  "execute_jobs_observed", "pool_restart_count"),
    ".profiling": ("profile_kernel",),
    ".spec": ("SPEC_FIELDS", "RunSpec"),
})
