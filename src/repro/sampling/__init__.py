"""Sampled simulation: functional fast-forward + detailed intervals.

Strictly opt-in (``repro ... --sample``, ``RunSpec.sampling``): the
exact execution paths and their goldens are untouched.  See DESIGN §13
for the subsystem design and error-bar semantics.

* :mod:`repro.sampling.plan` — seed-free systematic sampling plans;
* :mod:`repro.sampling.checkpoint` — functional checkpoints, content
  addressed by (program fingerprint, boundary) and shared across every
  config/policy point of a sweep;
* :mod:`repro.sampling.estimate` — interval stitching with
  interval-variance confidence intervals (``sampled=True`` provenance);
* :mod:`repro.sampling.executor` — execution entry points for workers,
  runners and ``repro run``.
"""

from .checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    ensure_checkpoints,
    feature_pass,
)
from .estimate import combine, delta_stats, relative_ci
from .executor import (
    interval_specs,
    plan_for,
    plan_program,
    resolve_sampled,
    run_interval,
    run_sampled_job,
    run_sampled_spec,
    sample_program,
)
from .plan import (
    Interval,
    SamplingError,
    SamplingPlan,
    SamplingSpec,
    is_interval_token,
    parse_interval,
)

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "Interval",
    "SamplingError",
    "SamplingPlan",
    "SamplingSpec",
    "combine",
    "delta_stats",
    "ensure_checkpoints",
    "feature_pass",
    "interval_specs",
    "is_interval_token",
    "parse_interval",
    "plan_for",
    "plan_program",
    "relative_ci",
    "resolve_sampled",
    "run_interval",
    "run_sampled_job",
    "run_sampled_spec",
    "sample_program",
]
