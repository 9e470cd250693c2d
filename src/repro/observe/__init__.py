"""Pipeline observability: event tracing, CPI stacks, mechanism audits.

The subsystem has one producer side — hook points in the timing core
(``uarch/core.py`` / ``uarch/frontend.py``) and the mechanism pipeline
(``ci/pipeline.py`` and its components) that emit structured events —
and three consumers.  The event vocabulary itself is canonical here:
:mod:`repro.observe.events` defines :class:`EventKind`, the
kind→observer-hook table, and the shared record types
(:class:`RetireEvent` for functional traces, :class:`ReuseEvent` for
the mechanism's per-misprediction accounting).  The consumers:

* :class:`PipeTracer`  — per-instruction stage timestamps; exports
  JSONL, the Konata/O3-pipeview log format, and an ASCII diagram
  (``repro pipeview``);
* :class:`CPIStack`    — top-down cycle accounting whose components sum
  exactly to ``stats.cycles``;
* :class:`AuditTrail`  — per-branch "why was this (not) reused" causal
  chains (``repro why``).

Observation is opt-in (``--observe`` / ``REPRO_OBSERVE``); the default
:class:`NullObserver`/``None`` path adds no work to the core loop.
Observers compose with the process-pool runtime: workers ship
``Observer.export()`` payloads back with their stats and
:func:`merge_payloads` merges them deterministically in job order.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:  # the names resolved on first use below
    from .audit import REASONS, AuditTrail, EventAudit
    from .base import (MultiObserver, NullObserver, Observer, make_observer,
                       merge_payloads, observer_names)
    from .cpistack import COMPONENTS, CPIStack
    from .events import (MECHANISM_KINDS, OBSERVER_HOOKS, PIPELINE_KINDS,
                         EventKind, RetireEvent, ReuseEvent)
    from .pipetrace import InstRecord, PipeTracer, parse_konata

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    ".audit": ("REASONS", "AuditTrail", "EventAudit"),
    ".base": ("MultiObserver", "NullObserver", "Observer", "make_observer",
              "merge_payloads", "observer_names"),
    ".cpistack": ("COMPONENTS", "CPIStack"),
    ".events": ("MECHANISM_KINDS", "OBSERVER_HOOKS", "PIPELINE_KINDS",
                "EventKind", "RetireEvent", "ReuseEvent"),
    ".pipetrace": ("InstRecord", "PipeTracer", "parse_konata"),
})
