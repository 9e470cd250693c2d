"""``repro serve`` — the async simulation service.

A long-running daemon owning one persistent runner pool and the result
cache, so interactive sweeps and CI jobs share warm state instead of
paying cold-start per invocation.  The serving layer re-applies the
paper's reuse idea at request granularity: identical in-flight requests
*coalesce* onto one execution (keyed by the runtime's content-addressed
cache key) exactly as the mechanism reuses a control-independent slice
instead of re-executing it.

Modules: ``protocol`` (versioned wire types), ``queue`` (priority +
fairness + coalescing), ``scheduler`` (admission control + dispatch +
pool supervision), ``journal`` (the crash-safety write-ahead log),
``server`` (asyncio front end), ``client`` (resilient wire client +
thin-client runner), ``metrics`` (Prometheus / healthz).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:  # the names resolved on first use below
    from .client import RemoteRunner, ServeClient, ServeError, parse_address
    from .journal import JobJournal, JournalReplay, replay_journal
    from .metrics import ServerMetrics
    from .protocol import (DEFAULT_PORT, PROTOCOL_VERSION, ErrorInfo,
                           JobSpec, JobStatus, ProtocolError)
    from .queue import ServeQueue
    from .scheduler import (AdmissionController, Dispatcher, PoolSupervisor,
                            SimExecutor)
    from .server import ServeServer, serve_main

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    ".client": ("RemoteRunner", "ServeClient", "ServeError",
                "parse_address"),
    ".journal": ("JobJournal", "JournalReplay", "replay_journal"),
    ".metrics": ("ServerMetrics",),
    ".protocol": ("DEFAULT_PORT", "PROTOCOL_VERSION", "ErrorInfo", "JobSpec",
                  "JobStatus", "ProtocolError"),
    ".queue": ("ServeQueue",),
    ".scheduler": ("AdmissionController", "Dispatcher", "PoolSupervisor",
                   "SimExecutor"),
    ".server": ("ServeServer", "serve_main"),
})
