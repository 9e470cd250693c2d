"""Wire protocol for the simulation service (version 1).

The daemon speaks a minimal HTTP/1.1 + JSON dialect (stdlib only, one
request per connection).  Endpoints, all rooted at ``/v1``:

========================  =====================================================
``POST /v1/submit``       submit a batch of :class:`JobSpec`; per-job accept /
                          reject decisions come back in one response
``GET  /v1/status?id=``   current :class:`JobStatus` of one submission
``GET  /v1/result?id=``   terminal result: ``SimStats`` payload or an
                          :class:`ErrorInfo` envelope
``POST /v1/cancel``       cancel a *queued* submission (running/terminal jobs
                          report their state instead)
``GET  /healthz``         JSON liveness + load snapshot
``GET  /metrics``         Prometheus text format
========================  =====================================================

Every JSON body carries ``"v": PROTOCOL_VERSION`` and ``"ok"``; failures
use one explicit error envelope (:class:`ErrorInfo`) whose ``kind``
vocabulary covers both admission outcomes (``rejected``, ``shed``,
``draining``) and execution outcomes — the latter reusing the runtime
failure classes from DESIGN.md §8 (a :class:`~repro.runtime.FailedResult`
maps onto ``kind="failed"`` with its ``phase`` and ``attempts``
preserved, so a client sees exactly what a local ``--keep-going`` sweep
would have reported).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..runtime.spec import RunSpec
from ..uarch.config import config_from_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.parallel import FailedResult

#: bump on any incompatible wire change; requests carry it and the
#: server rejects other versions explicitly instead of misparsing them
PROTOCOL_VERSION = 1

#: URL prefix of the versioned API surface
API_PREFIX = "/v1"

#: default TCP port of ``repro serve``
DEFAULT_PORT = 8731

#: admission classes, highest priority first: interactive jobs are
#: dispatched before sweep jobs and may shed queued sweep jobs when the
#: queue is full
PRIORITIES = ("interactive", "sweep")

# -- job states -------------------------------------------------------------
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: states a job never leaves
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


class ProtocolError(ValueError):
    """A request that cannot be interpreted (maps to HTTP 400)."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ProtocolError(message)


@dataclass(frozen=True)
class JobSpec(RunSpec):
    """One simulation request: a :class:`~repro.runtime.RunSpec` plus
    transport fields.

    The run vocabulary *is* the wire vocabulary — kernel, scale, seed,
    config, policy, fault and sampling riders serialise exactly as
    :meth:`RunSpec.to_dict` defines them, so the server's coalescing key
    is literally ``spec.cache_key()``: the same content-addressed
    identity the local pool memoises and the disk cache stores under.
    ``priority`` and ``client`` are transport-only — they steer
    admission and accounting and never enter the key.  Observer specs do
    not cross the wire (events would dwarf the stats payload); a
    non-null ``observe`` field is rejected at parse time.
    """

    priority: str = "sweep"
    client: str = "anon"

    def to_dict(self) -> dict:
        out = RunSpec.to_dict(self)
        del out["observe"]   # never crosses the wire
        out["priority"] = self.priority
        out["client"] = self.client
        return out

    @classmethod
    def from_dict(cls, data: object) -> "JobSpec":
        _require(isinstance(data, dict), "job spec must be an object")
        assert isinstance(data, dict)
        kernel = data.get("kernel")
        _require(isinstance(kernel, str) and bool(kernel),
                 "job spec needs a 'kernel' name")
        priority = data.get("priority", "sweep")
        _require(priority in PRIORITIES,
                 f"priority must be one of {PRIORITIES}, got {priority!r}")
        try:
            scale = float(data.get("scale", 0.5))
            seed = int(data.get("seed", 1))
        except (TypeError, ValueError):
            raise ProtocolError("scale/seed must be numeric") from None
        policy = data.get("policy")
        _require(policy is None or isinstance(policy, str),
                 "policy must be a registry name or null")
        faults = data.get("faults")
        _require(faults is None or isinstance(faults, str),
                 "faults must be a fault-plan spec string or null")
        _require(data.get("observe") is None,
                 "observers are not supported over the wire")
        sampling = data.get("sampling")
        _require(sampling is None or isinstance(sampling, str),
                 "sampling must be a sampling spec string or null")
        if sampling is not None:
            _require(faults is None,
                     "sampling does not compose with fault injection")
            from ..sampling.plan import SamplingError, SamplingSpec, \
                is_interval_token, parse_interval
            try:
                if is_interval_token(sampling):
                    parse_interval(sampling)   # a pre-planned interval job
                else:
                    SamplingSpec.parse(sampling)
            except SamplingError as exc:
                raise ProtocolError(str(exc)) from None
        client = data.get("client", "anon")
        _require(isinstance(client, str) and bool(client),
                 "client must be a non-empty string")
        try:
            cfg = config_from_dict(data.get("cfg") or {})
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        spec = cls(kernel=kernel, scale=scale, seed=seed, cfg=cfg,
                   policy=policy, faults=faults, sampling=sampling,
                   priority=priority, client=client)
        try:
            spec.resolved_cfg()   # unknown policy fails here, with hints
            spec.fault_plan()     # malformed fault plan fails here
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        return spec


@dataclass(frozen=True)
class ErrorInfo:
    """The protocol's one error envelope.

    ``kind`` vocabulary:

    * ``rejected``  — admission control refused the job (queue full);
      honour ``retry_after`` (seconds) before resubmitting
    * ``shed``      — the job was admitted but later evicted to make room
      for an interactive job
    * ``draining``  — the daemon is shutting down and admits nothing new
    * ``failed``    — the simulation failed; ``phase``/``attempts`` carry
      the runtime failure classification (worker / timeout / pool)
    * ``cancelled`` — cancelled by the client or by a drain
    * ``bad-request`` / ``not-found`` / ``unsupported-version`` —
      protocol-level problems
    """

    kind: str
    message: str
    phase: str = ""
    attempts: int = 0
    retry_after: float = 0.0

    def to_dict(self) -> dict:
        out: Dict[str, object] = {"kind": self.kind,
                                  "message": self.message}
        if self.phase:
            out["phase"] = self.phase
        if self.attempts:
            out["attempts"] = self.attempts
        if self.retry_after:
            out["retry_after"] = self.retry_after
        return out

    @classmethod
    def from_dict(cls, data: object) -> "ErrorInfo":
        if not isinstance(data, dict):
            return cls(kind="unknown", message=repr(data))
        return cls(kind=str(data.get("kind", "unknown")),
                   message=str(data.get("message", "")),
                   phase=str(data.get("phase", "")),
                   attempts=int(data.get("attempts", 0) or 0),
                   retry_after=float(data.get("retry_after", 0.0) or 0.0))

    @classmethod
    def from_failed_result(cls, fr: FailedResult) -> "ErrorInfo":
        return cls(kind="failed", message=fr.describe(), phase=fr.phase,
                   attempts=fr.attempts)

    def to_failed_result(self, kernel: str, scale: float,
                         seed: int) -> FailedResult:
        """The local-runtime twin of this error (for thin clients)."""
        from ..runtime.parallel import FailedResult
        return FailedResult(kernel, scale, seed, error=self.message,
                            phase=self.phase or self.kind,
                            attempts=self.attempts or 1)


@dataclass(frozen=True)
class JobStatus:
    """One submission's externally visible state."""

    id: str
    kernel: str
    state: str
    #: where the result came from once terminal: ``sim`` / ``disk`` /
    #: ``memo`` / ``coalesced`` / ``failed`` ('' while pending)
    source: str = ""
    error: Optional[ErrorInfo] = None

    def to_dict(self) -> dict:
        out: Dict[str, object] = {"id": self.id, "kernel": self.kernel,
                                  "state": self.state}
        if self.source:
            out["source"] = self.source
        if self.error is not None:
            out["error"] = self.error.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: object) -> "JobStatus":
        _require(isinstance(data, dict), "job status must be an object")
        assert isinstance(data, dict)
        err = data.get("error")
        return cls(id=str(data.get("id", "")),
                   kernel=str(data.get("kernel", "")),
                   state=str(data.get("state", "")),
                   source=str(data.get("source", "")),
                   error=None if err is None else ErrorInfo.from_dict(err))

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


# -- envelopes --------------------------------------------------------------

def ok_envelope(**fields_: object) -> dict:
    return {"v": PROTOCOL_VERSION, "ok": True, **fields_}


def error_envelope(err: ErrorInfo) -> dict:
    return {"v": PROTOCOL_VERSION, "ok": False, "error": err.to_dict()}


def check_version(body: dict) -> None:
    """Reject a body that declares a different protocol version."""
    v = body.get("v", PROTOCOL_VERSION)
    if v != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {v!r} "
                            f"(this server speaks v{PROTOCOL_VERSION})")


def parse_submit_body(body: object) -> List[JobSpec]:
    """Validate a submit request body into its job specs."""
    _require(isinstance(body, dict), "submit body must be an object")
    assert isinstance(body, dict)
    check_version(body)
    jobs = body.get("jobs")
    _require(isinstance(jobs, list) and bool(jobs),
             "submit body needs a non-empty 'jobs' list")
    assert isinstance(jobs, list)
    return [JobSpec.from_dict(item) for item in jobs]
