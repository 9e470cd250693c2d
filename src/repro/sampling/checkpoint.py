"""Functional checkpoints and their content-addressed store.

A checkpoint is pure *architectural* state at an instruction boundary:
the logical register file, the memory delta against the program's
initial image, and the instruction/PC cursor.  It is produced by the
functional interpreter's resumable ``regs``/``memory`` path
(:func:`repro.isa.interp.run` with ``allow_partial=True``) and consumed
by the detailed core's boot-from-checkpoint entry
(:class:`repro.uarch.core.Core` ``boot=``).

The load-bearing property: architectural state at an instruction
boundary depends only on the *program* — never on the config, policy,
ports or register-file size being swept — so checkpoints are keyed by
:func:`repro.runtime.keys.checkpoint_key` (program fingerprint +
boundary) alone, and ``N policies x K configs x 1 kernel`` performs
exactly one fast-forward per boundary.  The store lives on disk under
``<cache root>/checkpoints/`` and is shared across pool workers,
concurrent sessions and ``repro serve``.

:class:`CheckpointStore` is an :class:`~repro.runtime.cache.EnvelopeStore`
(sharding, atomic writes, checksummed envelopes, corrupt-entry handling
and the ``repro cache`` audit all live there) holding two entry kinds:
checkpoints and derived sampling plans.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

from ..isa.instructions import K_BRANCH, K_LOAD, K_STORE, NUM_LOGICAL_REGS
from ..runtime.cache import EnvelopeStore, default_cache_dir
from ..runtime.keys import (
    CHECKPOINT_SCHEMA,
    checkpoint_key,
    program_fingerprint,
)

from .plan import SamplingPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..isa import Program

#: subdirectory of the cache root holding the checkpoint store
CHECKPOINT_SUBDIR = "checkpoints"

#: functional-warming tails (SMARTS-style): the fast-forward records the
#: most recent memory accesses and conditional-branch outcomes before
#: each boundary.  The tails are *config-independent events* — each
#: interval job replays them through its own config's cache hierarchy
#: and branch predictor at boot, so warmed microarchitectural state
#: never breaks the share-one-checkpoint-across-configs property.
TAIL_MEM = 4096
TAIL_BRANCH = 2048


class CheckpointError(ValueError):
    """A checkpoint entry exists but cannot be trusted."""


@dataclass
class Checkpoint:
    """Architectural state at one dynamic-instruction boundary."""

    #: dynamic instruction index this state corresponds to (the first
    #: ``inst_index`` instructions have fully executed)
    inst_index: int
    #: next PC to execute
    pc: int
    #: full logical register file
    regs: List[int]
    #: memory delta against ``program.initial_memory()``
    mem_delta: Dict[int, int] = field(default_factory=dict)
    #: functional-warming tails: recent ``(is_store, addr)`` memory
    #: accesses and ``(pc, taken)`` branch outcomes preceding the
    #: boundary (config-independent; replayed per config at boot)
    mem_tail: List[Tuple[int, int]] = field(default_factory=list)
    branch_tail: List[Tuple[int, int]] = field(default_factory=list)

    @classmethod
    def initial(cls) -> "Checkpoint":
        """The trivial boundary-0 checkpoint (reset state)."""
        return cls(inst_index=0, pc=0, regs=[0] * NUM_LOGICAL_REGS)

    @classmethod
    def capture(cls, program: "Program", inst_index: int, pc: int,
                regs: List[int], memory: Dict[int, int],
                mem_tail: Iterable[Tuple[int, int]] = (),
                branch_tail: Iterable[Tuple[int, int]] = ()
                ) -> "Checkpoint":
        """Snapshot interpreter state as a checkpoint (delta-encoded)."""
        init = program.data_init
        absent = object()
        delta = {a: v for a, v in memory.items()
                 if init.get(a, absent) != v}
        return cls(inst_index=inst_index, pc=pc, regs=list(regs),
                   mem_delta=delta, mem_tail=list(mem_tail),
                   branch_tail=list(branch_tail))

    def to_payload(self) -> dict:
        """JSON-serialisable form (memory as sorted [addr, val] pairs)."""
        return {"inst_index": self.inst_index, "pc": self.pc,
                "regs": list(self.regs),
                "mem": [[a, self.mem_delta[a]]
                        for a in sorted(self.mem_delta)],
                "mem_tail": [list(t) for t in self.mem_tail],
                "branch_tail": [list(t) for t in self.branch_tail]}

    @classmethod
    def from_payload(cls, payload: dict) -> "Checkpoint":
        try:
            regs = [int(r) for r in payload["regs"]]
            mem = {int(a): int(v) for a, v in payload["mem"]}
            mem_tail = [(int(s), int(a)) for s, a in payload["mem_tail"]]
            branch_tail = [(int(p), int(t))
                           for p, t in payload["branch_tail"]]
            return cls(inst_index=int(payload["inst_index"]),
                       pc=int(payload["pc"]), regs=regs, mem_delta=mem,
                       mem_tail=mem_tail, branch_tail=branch_tail)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint payload does not deserialise: {exc}") from None


class CheckpointStore(EnvelopeStore):
    """On-disk store of functional checkpoints and sampling plans.

    Shares the result cache's enable switches (``REPRO_CACHE=0`` turns
    it off, in which case every sampled run re-fast-forwards — slower,
    never wrong).  An in-process memo serves repeated reads of one entry
    (many configs x one kernel in a single runner) without re-parsing.
    Counters track this instance's activity: ``fast_forwards``
    (checkpoint-producing functional passes, counted by
    :func:`ensure_checkpoints`) and ``checkpoint_hits`` (interval jobs
    booted from one of its checkpoints, counted by the runner that
    resolved them, whichever process booted them) — the numbers the
    sharing guarantees are asserted on.
    """

    SCHEMA = CHECKPOINT_SCHEMA
    FIELD = "payload"
    NAME = "checkpoint"

    #: entry kind (the envelope's descriptive ``kind``) -> payload reader
    LOADERS = {"checkpoint": Checkpoint.from_payload,
               "plan": SamplingPlan.from_payload}

    def __init__(self, root: Optional[str] = None,
                 enabled: Optional[bool] = None):
        super().__init__(
            root or os.path.join(default_cache_dir(), CHECKPOINT_SUBDIR),
            enabled)
        self.fast_forwards = 0
        self.checkpoint_hits = 0
        self._memo: Dict[str, Any] = {}

    def _load(self, envelope: dict) -> Any:
        loader = self.LOADERS.get(envelope.get("kind"))
        return None if loader is None else loader(envelope["payload"])

    def _lookup(self, key: str) -> Any:
        entry = self._memo.get(key)
        if entry is None and self.enabled:
            entry = self._read(key)
            if entry is not None:
                self._memo[key] = entry
        return entry

    def _store(self, key: str, entry: Any, **fields: object) -> None:
        self._memo[key] = entry
        if self.enabled:
            self._write(key, entry.to_payload(), **fields)

    # -- checkpoints -----------------------------------------------------
    def get(self, fingerprint: str, boundary: int) -> Optional[Checkpoint]:
        if boundary == 0:
            return Checkpoint.initial()
        return self._lookup(checkpoint_key(fingerprint, boundary))

    def put(self, fingerprint: str, ckpt: Checkpoint) -> None:
        self._store(checkpoint_key(fingerprint, ckpt.inst_index), ckpt,
                    kind="checkpoint", program=fingerprint,
                    boundary=ckpt.inst_index)

    # -- derived sampling plans (per program x spec text) ----------------
    def plan_get(self, fingerprint: str,
                 spec_text: str) -> Optional[SamplingPlan]:
        return self._lookup(checkpoint_key(fingerprint, f"plan:{spec_text}"))

    def plan_put(self, fingerprint: str, spec_text: str,
                 plan: SamplingPlan) -> None:
        self._store(checkpoint_key(fingerprint, f"plan:{spec_text}"), plan,
                    kind="plan", program=fingerprint, spec=spec_text)

    def clear(self) -> int:
        self._memo.clear()
        return super().clear()


#: the stores of the runner passes now in flight, newest last.  Module
#: state because a pool job receives only its spec: this is what a
#: forked worker inherits without pickling the store.
_serving: List[CheckpointStore] = []


@contextmanager
def serving(store: CheckpointStore) -> Iterator[CheckpointStore]:
    """Let interval jobs started inside this block boot from ``store``.

    A runner wraps the pass that executes its interval jobs: run in
    process, a job reads the parent's in-memory checkpoints directly;
    forked pool workers inherit the same store with the rest of the
    parent's memory.  Neither re-reads a checkpoint file.  The store is
    reachable only while the block runs, so its memo never outlives
    the runner that owns it.
    """
    _serving.append(store)
    try:
        yield store
    finally:
        _serving.remove(store)


def boot_store() -> CheckpointStore:
    """Where an interval job looks for its checkpoint.

    The newest in-flight runner store; outside a runner pass (or in a
    spawned worker, which inherits no memory) a fresh store over the
    on-disk cache.  Checkpoints are content-addressed, so any store that
    holds one holds the right one.
    """
    return _serving[-1] if _serving else CheckpointStore()


# -- fast-forward producers ---------------------------------------------------

#: feature-pass probe cache: a tiny direct-mapped tag array over the
#: access stream (64-byte lines, 256 sets).  Its miss rate is a purely
#: functional stand-in for data locality — on the registry suite it
#: tracks the detailed model's local CPI with correlation 0.86-0.97,
#: where pc profiles are near-constant and useless.
PROBE_LINE_SHIFT = 6
PROBE_SETS = 256


def feature_pass(program: "Program", granularity: int
                 ) -> Tuple[int, List[Dict[str, int]]]:
    """Full functional pass collecting per-micro-interval features.

    Returns the program's dynamic length and, for every
    ``granularity``-instruction micro-interval (the last may be
    partial), a feature vector ``{loads, stores, branches, taken, miss,
    acc, n}`` — instruction-mix counts, taken-branch count, and the
    probe cache's miss/access counts.  Raw material for
    :meth:`SamplingPlan.phased`.
    """
    from ..isa import interp
    from ..isa.predecode import predecode
    kind_a = predecode(program).kind
    feats: List[Dict[str, int]] = []
    cur = {"loads": 0, "stores": 0, "branches": 0, "taken": 0,
           "miss": 0, "acc": 0, "n": 0}
    probe: Dict[int, int] = {}
    pending_branch: List[Optional[int]] = [None]

    def hook(hpc: int, _instr, _result, eff_addr) -> None:
        pb = pending_branch[0]
        if pb is not None:
            cur["taken"] += int(hpc != pb + 1)
            pending_branch[0] = None
        k = kind_a[hpc]
        if k == K_LOAD or k == K_STORE:
            cur["loads" if k == K_LOAD else "stores"] += 1
            line = eff_addr >> PROBE_LINE_SHIFT
            idx = line & (PROBE_SETS - 1)
            cur["acc"] += 1
            if probe.get(idx) != line:
                cur["miss"] += 1
                probe[idx] = line
        elif k == K_BRANCH:
            cur["branches"] += 1
            pending_branch[0] = hpc
        cur["n"] += 1
        if cur["n"] == granularity:
            feats.append(dict(cur))
            for name in cur:
                cur[name] = 0

    res = interp.run(program, trace_hook=hook)
    if cur["n"]:
        feats.append(dict(cur))
    return res.steps, feats


def ensure_checkpoints(program: "Program", boundaries: Iterable[int],
                       store: CheckpointStore) -> Dict[int, Checkpoint]:
    """Make every boundary's checkpoint available; at most ONE pass.

    Boundaries already in the store are reused; the missing ones are
    produced by a single resumable functional fast-forward that starts
    from the best available checkpoint at or below the first gap.  A
    fully warm store performs zero functional execution — this is the
    property that lets a whole policy/config sweep share one
    fast-forward.
    """
    fp = program_fingerprint(program)
    have: Dict[int, Checkpoint] = {}
    missing: List[int] = []
    for b in sorted(set(int(b) for b in boundaries)):
        if b < 0:
            raise ValueError(f"negative checkpoint boundary {b}")
        ckpt = store.get(fp, b)
        if ckpt is not None:
            have[b] = ckpt
        else:
            missing.append(b)
    if not missing:
        return have
    from ..isa import interp
    from ..isa.predecode import predecode
    store.fast_forwards += 1
    start = max((b for b in have if b <= missing[0]), default=0)
    state = have.get(start) or Checkpoint.initial()
    regs = list(state.regs)
    memory = program.initial_memory()
    memory.update(state.mem_delta)
    pc = state.pc
    done = start
    # Functional-warming tails, seeded from the resume checkpoint's own
    # (events older than the tail window are forgotten either way, so
    # resuming mid-stream loses nothing).
    mem_tail: deque = deque(state.mem_tail, maxlen=TAIL_MEM)
    branch_tail: deque = deque(state.branch_tail, maxlen=TAIL_BRANCH)
    kind_a = predecode(program).kind
    pending_branch: List[Optional[int]] = [None]

    def hook(hpc: int, _instr, _result, eff_addr) -> None:
        pb = pending_branch[0]
        if pb is not None:
            # The previous instruction was a conditional branch; this
            # instruction's pc reveals whether it was taken.
            branch_tail.append((pb, int(hpc != pb + 1)))
            pending_branch[0] = None
        k = kind_a[hpc]
        if k == K_LOAD:
            mem_tail.append((0, eff_addr))
        elif k == K_STORE:
            mem_tail.append((1, eff_addr))
        elif k == K_BRANCH:
            pending_branch[0] = hpc

    for b in missing:
        res = interp.run(program, max_steps=b - done, regs=regs,
                         memory=memory, start_pc=pc, allow_partial=True,
                         trace_hook=hook)
        done += res.steps
        pc = res.pc
        if res.halted or done != b:
            raise CheckpointError(
                f"program {program.name!r} ended after {done} "
                f"instructions, before checkpoint boundary {b} — was the "
                f"plan derived from a different program?")
        ckpt = Checkpoint.capture(program, b, pc, regs, memory,
                                  mem_tail, branch_tail)
        store.put(fp, ckpt)
        have[b] = ckpt
    return have
