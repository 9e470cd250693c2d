"""Spans around the public calls into each repro layer.

The traced run patches a handful of public entry points for the
duration of one measured repetition and records a span per call:
name, start, end, parent span and thread.  Spans stay in memory and are
written out once, when the benchmark ends.  A layer's self time is the
summed duration of its spans minus the part covered by child spans.

The mechanism hooks run once per dispatched instruction or per cycle,
so they are not recorded one span per call.  A timing proxy around the
``MechanismPipeline`` adds up calls and seconds per hook method, and the
enclosing ``Core.run`` span counts that time as its child time.

Nothing under ``src/`` changes: every patch is undone on exit.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: the hook methods the proxy times (MechanismHooks' per-event surface)
HOOK_METHODS = ("on_dispatch", "on_branch_resolved", "on_recovery",
                "on_commit", "on_store_commit", "dispatch_gate",
                "on_cycle", "next_event_cycle", "validated_extra_latency")


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end",
                 "child_s")

    def __init__(self, sid: int, name: str, parent: Optional[int],
                 thread: int):
        self.id = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "thread": self.thread, "start": self.start,
                "end": self.end, "self_s": self.self_s}


class Tracer:
    """Span store plus counters; ``install()`` patches the entry points
    and ``uninstall()`` restores them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.hooks: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0
        self._undo: List[tuple] = []
        #: entry points this tree lacks (left untraced)
        self.missing: List[str] = []

    # -- spans -----------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``before(args)`` returns a token that
        ``after(token, args, result, span)`` turns into counters."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            with tracer._lock:
                tracer._ids += 1
                sid = tracer._ids
            span = Span(sid, name, parent.id if parent else None,
                        threading.get_ident())
            token = before(args) if before is not None else None
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                tracer.spans.append(span)
            if after is not None:
                after(token, args, result, span)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _everywhere(self, original: Callable, wrapper: Callable) -> None:
        """Rebind ``original`` in every loaded repro module (names
        imported with ``from x import f`` are copies of the binding)."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _replace(self, path: str, factory: Callable) -> None:
        """Replace the function ``module:name`` (in every module that
        bound it) or the method ``module:Class.name`` with
        ``factory(original)``; an entry point this tree lacks is noted
        in ``missing`` and left untraced."""
        modname, _, qualname = path.partition(":")
        *outer, attr = qualname.split(".")
        try:
            owner = importlib.import_module(modname)
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(path)
            return
        if isinstance(owner, type):
            self._set(owner, attr, factory(original))
        else:
            self._everywhere(original, factory(original))

    def _span(self, path: str, name: str, before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> None:
        self._replace(path, lambda fn: self.wrap(name, fn, before, after))

    def _counted(self, counter: str) -> Callable:
        return lambda _token, _args, _result, _span: self.count(counter)

    def install(self) -> None:
        self.missing = []
        self._span("repro.workloads:build_program", "workloads.build",
                   after=self._counted("workloads.builds"))
        self._span("repro.isa.predecode:predecode", "isa.predecode")
        self._span("repro.isa.interp:run", "isa.interp",
                   after=lambda _t, _a, result, _s: self.count(
                       "isa.interp_steps", result.steps))

        # -- uarch + ci ----------------------------------------------------
        fields = ("committed", "skipped_cycles", "replicas_executed",
                  "replica_validations", "committed_reused")

        def run_before(args):
            core = args[0]
            hooks = core.hooks
            hook_s = hooks.hook_s if isinstance(hooks, TimedHooks) else 0.0
            return (core.cycle, [getattr(core.stats, f) for f in fields],
                    hook_s)

        def run_after(token, args, _result, span):
            core = args[0]
            cycle0, before, hook_s0 = token
            delta = {f: getattr(core.stats, f) - b
                     for f, b in zip(fields, before)}
            self.count("uarch.cycles", core.cycle - cycle0)
            self.count("uarch.committed", delta["committed"])
            self.count("uarch.skipped_cycles", delta["skipped_cycles"])
            hooks = core.hooks
            if isinstance(hooks, TimedHooks):
                span.child_s += hooks.hook_s - hook_s0
                self.count("ci.committed", delta["committed"])
                for f in fields[2:]:
                    self.count(f"ci.{f}", delta[f])
        self._span("repro.uarch.core:Core.run", "uarch.run",
                   before=run_before, after=run_after)

        def timed_hooks_for(original):
            def hooks_for(cfg):
                inner = original(cfg)
                return None if inner is None else TimedHooks(inner, self)
            return hooks_for
        self._replace("repro:hooks_for", timed_hooks_for)

        # -- runtime -------------------------------------------------------
        self._span("repro.runtime.parallel:ParallelRunner.run_many",
                   "runtime.run_many")
        self._span("repro.runtime.cache:ResultCache.get",
                   "runtime.cache_get")
        self._span("repro.runtime.cache:ResultCache.put",
                   "runtime.cache_put")

        # -- sampling ------------------------------------------------------
        def plan_after(_token, _args, plan, _span):
            self.count("sampling.plan_total", plan.total)
            self.count("sampling.plan_detailed", plan.detailed_instructions)
        self._span("repro.sampling.executor:plan_for", "sampling.plan",
                   after=plan_after)

        def ff_after(token, args, _result, _span):
            self.count("sampling.fast_forwards",
                       args[2].fast_forwards - token)
        self._span("repro.sampling.checkpoint:ensure_checkpoints",
                   "sampling.fast_forward",
                   before=lambda args: args[2].fast_forwards,
                   after=ff_after)
        self._span("repro.sampling.executor:run_interval",
                   "sampling.interval",
                   after=self._counted("sampling.intervals"))

        def counted_get(original):
            def get(store, fingerprint, boundary):
                ckpt = original(store, fingerprint, boundary)
                if ckpt is not None and boundary:
                    self.count("sampling.checkpoint_hits")
                return ckpt
            return get
        self._replace("repro.sampling.checkpoint:CheckpointStore.get",
                      counted_get)

        # -- serve (client side) -------------------------------------------
        for method in ("submit", "status", "result"):
            self._span(f"repro.serve.client:ServeClient.{method}",
                       f"serve.{method}")
        if self.missing:
            print(f"warning: untraced (not in this tree): "
                  f"{', '.join(self.missing)}", file=sys.stderr)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def active(self):
        """Spans are recorded inside this block only."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction -------------------------------------------------------
    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def durations_ms(self, name: str) -> List[float]:
        return [(s.end - s.start) * 1000 for s in self.spans
                if s.name == name]

    def p50_ms(self, name: str) -> float:
        values = self.durations_ms(name)
        return statistics.median(values) if values else 0.0

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "hooks": dict(self.hooks)}) + "\n")


class TimedHooks:
    """Timing proxy around one ``MechanismPipeline``.

    Hook methods are bound after ``attach`` (the pipeline rebinds
    ``on_dispatch`` there), so the core calls the timed versions; every
    other attribute is read through to the pipeline.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.hook_s = 0.0

    def attach(self, core) -> None:
        self._inner.attach(core)
        for name in HOOK_METHODS:
            setattr(self, name, self._timed(name, getattr(self._inner,
                                                          name), core))

    def _timed(self, name: str, fn: Callable, core) -> Callable:
        totals = self._tracer.hooks[name]
        tracer = self._tracer
        proxy = self

        if name == "next_event_cycle":
            def timed_next():
                t0 = perf_counter()
                result = fn()
                dt = perf_counter() - t0
                totals[0] += 1
                totals[1] += dt
                proxy.hook_s += dt
                if result is not None and result <= core.cycle:
                    tracer.counts["ci.skip_vetoes"] += 1
                return result
            return timed_next

        def timed(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            totals[0] += 1
            totals[1] += dt
            proxy.hook_s += dt
            return result
        return timed

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The span- and counter-derived per-layer metrics of one traced
    repetition (runtime counters, serve and sampling accuracy figures
    come from the workload itself)."""
    c = tracer.counts
    hooks = tracer.hooks
    cycles = c["uarch.cycles"]
    run_s = tracer.self_s("uarch.run")
    plan_total = c["sampling.plan_total"]
    replicas = c["ci.replicas_executed"]
    return {
        "workloads.build_s": tracer.self_s("workloads.build"),
        "workloads.builds": c["workloads.builds"],
        "isa.predecode_s": tracer.self_s("isa.predecode"),
        "isa.interp_s": tracer.self_s("isa.interp"),
        "isa.interp_steps": c["isa.interp_steps"],
        "uarch.run_s": run_s,
        "uarch.us_per_kcycle": run_s * 1e6 / (cycles / 1000)
        if cycles else 0.0,
        "uarch.cycles": cycles,
        "uarch.committed": c["uarch.committed"],
        "uarch.skipped_cycle_ratio": c["uarch.skipped_cycles"] / cycles
        if cycles else 0.0,
        "ci.hook_s": sum(secs for _, secs in hooks.values()),
        "ci.on_dispatch_s": hooks["on_dispatch"][1],
        "ci.on_cycle_s": hooks["on_cycle"][1],
        "ci.hook_calls": sum(calls for calls, _ in hooks.values()),
        "ci.skip_vetoes": c["ci.skip_vetoes"],
        "ci.replica_useful_ratio": c["ci.replica_validations"] / replicas
        if replicas else 0.0,
        "ci.reuse_fraction": c["ci.committed_reused"] / c["ci.committed"]
        if c["ci.committed"] else 0.0,
        "runtime.run_many_s": tracer.self_s("runtime.run_many"),
        "runtime.cache_get_s": tracer.self_s("runtime.cache_get"),
        "runtime.cache_put_s": tracer.self_s("runtime.cache_put"),
        "sampling.plan_s": tracer.self_s("sampling.plan"),
        "sampling.fast_forward_s": tracer.self_s("sampling.fast_forward"),
        "sampling.fast_forwards": c["sampling.fast_forwards"],
        "sampling.checkpoint_hits": c["sampling.checkpoint_hits"],
        "sampling.interval_s": tracer.self_s("sampling.interval"),
        "sampling.intervals": c["sampling.intervals"],
        "sampling.detailed_fraction": c["sampling.plan_detailed"]
        / plan_total if plan_total else 0.0,
        "serve.submit_ms_p50": tracer.p50_ms("serve.submit"),
        "serve.status_ms_p50": tracer.p50_ms("serve.status"),
    }
