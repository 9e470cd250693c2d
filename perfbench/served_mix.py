"""served-mix: a ``repro serve`` daemon under a closed loop of clients.

The daemon runs on an isolated cache and journal, binds a free port and
simulates in its own process (``--jobs 1``).  One client in this process
submits a request, polls its status until it is terminal, fetches the
result, and only then sends the next request (a closed loop).  One
client keeps the load to the daemon plus an idle client, so the timings
measure the daemon rather than the host's scheduler, and every trial
takes the same path through the queue whatever the machine's speed.  A
trial is a fixed list of requests derived from the workload seed and the
trial number, 120 jobs in all:

* 24 (20%) are new keys at scale 0.1, one per (kernel, config) pair
  (writes: a simulation, a cache put and journal fsyncs); six of them
  are submitted twice in one request, and the second copy coalesces
  onto the first while it is in flight (5%),
* the other 90 (75%) repeat a key from the pre-warmed set (reads: memo
  hits).

Each job is classed hit or miss by the ``source`` the server returns.
After the trials every served result is compared with a local exact
run of the same spec.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import replace
from typing import List, Optional, Sequence

from common import digest_lines, quantile, stop_process
from tracing import Tracer, layer_metrics

SCALE = 0.1
#: a trial has one new key per (kernel, config) pair of the hot set
#: (24), so a fifth of its jobs are writes
JOBS_PER_TRIAL = 120
#: new keys submitted twice in one request (the copy coalesces)
DUPLICATES = 6
#: status polls back off from 1 ms to this cap
POLL_CAP_S = 0.008
HIT_SOURCES = ("memo", "disk", "coalesced")


def hot_specs(seed: int):
    from repro.serve.protocol import JobSpec
    from repro.uarch.config import ProcessorConfig, ci
    from repro.workloads import kernel_names
    return [JobSpec(k, SCALE, seed, cfg) for k in kernel_names()
            for cfg in (ProcessorConfig(), ci(1, 512))]


def trial_requests(seed: int, trial: int, hot) -> List[tuple]:
    """The requests of one trial, each a tuple of one or two specs: a
    pure function of (seed, trial).

    Stratified, so trials cost alike: one new key per (kernel, config)
    pair, ``DUPLICATES`` of them sent as a pair of identical specs, and
    pre-warmed keys for the rest, in shuffled order.
    """
    from repro.serve.protocol import JobSpec
    rng = random.Random(f"served-mix:{seed}:{trial}")
    pairs = [(h.kernel, h.cfg) for h in hot]
    fresh = iter(rng.sample(pairs, len(pairs)))
    slots = (["pair"] * DUPLICATES + ["new"] * (len(pairs) - DUPLICATES)
             + ["hot"] * (JOBS_PER_TRIAL - len(pairs) - DUPLICATES))
    rng.shuffle(slots)
    requests = []
    for i, slot in enumerate(slots):
        if slot == "hot":
            requests.append((rng.choice(hot),))
            continue
        kernel, cfg = next(fresh)
        # kernel seeds far from the hot set's: always a new key
        spec = JobSpec(kernel, SCALE, 1_000_000 * seed + 1000 * trial + i,
                       cfg)
        requests.append((spec, spec) if slot == "pair" else (spec,))
    return requests


def trial_specs(seed: int, trial: int, hot) -> list:
    return [s for req in trial_requests(seed, trial, hot) for s in req]


class Outcome:
    __slots__ = ("spec", "source", "latency", "stats", "error", "requests")

    def __init__(self, spec, source="failed", latency=0.0, stats=None,
                 error="", requests=0):
        self.spec = spec
        self.source = source
        self.latency = latency
        self.stats = stats
        self.error = error
        self.requests = requests

    @property
    def ok(self) -> bool:
        return self.stats is not None


def one_request(client, specs: Sequence) -> List[Outcome]:
    """Submit, poll each job until terminal, fetch: one closed-loop
    iteration.  A job's latency runs from the submit to its result."""
    t0 = time.perf_counter()
    decisions = client.submit(list(specs))
    outcomes = []
    for spec, decision in zip(specs, decisions):
        requests = 1 if not outcomes else 0
        if not decision.get("accepted"):
            outcomes.append(Outcome(
                spec, error=f"refused: {decision.get('error')}",
                requests=requests))
            continue
        job_id = str(decision["id"])
        delay = 0.001
        while True:
            status = client.status(job_id)
            requests += 1
            if status.terminal:
                break
            time.sleep(delay)
            delay = min(delay * 2, POLL_CAP_S)
        status, stats = client.result(job_id)
        requests += 1
        latency = time.perf_counter() - t0
        if stats is None:
            outcomes.append(Outcome(spec, status.source or "failed",
                                    latency,
                                    error=f"{status.state}: {status.error}",
                                    requests=requests))
        else:
            outcomes.append(Outcome(spec, status.source, latency, stats,
                                    requests=requests))
    return outcomes


def drive(addr: str, requests: Sequence[tuple]) -> tuple:
    """Send ``requests`` one after another from one client; returns
    (wall seconds, outcomes in job order)."""
    from repro.serve.client import ServeClient, ServeError
    client = ServeClient(addr, timeout=60.0, reconnect_tries=1)
    outcomes: List[Outcome] = []
    t0 = time.perf_counter()
    for req in requests:
        specs = [replace(s, client="bench") for s in req]
        try:
            outcomes.extend(one_request(client, specs))
        except (ServeError, OSError) as exc:
            outcomes.extend(Outcome(s, error=repr(exc)) for s in specs)
    return time.perf_counter() - t0, outcomes


def prewarm(addr: str, hot) -> List[Outcome]:
    """Simulate the hot key set once (untimed)."""
    return drive(addr, [(h,) for h in hot])[1]


# -- the daemon ---------------------------------------------------------------

def start_daemon(bench) -> tuple:
    """``repro serve`` on a free port with a fresh cache and journal;
    returns (process, address, seconds until /healthz said ok, journal
    path)."""
    from repro.serve.client import ServeClient, ServeError
    root = bench.fresh_dir("serve")
    env = bench.subprocess_env()
    env["REPRO_CACHE_DIR"] = os.path.join(root, "cache")
    log_path = os.path.join(root, "serve.log")
    journal = os.path.join(root, "journal.jsonl")
    t0 = time.perf_counter()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--jobs", "1", "--journal", journal],
            env=env, cwd=root, stdout=subprocess.DEVNULL, stderr=log)
    bench.procs.append(proc)
    addr = None
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and proc.poll() is None:
        if addr is None:
            with open(log_path) as fh:
                m = re.search(r"listening on http://([\d.]+:\d+)", fh.read())
            if m:
                addr = m.group(1)
        if addr is not None:
            try:
                probe = ServeClient(addr, timeout=5.0, reconnect_tries=0)
                if probe.health().get("status") == "ok":
                    return proc, addr, time.perf_counter() - t0, journal
            except ServeError:
                pass
        time.sleep(0.005)
    with open(log_path) as fh:
        raise RuntimeError(f"repro serve did not become healthy:\n"
                           f"{fh.read()[-2000:]}")


class InProcessServer:
    """A ``ServeServer`` on its own event-loop thread in this process,
    so the traced run sees the cache and simulator calls it makes."""

    def __init__(self, bench) -> None:
        self.root = bench.fresh_dir("serve-inproc")
        self.journal = os.path.join(self.root, "journal.jsonl")
        self.loop = asyncio.new_event_loop()
        self.ready = threading.Event()
        self.server = None
        self.error: Optional[BaseException] = None
        self.thread = threading.Thread(target=self._main)

    def _main(self) -> None:
        try:
            self.loop.run_until_complete(self._serve())
        except Exception as exc:  # reported by start()
            self.error = exc
            self.ready.set()
        finally:
            self.loop.close()

    async def _serve(self) -> None:
        from repro.runtime.cache import ResultCache
        from repro.serve.server import ServeServer
        self.server = ServeServer(
            host="127.0.0.1", port=0, jobs=1, journal=self.journal,
            cache=ResultCache(root=os.path.join(self.root, "cache"),
                              enabled=True))
        await self.server.start()
        self.ready.set()
        await self.server.wait_stopped()

    def start(self) -> str:
        self.thread.start()
        self.ready.wait(timeout=60)
        if self.error is not None or self.server is None:
            raise RuntimeError(f"in-process server failed: {self.error!r}")
        host, port = self.server.address
        return f"{host}:{port}"

    def stop(self) -> None:
        if self.server is not None and self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.server.request_shutdown)
            self.thread.join(timeout=60)


def journal_records(path: str) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh)


# -- checks -------------------------------------------------------------------

def check_outcomes(bench, outcomes: List[Outcome], hot, first_trial):
    """Served stats against local exact runs; digest and counts."""
    from repro.isa import interp
    from repro.runtime.cache import ResultCache
    from repro.runtime.keys import cached_program, run_key, stats_digest
    from repro.runtime.parallel import FailedResult, ParallelRunner
    bench.attempted += len(outcomes)
    failed = [o for o in outcomes if not o.ok]
    bench.failed += len(failed)
    bench.check("every served job completed", not failed,
                "; ".join(f"{o.spec.describe()}: {o.error}"
                          for o in failed[:3]))
    served = {}
    for o in outcomes:
        if o.ok:
            served.setdefault(run_key(o.spec), []).append(o)
    keys = list(served)
    specs = [served[k][0].spec for k in keys]
    local = ParallelRunner(SCALE, bench.seed, jobs=bench.workers,
                           keep_going=True,
                           cache=ResultCache(root=bench.fresh_dir("local"),
                                             enabled=False))
    refs = dict(zip(keys, local.run_many(specs)))
    mismatched = []
    for key, group in served.items():
        ref = refs[key]
        want = None if isinstance(ref, FailedResult) \
            else stats_digest(ref.to_dict())
        for o in group:
            if stats_digest(o.stats) != want:
                mismatched.append(o)
    bench.failed += len(mismatched)
    bench.check("every served result's stats_digest equals a local exact "
                "run", not mismatched,
                "; ".join(o.spec.describe() for o in mismatched[:3]))
    bad = []
    for key, spec in zip(keys, specs):
        ref = refs[key]
        if isinstance(ref, FailedResult):
            continue
        steps = interp.run(cached_program(spec.kernel, spec.scale,
                                          spec.seed)).steps
        if ref.committed != steps:
            bad.append(f"{spec.describe()}: {ref.committed} != {steps}")
    bench.check("every exact result commits the interpreter's step count",
                not bad, "; ".join(bad[:3]))
    bench.failed += len(bad)
    # digest + counts over the hot set and the first trial: the same
    # work whatever the number of trials this machine fits in a run
    first = {run_key(s) for s in list(hot) + list(first_trial)}
    lines = [f"{k} {stats_digest(served[k][0].stats)}" for k in first
             if k in served]
    sims = [refs[k] for k in first if k in refs
            and not isinstance(refs[k], FailedResult)]
    bench.record_digest(digest_lines(lines), {
        "distinct_keys": len(first),
        "uarch.cycles": sum(st.cycles for st in sims),
        "uarch.committed": sum(st.committed for st in sims)})


def latency_line(name: str, values: List[float]) -> str:
    if not values:
        return f"{name}: no samples"
    ms = [v * 1000 for v in values]
    return (f"{name}_p50_ms = {quantile(ms, 0.5):.3f} ms, {name}_p90_ms = "
            f"{quantile(ms, 0.9):.3f} ms (n={len(ms)})")


def run(bench) -> None:
    from repro.runtime.keys import run_key
    hot = hot_specs(bench.seed)
    setup = bench.setup_probe(hot)
    tracer = Tracer()
    with tracer.active() if bench.trace else contextlib.nullcontext():
        for spec in hot:   # as setup_probe does
            run_key(spec)
    if bench.trace:
        run_traced(bench, hot, tracer)
        return
    from repro.serve.client import ServeClient
    starts = []
    for i in range(3):   # set-up is timed three times; the last stays up
        proc, addr, start_s, journal = start_daemon(bench)
        starts.append(start_s)
        if i < 2:
            stop_process(proc)
            bench.procs.remove(proc)
    warm = prewarm(addr, hot)
    trials = bench.repeat(
        lambda t: drive(addr, trial_requests(bench.seed, t, hot)),
        lambda trial: trial[0])
    health = ServeClient(addr, timeout=10.0, reconnect_tries=1).health()
    stop_process(proc)
    bench.procs.remove(proc)
    outcomes = [o for _, outs in trials for o in outs]
    check_outcomes(bench, warm + outcomes, hot,
                   trial_specs(bench.seed, 0, hot))
    walls = [wall for wall, _ in trials]
    kcps = [sum(o.stats["cycles"] for o in outs
                if o.ok and o.source == "sim") / wall / 1000
            for wall, outs in trials]
    lat = [o.latency for o in outcomes if o.ok]
    hits = [o.latency for o in outcomes if o.ok and o.source in HIT_SOURCES]
    misses = [o.latency for o in outcomes if o.ok and o.source == "sim"]
    bench.metrics.update({
        "setup_s": quantile(setup, 0.5) + quantile(starts, 0.5),
        "wall_s": quantile(walls, 0.5),
        "sim_kcycles_per_s": quantile(kcps, 0.5),
        "jobs_per_s": quantile([JOBS_PER_TRIAL / w for w in walls], 0.5),
    })
    m = bench.metrics
    sources = {}
    for o in outcomes:
        sources[o.source] = sources.get(o.source, 0) + 1
    bench.line(f"served-mix: {len(trials)} trial(s) x {JOBS_PER_TRIAL} jobs, "
               f"one closed-loop client, daemon with 1 worker, "
               f"scale {SCALE}, seed "
               f"{bench.seed}; sources {json.dumps(sources, sort_keys=True)}")
    bench.line(f"setup_s = {m['setup_s']:.4f} s (import + build: median of "
               f"{len(setup)}; daemon start to /healthz ok: median of "
               f"{len(starts)})")
    bench.line(f"wall_s = {m['wall_s']:.4f} s per trial (median of "
               f"{len(walls)}: {' '.join(f'{w:.3f}' for w in walls)})")
    bench.line(f"sim_kcycles_per_s = {m['sim_kcycles_per_s']:.3f} kcycles/s "
               f"(misses' simulated cycles per trial second)")
    bench.line(f"jobs_per_s = {m['jobs_per_s']:.4f} 1/s")
    bench.line(f"job_latency_mean_ms = {sum(lat) / len(lat) * 1000:.3f} ms"
               f" (n={len(lat)})")
    bench.line(latency_line("job_latency", lat))
    bench.line(latency_line("hit_latency", hits))
    bench.line(latency_line("miss_latency", misses))
    bench.line(f"serve: {sum(o.requests for o in outcomes) / len(outcomes):.2f}"
               f" requests/job; daemon reports sims_run="
               f"{health.get('sims_run')} cache_hits="
               f"{health.get('cache_hits')} coalesced="
               f"{health.get('counters', {}).get('jobs_coalesced')} "
               f"latency p50={health['latency_seconds']['p50'] * 1000:.3f} ms; "
               f"journal records={journal_records(journal)}")


def run_traced(bench, hot, tracer) -> None:
    """The first trial against an in-process server, untraced and then
    traced (each server fresh and pre-warmed)."""
    from repro.serve.client import ServeClient
    requests = trial_requests(bench.seed, 0, hot)
    jobs = trial_specs(bench.seed, 0, hot)
    reps = []
    for traced in (False, True):
        server = InProcessServer(bench)
        try:
            addr = server.start()
            client = ServeClient(addr, timeout=10.0, reconnect_tries=1)
            warm = prewarm(addr, hot)
            before = (client.health(), server.server.executor.totals(),
                      journal_records(server.journal))
            with tracer.active() if traced else contextlib.nullcontext():
                wall, outcomes = drive(addr, requests)
            after = (client.health(), server.server.executor.totals(),
                     journal_records(server.journal))
        finally:
            server.stop()
        reps.append((wall, warm, outcomes, before, after))
    plain = reps[0][0]
    wall, warm, outcomes, before, after = reps[1]
    check_outcomes(bench, warm + outcomes, hot, jobs)
    health = {k: after[0][k] - before[0][k] for k in ("sims_run",
                                                      "cache_hits")}
    totals = {k: after[1][k] - before[1][k] for k in after[1]}
    bench.write_trace(tracer)
    bench.metrics.update(layer_metrics(tracer))
    requests = sum(o.requests for o in outcomes)
    bench.metrics.update({
        "runtime.sims_run": totals["sims_run"],
        "runtime.memo_hits": totals["memo_hits"],
        "runtime.disk_hits": totals["disk_hits"],
        "runtime.pool_restarts": totals["pool_restarts"],
        "runtime.failures": sum(1 for o in outcomes if not o.ok),
        "serve.requests_per_job": requests / len(outcomes),
        "serve.server_latency_p50_ms": after[0]["latency_seconds"]["p50"]
        * 1000,
        "serve.sims_run": health["sims_run"],
        "serve.cache_hits": health["cache_hits"],
        "serve.coalesced": after[0]["counters"]["jobs_coalesced"]
        - before[0]["counters"]["jobs_coalesced"],
        "serve.journal_records": after[2] - before[2],
        "bench.tracing_overhead_pct": (wall - plain) / plain * 100,
    })
    bench.line(f"served-mix traced: in-process server, trial of "
               f"{len(jobs)} jobs: {plain:.3f} s untraced, {wall:.3f} s "
               f"traced")
