#!/usr/bin/env python3
"""The repro benchmark: one command, three workloads.

Run it from the root of a checkout of the repository::

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` runs the same work in-process with spans around every
layer's public entry points and prints the per-layer metrics instead.
Every run checks the simulator's outputs, prints a human-readable report
(every metric with its unit and sample count, each check's verdict and
the digest of all simulated statistics) and ends with one JSON line::

    {"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}

All state (result cache, checkpoint store, serve journal, temporary
files) lives under ``.bench_run/`` in the checkout and is deleted when
the run ends, except ``.bench_run/digests/``: the digest and the
deterministic counts of each (workload, seed), which every later run of
the same checkout must reproduce exactly.  See ``perfbench/README.md``
for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from common import stop_process

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".bench_run")

WORKLOADS = ("exact-sweep", "sampled-fullscale", "served-mix")
#: the workload seed claims are tuned on, and the held-out seed on which
#: every later claim must also hold
DEFAULT_SEED = 1
HELDOUT_SEED = 7

#: end-to-end metrics, printed (and gated) on every workload
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_kcycles_per_s": "kcycles/s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics of the traced run (0 where a workload skips a layer)
LAYER_UNITS = {
    "workloads.build_s": "s", "workloads.builds": "count",
    "isa.predecode_s": "s",
    "isa.interp_s": "s", "isa.interp_steps": "count",
    "uarch.run_s": "s", "uarch.us_per_kcycle": "us",
    "uarch.cycles": "count", "uarch.committed": "count",
    "uarch.skipped_cycle_ratio": "ratio",
    "ci.hook_s": "s", "ci.on_dispatch_s": "s", "ci.on_cycle_s": "s",
    "ci.hook_calls": "count", "ci.skip_vetoes": "count",
    "ci.replica_useful_ratio": "ratio", "ci.reuse_fraction": "ratio",
    "runtime.run_many_s": "s", "runtime.pool_efficiency": "ratio",
    "runtime.sims_run": "count", "runtime.memo_hits": "count",
    "runtime.disk_hits": "count", "runtime.pool_restarts": "count",
    "runtime.failures": "count",
    "runtime.cache_get_s": "s", "runtime.cache_put_s": "s",
    "sampling.plan_s": "s", "sampling.fast_forward_s": "s",
    "sampling.fast_forwards": "count", "sampling.checkpoint_hits": "count",
    "sampling.interval_s": "s", "sampling.intervals": "count",
    "sampling.detailed_fraction": "ratio",
    "sampling.ipc_err_pct_median": "%", "sampling.ipc_err_pct_max": "%",
    "sampling.ci_coverage": "ratio",
    "serve.submit_ms_p50": "ms", "serve.status_ms_p50": "ms",
    "serve.requests_per_job": "count",
    "serve.server_latency_p50_ms": "ms", "serve.sims_run": "count",
    "serve.cache_hits": "count", "serve.coalesced": "count",
    "serve.journal_records": "count",
    "bench.tracing_overhead_pct": "%",
}

#: environment knobs that change how repro runs; a benchmark run must not
#: inherit them from the caller's shell
SCRUBBED_ENV = ("REPRO_FAULTS", "REPRO_CHECK", "REPRO_OBSERVE",
                "REPRO_CACHE", "REPRO_SKIP", "REPRO_KEEP_GOING",
                "REPRO_TIMEOUT", "REPRO_RETRIES", "REPRO_JOBS",
                "REPRO_CACHE_DIR", "PYTHONPATH")


class Bench:
    """One benchmark run: arguments, isolated state, report, cleanup."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        try:
            usable = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            usable = os.cpu_count() or 1
        #: pool workers and client threads: at most nproc, at most 4
        self.workers = max(1, min(usable, 4))
        self.root = os.path.join(
            STATE, f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}")
        self._dirs = 0
        self.procs: List[subprocess.Popen] = []
        self.attempted = 0
        self.failed = 0
        self.checks: List[tuple] = []
        self.report: List[str] = []
        self.digest_line = ""
        self.metrics: Dict[str, float] = {}

    # -- state -----------------------------------------------------------
    def open(self) -> None:
        os.makedirs(os.path.join(self.root, "tmp"))
        os.environ["TMPDIR"] = os.path.join(self.root, "tmp")
        os.environ["REPRO_CACHE_DIR"] = self.fresh_dir("default-cache")

    def fresh_dir(self, tag: str) -> str:
        """A new empty directory under this run's root."""
        self._dirs += 1
        path = os.path.join(self.root, f"{self._dirs:03d}-{tag}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        for proc in self.procs:
            stop_process(proc)
        self.procs.clear()
        shutil.rmtree(self.root, ignore_errors=True)

    def subprocess_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        return env

    # -- measurement helpers ---------------------------------------------
    def setup_probe(self, specs, repeats: int = 5) -> List[float]:
        """Wall seconds of fresh interpreters that import repro and
        derive every spec's run key (building and predecoding each
        program) — what any command pays before its first simulation."""
        from repro.runtime.spec import RunSpec
        payload = json.dumps([RunSpec.to_dict(s) for s in specs])
        code = ("import sys, json\n"
                "from repro.runtime.spec import RunSpec\n"
                "from repro.runtime.keys import run_key\n"
                "for d in json.loads(sys.stdin.read()):\n"
                "    run_key(RunSpec.from_dict(d))\n")
        walls = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            # no timeout: with one, Popen.wait polls in sleeps of up to
            # 50 ms, which would quantise the measurement
            subprocess.run([sys.executable, "-c", code], input=payload,
                           text=True, check=True,
                           env=self.subprocess_env(), cwd=self.root)
            walls.append(time.perf_counter() - t0)
        return walls

    def repeat(self, fn: Callable[[int], object],
               duration: Callable[[object], float],
               budget: Optional[float] = None,
               max_reps: int = 50) -> List[object]:
        """Call ``fn(i)`` until the next call would overrun ``budget``
        seconds (default ``seconds``; always at least once)."""
        budget = self.seconds if budget is None else budget
        reps: List[object] = []
        start = time.perf_counter()
        while len(reps) < max_reps:
            reps.append(fn(len(reps)))
            elapsed = time.perf_counter() - start
            typical = statistics.median(duration(r) for r in reps)
            if elapsed + typical > budget:
                break
        return reps

    # -- verdicts --------------------------------------------------------
    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def line(self, text: str) -> None:
        self.report.append(text)

    def record_digest(self, digest: str, counts: Dict[str, int]) -> None:
        """Print the digest and counts and require them to repeat.

        The first run of a (workload, seed) in a checkout records them;
        every later run — traced or not — must match exactly."""
        self.digest_line = (f"digest {digest}  counts " + " ".join(
            f"{k}={v}" for k, v in sorted(counts.items())))
        path = os.path.join(STATE, "digests",
                            f"{self.workload}-s{self.seed}.json")
        record = {"digest": digest, "counts": counts}
        try:
            with open(path) as fh:
                previous = json.load(fh)
        except (OSError, ValueError):
            previous = None
        if previous is None:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = path + f".{os.getpid()}.tmp"
            with open(tmp, "w") as fh:
                json.dump(record, fh, sort_keys=True)
            os.replace(tmp, path)
            self.check("digest recorded for this seed", True, path)
        else:
            self.check("digest and counts repeat earlier runs",
                       previous == record,
                       f"earlier {previous}, now {record}"
                       if previous != record else "")

    def write_trace(self, tracer) -> None:
        path = os.path.join(STATE, "traces",
                            f"{self.workload}-s{self.seed}.jsonl")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tracer.write(path)
        self.line(f"trace: {len(tracer.spans)} spans written to "
                  f"{os.path.relpath(path, ROOT)}")

    def peak_rss_mb(self) -> float:
        """This process's peak RSS plus the largest peak of any process
        it started and reaped (pool workers, probes, the daemon)."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (own + kids) / 1024.0


def print_result(bench: Bench, names: Dict[str, str]) -> None:
    for text in bench.report:
        print(text)
    print(bench.digest_line)
    if names is LAYER_UNITS:
        for name, unit in names.items():
            print(f"{name} = {bench.metrics[name]:.6g} {unit}")
    for name, ok, detail in bench.checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}"
              + (f" — {detail}" if detail and not ok else ""))
    correct = bench.failed == 0 and all(ok for _, ok, _ in bench.checks)
    rate = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"error_rate = {rate:.4f} ({bench.failed} failed of "
          f"{bench.attempted} attempted)")
    print(f"verdict: {'CORRECT' if correct else 'INCORRECT'}")
    metrics = {}
    for name, unit in names.items():
        metrics[name] = {"value": bench.metrics[name], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from the root "
              f"of a repository checkout", file=sys.stderr)
        return 2
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)

    def terminate(signum, _frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, terminate)

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.workload == "exact-sweep":
        from exact_sweep import run
    elif args.workload == "sampled-fullscale":
        from sampled_fullscale import run
    else:
        from served_mix import run
    bench.open()
    try:
        run(bench)
    finally:
        bench.close()
    if args.trace:
        names = LAYER_UNITS
        for name in names:   # a layer the workload never enters
            bench.metrics.setdefault(name, 0.0)
    else:
        bench.metrics["peak_rss_mb"] = bench.peak_rss_mb()
        bench.line(f"peak_rss_mb = {bench.metrics['peak_rss_mb']:.3f} MB")
        names = E2E_UNITS
    missing = [n for n in names if n not in bench.metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    print_result(bench, names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
