"""Small helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import math
import signal
import subprocess
from typing import Sequence


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def digest_lines(lines: Sequence[str]) -> str:
    """Order-independent digest of a set of result lines."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


def stop_process(proc: subprocess.Popen, grace: float = 20.0) -> None:
    """SIGTERM (the daemon drains), then SIGKILL; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


class Rep:
    """One measured repetition: wall seconds, results, and the runtime
    layer's counters (the runner itself is not kept: its memo and
    checkpoint store would make peak RSS grow with the repetitions)."""

    def __init__(self, wall: float, results, runner):
        self.wall = wall
        self.results = results
        self.counts = {
            "runtime.sims_run": runner.sims_run,
            "runtime.memo_hits": runner.memo_hits,
            "runtime.disk_hits": runner.disk_hits,
            "runtime.failures": len(runner.failures),
            "runtime.pool_restarts": runner.pool_restarts,
        }


def traced_triple(bench, tracer, work):
    """``work(jobs)`` three times: untraced in-process, traced
    in-process, untraced on ``bench.workers`` pool workers.

    The in-process pair gives the tracing overhead; the untraced pair
    gives the pool's efficiency (serial seconds over workers x wall)."""
    serial = work(1)
    with tracer.active():
        traced = work(1)
    pooled = work(bench.workers)
    reps = [serial, traced, pooled]
    bench.metrics.update(traced.counts)
    bench.metrics["runtime.pool_restarts"] = sum(
        r.counts["runtime.pool_restarts"] for r in reps)
    bench.metrics.update({
        "runtime.pool_efficiency": serial.wall
        / (bench.workers * pooled.wall),
        "bench.tracing_overhead_pct": (traced.wall - serial.wall)
        / serial.wall * 100,
    })
    bench.line(f"{bench.workload} traced: in-process {serial.wall:.3f} s "
               f"untraced, {traced.wall:.3f} s traced; {bench.workers} "
               f"worker(s) {pooled.wall:.3f} s untraced")
    return reps


def repeat_probed(bench, specs, fn, budget=None) -> tuple:
    """``bench.repeat(fn)`` over ``Rep``s, with one set-up probe before
    each repetition (at least five in all): set-up time is then sampled
    across the run, as the repetitions are, so a slow phase of the host
    weighs on both alike.  Returns (repetitions, set-up seconds)."""
    setup = []

    def probed(i):
        setup.extend(bench.setup_probe(specs, repeats=1))
        return fn(i)
    reps = bench.repeat(probed, lambda rep: rep.wall, budget=budget)
    if len(setup) < 5:
        setup.extend(bench.setup_probe(specs, repeats=5 - len(setup)))
    return reps, setup


def sweep_metrics(bench, setup, walls, cycles: int, jobs: int,
                  note: str = "") -> float:
    """The gated metrics of a sweep workload, with their report lines;
    returns the median wall time of a repetition."""
    wall = quantile(walls, 0.5)
    bench.metrics.update({
        "setup_s": quantile(setup, 0.5),
        "wall_s": wall,
        "sim_kcycles_per_s": cycles / wall / 1000,
        "jobs_per_s": jobs / wall,
    })
    m = bench.metrics
    bench.line(f"setup_s = {m['setup_s']:.4f} s (median of {len(setup)})")
    bench.line(f"wall_s = {wall:.4f} s ({note}median of {len(walls)}: "
               f"{' '.join(f'{w:.3f}' for w in walls)})")
    bench.line(f"sim_kcycles_per_s = {m['sim_kcycles_per_s']:.3f} "
               f"kcycles/s ({cycles} cycles per repetition)")
    bench.line(f"jobs_per_s = {m['jobs_per_s']:.4f} 1/s ({jobs} jobs per "
               f"repetition)")
    return wall
