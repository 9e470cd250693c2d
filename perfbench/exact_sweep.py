"""exact-sweep: a cold exact sweep, what ``repro suite``/``figure`` cost.

All 12 kernels x {``scal(1,256)``, ``ci(1,512)``} at scale 0.5, resolved
by one ``ParallelRunner.run_many`` over ``bench.workers`` pool workers
with an empty result cache per repetition.  The ``scal`` half attaches
no mechanism: it is the control for changes to ``ci``.
"""

from __future__ import annotations

import contextlib
import time

from common import (Rep, digest_lines, repeat_probed, sweep_metrics,
                    traced_triple)
from tracing import Tracer, layer_metrics

SCALE = 0.5


def specs_for(seed: int):
    from repro.runtime.spec import RunSpec
    from repro.uarch.config import ci, scal
    from repro.workloads import kernel_names
    return [RunSpec(k, SCALE, seed, cfg) for k in kernel_names()
            for cfg in (scal(1, 256), ci(1, 512))]


def sweep(bench, specs, jobs: int) -> Rep:
    from repro.runtime.cache import ResultCache
    from repro.runtime.parallel import ParallelRunner
    cache = ResultCache(root=bench.fresh_dir("cache"), enabled=True)
    runner = ParallelRunner(SCALE, bench.seed, jobs=jobs, cache=cache,
                            keep_going=True)
    t0 = time.perf_counter()
    results = runner.run_many(specs)
    return Rep(time.perf_counter() - t0, results, runner)


def digest_of(specs, results) -> str:
    from repro.runtime.keys import run_key, stats_digest
    return digest_lines([f"{run_key(s)} {stats_digest(st.to_dict())}"
                         for s, st in zip(specs, results)])


def check_results(bench, specs, reps) -> None:
    """Failures, interpreter agreement and repeatability of every rep."""
    from repro.isa import interp
    from repro.runtime.keys import cached_program
    from repro.runtime.parallel import FailedResult
    steps = {}
    bad_commit = []
    for rep in reps:
        bench.attempted += len(specs)
        for spec, st in zip(specs, rep.results):
            if isinstance(st, FailedResult):
                bench.failed += 1
                continue
            point = (spec.kernel, spec.scale, spec.seed)
            if point not in steps:
                steps[point] = interp.run(cached_program(*point)).steps
            if st.committed != steps[point]:
                bench.failed += 1
                bad_commit.append(f"{spec.describe()}: committed "
                                  f"{st.committed} != interp "
                                  f"{steps[point]}")
    bench.check("every exact result commits the interpreter's step count",
                not bad_commit, "; ".join(bad_commit[:3]))
    digests = {digest_of(specs, rep.results) for rep in reps}
    bench.check("every repetition simulates identical statistics",
                len(digests) == 1, f"{len(digests)} distinct digests")
    results = reps[0].results
    bench.record_digest(digest_of(specs, results), {
        "jobs": len(specs),
        "uarch.cycles": sum(st.cycles for st in results),
        "uarch.committed": sum(st.committed for st in results)})


def run(bench) -> None:
    from repro.runtime.keys import run_key
    specs = specs_for(bench.seed)
    tracer = Tracer()
    with tracer.active() if bench.trace else contextlib.nullcontext():
        for spec in specs:   # build + predecode once, as a set-up probe does
            run_key(spec)
    if bench.trace:
        run_traced(bench, specs, tracer)
        return
    reps, setup = repeat_probed(
        bench, specs, lambda _i: sweep(bench, specs, bench.workers))
    check_results(bench, specs, reps)
    bench.line(f"exact-sweep: {len(specs)} jobs x {len(reps)} cold "
               f"repetition(s), {bench.workers} worker(s), scale {SCALE}, "
               f"seed {bench.seed}")
    sweep_metrics(bench, setup, [rep.wall for rep in reps],
                  sum(st.cycles for st in reps[0].results), len(specs))


def run_traced(bench, specs, tracer) -> None:
    reps = traced_triple(bench, tracer,
                         lambda jobs: sweep(bench, specs, jobs))
    check_results(bench, specs, reps)
    bench.check("traced cycle count equals the results' cycles",
                tracer.counts["uarch.cycles"]
                == sum(st.cycles for st in reps[1].results))
    bench.write_trace(tracer)
    bench.metrics.update(layer_metrics(tracer))
