"""sampled-fullscale: ``sampling="auto"`` where sampling is meant to pay.

gcc, mcf, gzip and vpr x {default config, ``ci(1,512)``} at scale 2.0,
resolved by ``ParallelRunner.run_many`` with an empty result cache and
an empty checkpoint store per repetition: the first config of each
kernel pays the fast-forward, the second boots from its checkpoints.
The same specs run exactly once per run, after the repetitions and
timed the same way, as the reference for the IPC error, the CI coverage
and the speedup.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import replace

from common import (Rep, digest_lines, quantile, repeat_probed,
                    sweep_metrics, traced_triple)
from tracing import Tracer, layer_metrics

SCALE = 2.0
KERNELS = ("gcc", "mcf", "gzip", "vpr")
#: ROADMAP's acceptance bar for keeping sampling: |IPC error| <= 3%
ERROR_BAR_PCT = 3.0


def specs_for(seed: int):
    from repro.runtime.spec import RunSpec
    from repro.uarch.config import ProcessorConfig, ci
    return [RunSpec(k, SCALE, seed, cfg, sampling="auto") for k in KERNELS
            for cfg in (ProcessorConfig(), ci(1, 512))]


def resolve(bench, specs, jobs: int) -> Rep:
    from repro.runtime.cache import ResultCache
    from repro.runtime.parallel import ParallelRunner
    root = bench.fresh_dir("resolve")
    # the runner's checkpoint store and its pool workers' stores both
    # live under REPRO_CACHE_DIR: a fresh one per repetition
    os.environ["REPRO_CACHE_DIR"] = root
    runner = ParallelRunner(SCALE, bench.seed, jobs=jobs, keep_going=True,
                            cache=ResultCache(root=root, enabled=True))
    t0 = time.perf_counter()
    results = runner.run_many(specs)
    return Rep(time.perf_counter() - t0, results, runner)


def accuracy(sampled, exact) -> dict:
    """|IPC error| against the exact simulator and CI coverage."""
    errs = []
    covered = 0
    for est, ref in zip(sampled, exact):
        errs.append(abs(est.ipc - ref.ipc) / ref.ipc * 100)
        cpi_est = est.cycles / est.committed
        cpi_ref = ref.cycles / ref.committed
        covered += abs(cpi_est - cpi_ref) / cpi_ref <= est.sample_rel_ci
    return {"sampling.ipc_err_pct_median": quantile(errs, 0.5),
            "sampling.ipc_err_pct_max": max(errs),
            "sampling.ci_coverage": covered / len(errs)}


def check_results(bench, specs, exact_specs, reps, exact) -> None:
    from repro.runtime.keys import run_key, stats_digest
    from repro.runtime.parallel import FailedResult
    bad = []
    for rep in reps + [exact]:
        bench.attempted += len(specs)
        for spec, st in zip(specs, rep.results):
            if isinstance(st, FailedResult):
                bench.failed += 1
                bad.append(f"{spec.describe()}: {st.describe()}")
    if bad:
        bench.check("every job produced stats", False, "; ".join(bad[:3]))
        return
    bad = [s.describe() for s, st in zip(specs, reps[0].results)
           if not (st.sampled and math.isfinite(st.ipc) and st.ipc > 0)]
    bench.check("every sampled result is marked sampled with a finite IPC",
                not bad, "; ".join(bad))
    bench.failed += len(bad)
    # a sampled estimate's committed count is the functional
    # interpreter's step count (the fast-forward walked every step)
    bad = [f"{s.describe()}: exact {ref.committed} != interp {est.committed}"
           for s, est, ref in zip(specs, reps[0].results, exact.results)
           if est.committed != ref.committed]
    bench.check("every exact result commits the interpreter's step count",
                not bad, "; ".join(bad))
    bench.failed += len(bad)

    def lines(rep, keyed):
        return [f"{run_key(s)} {stats_digest(st.to_dict())}"
                for s, st in zip(keyed, rep.results)]
    digests = {digest_lines(lines(rep, specs)) for rep in reps}
    bench.check("every repetition estimates identical statistics",
                len(digests) == 1, f"{len(digests)} distinct digests")
    est = reps[0].results
    bench.record_digest(
        digest_lines(lines(reps[0], specs) + lines(exact, exact_specs)), {
            "jobs": len(specs),
            "sampling.intervals": sum(st.sample_intervals for st in est),
            "estimated_cycles": sum(st.cycles for st in est),
            "uarch.committed": sum(st.committed for st in est),
            "exact_cycles": sum(st.cycles for st in exact.results)})


def run(bench) -> None:
    from repro.runtime.keys import run_key
    specs = specs_for(bench.seed)
    exact_specs = [replace(s, sampling=None) for s in specs]
    tracer = Tracer()
    with tracer.active() if bench.trace else contextlib.nullcontext():
        for spec in specs + exact_specs:   # as a set-up probe does
            run_key(spec)
    if bench.trace:
        reps = traced_triple(bench, tracer,
                             lambda jobs: resolve(bench, specs, jobs))
        exact = resolve(bench, exact_specs, bench.workers)
        check_results(bench, specs, exact_specs, reps, exact)
        bench.check("traced interval count equals the results'",
                    tracer.counts["sampling.intervals"]
                    == sum(st.sample_intervals for st in reps[1].results))
        bench.write_trace(tracer)
        bench.metrics.update(layer_metrics(tracer))
        bench.metrics.update(accuracy(reps[1].results, exact.results))
        return
    reps, setup = repeat_probed(
        bench, specs, lambda _i: resolve(bench, specs, bench.workers))
    # after the timed repetitions, so that they get the whole run
    exact = resolve(bench, exact_specs, bench.workers)
    check_results(bench, specs, exact_specs, reps, exact)
    acc = accuracy(reps[0].results, exact.results)
    bench.line(f"sampled-fullscale: {len(specs)} sampled jobs x "
               f"{len(reps)} cold repetition(s), {bench.workers} "
               f"worker(s), scale {SCALE}, seed {bench.seed}")
    # the whole runs' exact cycles, not the estimates': a speed figure
    # must not move when only the estimator's accuracy does
    wall = sweep_metrics(bench, setup, [rep.wall for rep in reps],
                         sum(st.cycles for st in exact.results), len(specs),
                         note="sampled runs only; ")
    bench.line(f"sampled_speedup = {exact.wall / wall:.3f} x (exact "
               f"{exact.wall:.3f} s / sampled {wall:.3f} s, same specs, "
               f"same {bench.workers} worker(s))")
    bench.line(f"ipc_err_pct_median = "
               f"{acc['sampling.ipc_err_pct_median']:.2f} %, "
               f"ipc_err_pct_max = {acc['sampling.ipc_err_pct_max']:.2f} % "
               f"(n={len(specs)}, against the exact simulator)")
    bench.line(f"ci_coverage = {acc['sampling.ci_coverage']:.3f} "
               f"(n={len(specs)})")
    if acc["sampling.ipc_err_pct_median"] > ERROR_BAR_PCT:
        bench.line(f"KNOWN DEFECT: median |IPC error| "
                   f"{acc['sampling.ipc_err_pct_median']:.1f}% is far "
                   f"above the {ERROR_BAR_PCT:.0f}% bar sampling must meet "
                   f"(ROADMAP item 1); reported, not tuned away")
