"""Integration tests: the full mechanism running on the core."""

import pytest

from repro import run_kernel, run_program
from repro.isa import assemble, run as frun
from repro.uarch import ProcessorConfig, ci, scal, wb, with_spec_mem
from repro.uarch.config import INF_REGS
from repro.workloads import all_workloads, build_program

SCALE = 0.4


@pytest.fixture(scope="module")
def results():
    """Simulate a few kernels under each policy once."""
    out = {}
    for name in ("bzip2", "gcc", "mcf", "eon", "vortex"):
        prog = build_program(name, SCALE)
        out[name] = {
            "wb": run_program(prog, wb(1, 512)),
            "ci": run_program(prog, ci(1, 512)),
            "ci-iw": run_program(prog, ci(1, 512, policy="ci-iw")),
            "vect": run_program(prog, ci(1, 512, policy="vect")),
        }
    return out


class TestCorrectness:
    """The mechanism must never change architectural results."""

    @pytest.mark.parametrize("name", [s.name for s in all_workloads()])
    @pytest.mark.parametrize("policy", ["ci", "ci-iw", "vect"])
    def test_commit_count_matches_functional(self, name, policy):
        prog = build_program(name, SCALE)
        st = run_program(prog, ci(1, 512, policy=policy))
        assert st.committed == frun(prog).steps

    @pytest.mark.parametrize("name", [s.name for s in all_workloads()])
    def test_spec_mem_mode_correct(self, name):
        prog = build_program(name, SCALE)
        st = run_program(prog, with_spec_mem(ci(1, 256), 768))
        assert st.committed == frun(prog).steps


class TestMechanismActivity:
    def test_reuse_happens_on_hammock_kernels(self, results):
        for name in ("bzip2", "gcc", "vortex"):
            st = results[name]["ci"]
            assert st.committed_reused > 0, name
            assert st.replicas_created > 0
            assert st.replica_validations >= st.committed_reused

    def test_eon_has_few_ci_events(self, results):
        # Highly biased branches: MBS filters them out.
        assert results["eon"]["ci"].ci_events < results["bzip2"]["ci"].ci_events / 3

    def test_mcf_selects_but_rarely_reuses(self, results):
        st = results["mcf"]["ci"]
        # CI instructions exist (selection succeeds) but the backward
        # slices are pointer chases, not strided loads.
        assert st.ci_selected > 0
        assert st.reuse_fraction < 0.08

    def test_ci_events_bounded_by_hard_mispredicts(self, results):
        for name, by_policy in results.items():
            st = by_policy["ci"]
            assert st.ci_reused <= st.ci_selected <= st.ci_events

    def test_replicas_survive_mispredictions(self, results):
        st = results["bzip2"]["ci"]
        # Reuse requires replicas created before a misprediction to
        # validate after it: with ~hundreds of mispredictions and
        # continuous reuse, validations far exceed misprediction count.
        assert st.replica_validations > st.mispredicts

    def test_no_mechanism_no_replicas(self):
        st = run_kernel("bzip2", wb(1, 512), scale=SCALE)
        assert st.replicas_created == 0 and st.committed_reused == 0


class TestPerformanceShape:
    """The headline comparisons the paper's evaluation makes."""

    def test_ci_beats_wb_on_hammock_kernels(self, results):
        for name in ("bzip2", "gcc", "vortex"):
            assert results[name]["ci"].ipc > results[name]["wb"].ipc * 1.05, name

    def test_ci_harmless_on_easy_branch_kernel(self, results):
        assert results["eon"]["ci"].ipc >= results["eon"]["wb"].ipc * 0.97

    def test_ciiw_between_wb_and_ci(self, results):
        ipc = lambda p: sum(results[n][p].ipc for n in results)
        assert ipc("wb") <= ipc("ci-iw") <= ipc("ci")

    def test_ci_reduces_wrong_path_work(self, results):
        # Pre-executed branch inputs resolve mispredictions sooner.
        st_ci, st_wb = results["bzip2"]["ci"], results["bzip2"]["wb"]
        assert st_ci.squashed < st_wb.squashed

    def test_register_pressure_shape(self):
        prog = build_program("bzip2", SCALE)
        small = run_program(prog, ci(1, 128))
        large = run_program(prog, ci(1, 768))
        base_small = run_program(prog, wb(1, 128))
        assert large.ipc > small.ipc
        # At 128 registers the mechanism must not run away with replicas.
        assert small.ipc >= base_small.ipc * 0.90

    def test_vect_collapses_at_small_regfile(self):
        prog = build_program("bzip2", SCALE)
        v128 = run_program(prog, ci(1, 128, policy="vect"))
        c128 = run_program(prog, ci(1, 128))
        v512 = run_program(prog, ci(1, 512, policy="vect"))
        assert v128.ipc < v512.ipc * 0.8
        assert v128.ipc <= c128.ipc * 1.05

    def test_vect_wastes_more_speculation(self, results):
        # In-text claim: 29.6% (ci) vs 48.5% (vect) wrongly spec. activity.
        tot_ci = sum(results[n]["ci"].wrong_spec_activity for n in results)
        tot_v = sum(results[n]["vect"].wrong_spec_activity for n in results)
        assert tot_v > tot_ci

    def test_spec_mem_relieves_small_regfile(self):
        prog = build_program("bzip2", SCALE)
        mono = run_program(prog, ci(1, 128))
        hier = run_program(prog, with_spec_mem(ci(1, 128), 768))
        assert hier.ipc > mono.ipc

    def test_spec_mem_approaches_unbounded(self):
        prog = build_program("bzip2", SCALE)
        hier = run_program(prog, with_spec_mem(ci(1, 256), 768))
        unbounded = run_program(prog, ci(1, INF_REGS))
        assert hier.ipc > unbounded.ipc * 0.9

    def test_slow_spec_mem_costs_little(self):
        prog = build_program("bzip2", SCALE)
        fast = run_program(prog, with_spec_mem(ci(1, 256), 768, latency=2))
        slow = run_program(prog, with_spec_mem(ci(1, 256), 768, latency=5))
        # The paper reports ~3% on SpecInt; our kernels' consumers are
        # much tighter (every reused accumulator feeds the next within a
        # couple of instructions), so allow a larger cost.
        assert slow.ipc > fast.ipc * 0.80


class TestReplicaKnob:
    def test_one_replica_worse_than_four(self):
        prog = build_program("bzip2", SCALE)
        r1 = run_program(prog, ci(1, 512, replicas=1))
        r4 = run_program(prog, ci(1, 512, replicas=4))
        assert r4.ipc > r1.ipc

    def test_more_replicas_more_activity(self):
        prog = build_program("bzip2", SCALE)
        r2 = run_program(prog, ci(1, INF_REGS, replicas=2))
        r8 = run_program(prog, ci(1, INF_REGS, replicas=8))
        assert r8.replicas_created > r2.replicas_created


class TestStridedPCKnob:
    def test_avg_stridedpcs_near_paper(self):
        st = run_kernel("bzip2", ci(1, 512, strided_pcs_per_entry=4), scale=SCALE)
        # The paper reports 1.7 on SpecInt; our unrolled weight streams put
        # several strided loads into each accumulator's backward slice.
        assert 1.0 <= st.avg_stridedpcs <= 3.2

    def test_overflow_counted_with_one_slot(self):
        st1 = run_kernel("bzip2", ci(1, 512, strided_pcs_per_entry=1), scale=SCALE)
        st4 = run_kernel("bzip2", ci(1, 512, strided_pcs_per_entry=4), scale=SCALE)
        assert st1.stridedpc_overflow > st4.stridedpc_overflow


class TestCoherence:
    def test_store_conflicts_detected_on_rmw_kernel(self):
        # vpr stores into the array it strided-loads: without the conflict
        # blacklist, replicas and stores collide.
        st = run_kernel("vpr", ci(1, 512, ci_conflict_blacklist=0), scale=SCALE)
        assert st.coherence_squashes > 0

    def test_blacklist_reduces_squashes(self):
        no_bl = run_kernel("vpr", ci(1, 512, ci_conflict_blacklist=0), scale=SCALE)
        bl = run_kernel("vpr", ci(1, 512, ci_conflict_blacklist=2), scale=SCALE)
        assert bl.coherence_squashes <= no_bl.coherence_squashes

    def test_conflicting_stores_fraction_small(self):
        # In-text claim: fewer than 3% of stores conflict.
        st = run_kernel("vortex", ci(1, 512), scale=SCALE)
        assert st.coherence_squashes / max(1, st.stores_committed) < 0.03
