"""The policy registry: resolution, validation, and the new ablations.

Covers the registry API itself (lookup, suggestions, component-name
validation, runtime registration) and proves the two registry-derived
ablation policies — ``ci-oracle-mbs`` and ``ci-ideal-reconv`` — run
correctly end-to-end: against the functional oracle, through the
process pool (including the ``RunSpec.policy`` name override), and
through the persistent result cache.
"""

import pytest

from repro import run_program
from repro.ci import (
    PolicySpec,
    all_policies,
    build_components,
    get_policy,
    policy_names,
    register_policy,
)
from repro.ci.registry import _REGISTRY
from repro.isa import run as run_functional
from repro.runtime import ResultCache, RunSpec, execute_jobs
from repro.runtime.parallel import ParallelRunner
from repro.uarch.config import ci
from repro.workloads import build_program

SCALE = 0.05
SEED = 1
ABLATIONS = ["ci-oracle-mbs", "ci-ideal-reconv"]


class TestRegistry:
    def test_builtins_present(self):
        names = policy_names()
        for name in ("ci", "ci-iw", "vect", *ABLATIONS):
            assert name in names

    def test_get_policy_roundtrips(self):
        for spec in all_policies():
            assert get_policy(spec.name) is spec

    def test_unknown_name_suggests_close_matches(self):
        with pytest.raises(ValueError, match="did you mean 'ci-oracle-mbs'"):
            get_policy("ci-orcale-mbs")

    def test_unknown_name_lists_known_policies(self):
        with pytest.raises(ValueError, match="known:.*'ci-iw'"):
            get_policy("zzz-nothing-close")

    def test_config_validates_policy_at_construction(self):
        with pytest.raises(ValueError, match="unknown policy"):
            ci(1, 256, policy="ci-orcale-mbs")

    def test_register_rejects_unknown_components(self):
        with pytest.raises(ValueError, match="unknown filter"):
            register_policy(PolicySpec("bad-f", "", filter="psychic"))
        with pytest.raises(ValueError, match="unknown tracker"):
            register_policy(PolicySpec("bad-t", "", tracker="prophetic"))
        with pytest.raises(ValueError, match="needs a selector"):
            register_policy(PolicySpec("bad-s", "", selector=None))
        assert not {"bad-f", "bad-t", "bad-s"} & set(policy_names())

    def test_runtime_registration_runs_end_to_end(self):
        spec = PolicySpec("test-never-hard", "test-only: filters every "
                          "branch out", filter="never")
        register_policy(spec)
        try:
            assert get_policy("test-never-hard") is spec
            prog = build_program("eon", SCALE, SEED)
            st = run_program(prog, ci(1, 512, policy="test-never-hard"))
            # With no branch ever classified hard, the CRP never arms.
            assert st.committed > 0 and st.ci_events == 0
        finally:
            del _REGISTRY["test-never-hard"]

    def test_build_components_honours_mbs_ablation_flag(self):
        from repro.ci import AlwaysHardFilter, MBSFilter
        spec = get_policy("ci")
        on = build_components(spec, ci(1, 256))
        off = build_components(spec, ci(1, 256, ci_mbs_filter=False))
        assert isinstance(on["filter"], MBSFilter)
        assert isinstance(off["filter"], AlwaysHardFilter)


class TestAblationPolicies:
    """The two free ablations must be *correct*, not just runnable."""

    @pytest.mark.parametrize("policy", ABLATIONS)
    def test_commits_match_functional_oracle(self, policy):
        prog = build_program("eon", SCALE, SEED)
        oracle = run_functional(prog, max_steps=500_000)
        st = run_program(prog, ci(1, 512, policy=policy))
        assert st.committed == oracle.steps

    @pytest.mark.parametrize("policy", ABLATIONS)
    def test_mechanism_engages(self, policy):
        st = run_program(build_program("bzip2", 0.1, SEED),
                         ci(1, 512, policy=policy))
        assert st.ci_events > 0 and st.ci_reused > 0

    def test_deterministic(self):
        cfg = ci(1, 512, policy="ci-ideal-reconv")
        prog = build_program("eon", SCALE, SEED)
        assert run_program(prog, cfg).as_dict() \
            == run_program(prog, cfg).as_dict()


class TestRuntimeIntegration:
    def test_simjob_policy_override(self):
        base = ci(1, 512)  # ci_policy == "ci"
        job = RunSpec("eon", SCALE, SEED, base, policy="ci-oracle-mbs")
        assert job.resolved_cfg().ci_policy == "ci-oracle-mbs"
        assert RunSpec("eon", SCALE, SEED, base).resolved_cfg() is base

    def test_ablations_through_the_pool(self):
        """Both new policies run in worker processes; the name override
        produces the same stats as baking the policy into the config."""
        base = ci(1, 512)
        jobs = [RunSpec("eon", SCALE, SEED, base, policy=p)
                for p in ABLATIONS]
        pooled = execute_jobs(jobs, 2)
        for policy, st in zip(ABLATIONS, pooled):
            direct = run_program(build_program("eon", SCALE, SEED),
                                 ci(1, 512, policy=policy))
            assert st.to_dict() == direct.to_dict()

    @pytest.mark.parametrize("policy", ABLATIONS)
    def test_ablations_through_the_persistent_cache(self, tmp_path, policy):
        cache = ResultCache(root=str(tmp_path / "cache"), enabled=True)
        cfg = ci(1, 512, policy=policy)
        first = ParallelRunner(scale=SCALE, seed=SEED, jobs=1, cache=cache)
        a = first.run("eon", cfg)
        assert first.sims_run == 1
        warm = ParallelRunner(scale=SCALE, seed=SEED, jobs=1, cache=cache)
        b = warm.run("eon", cfg)
        assert warm.sims_run == 0 and warm.disk_hits == 1
        assert a == b

    def test_cache_keys_distinguish_policies(self, tmp_path):
        """A cached ``ci`` result must never satisfy an ablation query."""
        cache = ResultCache(root=str(tmp_path / "cache"), enabled=True)
        r = ParallelRunner(scale=SCALE, seed=SEED, jobs=1, cache=cache)
        r.run("eon", ci(1, 512))
        r.run("eon", ci(1, 512, policy="ci-oracle-mbs"))
        assert r.sims_run == 2 and r.disk_hits == 0
