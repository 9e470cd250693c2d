"""Functional correctness and characterisation of the 12 kernels.

Every kernel must (a) halt, (b) match its pure-Python reference model
register-for-register, and (c) exhibit the branch/stride traits the
experiment design relies on (DESIGN.md §2).
"""

import pytest

from repro.isa import run
from repro.trace import collect_trace, profile_trace
from repro.workloads import all_workloads, build_program, get_workload, kernel_names

SCALE = 0.5  # keep functional tests quick; traits hold at any scale >= 0.5


@pytest.fixture(scope="module")
def results():
    out = {}
    for spec in all_workloads():
        prog = spec.program(SCALE, seed=1)
        out[spec.name] = (spec, run(prog))
    return out


@pytest.fixture(scope="module")
def profiles():
    out = {}
    for spec in all_workloads():
        prog = spec.program(SCALE, seed=1)
        out[spec.name] = profile_trace(collect_trace(prog))
    return out


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("name", kernel_names())
    def test_halts(self, results, name):
        _, r = results[name]
        assert r.halted

    @pytest.mark.parametrize("name", kernel_names())
    def test_matches_reference(self, results, name):
        spec, r = results[name]
        expected = spec.reference(SCALE, 1)
        for reg, value in expected.items():
            assert r.reg(reg) == value, (
                f"{name}: r{reg} = {r.reg(reg)}, expected {value}")

    @pytest.mark.parametrize("name", kernel_names())
    def test_seed_changes_data(self, name):
        spec = get_workload(name)
        assert spec.build_source(SCALE, 1) != spec.build_source(SCALE, 2)

    @pytest.mark.parametrize("name", kernel_names())
    def test_deterministic(self, name):
        spec = get_workload(name)
        assert spec.build_source(SCALE, 7) == spec.build_source(SCALE, 7)

    @pytest.mark.parametrize("name", kernel_names())
    def test_reference_matches_at_other_seed(self, name):
        spec = get_workload(name)
        r = run(spec.program(SCALE, seed=3))
        for reg, value in spec.reference(SCALE, 3).items():
            assert r.reg(reg) == value


class TestSuiteShape:
    def test_twelve_kernels_in_spec_order(self):
        assert kernel_names() == [
            "bzip2", "crafty", "eon", "gap", "gcc", "gzip",
            "mcf", "parser", "perlbmk", "twolf", "vortex", "vpr",
        ]

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            get_workload("nosuch")

    @pytest.mark.parametrize("name", kernel_names())
    def test_dynamic_size_in_budget(self, results, name):
        _, r = results[name]
        # Trace-scale programs: big enough to warm predictors, small enough
        # for the cycle simulator (DESIGN.md §2).
        assert 3_000 <= r.steps <= 60_000

    def test_build_program_helper(self):
        prog = build_program("bzip2", SCALE)
        assert len(prog) > 10 and prog.name == "bzip2"


class TestCharacterisation:
    """The traits each kernel was designed to have (drives every figure)."""

    @pytest.mark.parametrize("name", [n for n in kernel_names() if n != "eon"])
    def test_most_kernels_have_hard_branches(self, profiles, name):
        assert profiles[name].hard_branches, f"{name} should have hard branches"

    def test_eon_branches_are_easy(self, profiles):
        prof = profiles["eon"]
        # The pixel-threshold branch is ~97% biased; loop branches are easy.
        assert prof.hard_branch_fraction < 0.10

    @pytest.mark.parametrize("name", ["bzip2", "crafty", "gap", "gcc",
                                      "parser", "perlbmk", "twolf", "vpr"])
    def test_strided_kernels_have_strided_loads(self, profiles, name):
        assert profiles[name].strided_loads, f"{name} should have strided loads"

    def test_mcf_chase_loads_are_not_strided(self, profiles):
        # mcf's pointer-chase and cost loads are non-strided by design;
        # only the small audit stream is strided.
        prof = profiles["mcf"]
        assert len(prof.strided_loads) <= 1
        assert len(prof.loads) >= 3

    def test_gap_has_both_load_kinds(self, profiles):
        prof = profiles["gap"]
        strided = {l.pc for l in prof.strided_loads}
        assert strided and len(prof.loads) > len(strided)

    def test_bzip2_strides_match_layout(self, profiles):
        # src/out walk word-by-word (stride 8); the unrolled weight stream
        # advances a full L1 line per iteration (stride 32).
        strides = {l.dominant_stride for l in profiles["bzip2"].strided_loads}
        assert strides <= {8, 32} and 8 in strides and 32 in strides

    def test_vortex_has_stride_16(self, profiles):
        strides = {l.dominant_stride for l in profiles["vortex"].strided_loads}
        assert 16 in strides

    @pytest.mark.parametrize("name", ["bzip2", "gcc", "twolf", "vpr", "perlbmk"])
    def test_hard_branch_fraction_significant(self, profiles, name):
        assert profiles[name].hard_branch_fraction > 0.20, name
