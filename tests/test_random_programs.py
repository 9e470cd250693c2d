"""Property-based end-to-end validation: random programs, every policy.

A structured hypothesis generator builds random — but always halting —
programs from straight-line ALU blocks, memory traffic, hammocks and
bounded counted loops.  For every generated program and every machine
policy, the timing simulation must commit exactly the instructions the
functional interpreter executes, and the architectural register state the
simulator's speculative image converges to must match the oracle.  The
sampled-boot arm holds a core booted from a functional checkpoint at a
random boundary to the same oracle.

This is the strongest correctness net in the repository: branch recovery,
store undo, replica validation and squash reuse all have to cooperate
perfectly for these invariants to hold on arbitrary code.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import hooks_for, run_program
from repro.ci import policy_names
from repro.isa import NUM_LOGICAL_REGS, assemble
from repro.isa import run as run_functional
from repro.sampling import CheckpointStore, ensure_checkpoints
from repro.uarch import Core, ProcessorConfig, ci, scal, wb, with_spec_mem

# Registers the generator uses for data (loop counters live higher up).
DATA_REGS = list(range(2, 8))
PTR_REG = 10
BASE_REG = 11

alu_ops = st.sampled_from(["add", "sub", "xor", "and", "or", "mul",
                           "slt", "seq", "min", "max"])
imm_ops = st.sampled_from(["addi", "xori", "andi", "ori", "slli", "srli"])
reg = st.sampled_from(DATA_REGS)
small_imm = st.integers(min_value=0, max_value=63)


@st.composite
def alu_block(draw):
    lines = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            lines.append(f"{draw(alu_ops)} r{draw(reg)}, r{draw(reg)}, "
                         f"r{draw(reg)}")
        else:
            lines.append(f"{draw(imm_ops)} r{draw(reg)}, r{draw(reg)}, "
                         f"{draw(small_imm)}")
    return lines


@st.composite
def mem_block(draw):
    """A store followed by loads nearby (exercises forwarding + undo)."""
    off = draw(st.integers(min_value=0, max_value=7)) * 8
    lines = [f"st r{draw(reg)}, {off}(r{BASE_REG})",
             f"ld r{draw(reg)}, {off}(r{BASE_REG})"]
    if draw(st.booleans()):
        lines.append(f"ld r{draw(reg)}, {draw(small_imm) * 8}(r{BASE_REG})")
    return lines


@st.composite
def hammock(draw, label_ids):
    """An if-then-else or if-then on a data register (unpredictable)."""
    lid = next(label_ids)
    cond = draw(st.sampled_from(["beqz", "bnez", "bltz", "bgez"]))
    r = draw(reg)
    then_body = draw(alu_block())
    if draw(st.booleans()):   # if-then-else
        else_body = draw(alu_block())
        return ([f"{cond} r{r}, else_{lid}"]
                + then_body
                + [f"j ip_{lid}", f"else_{lid}:"]
                + else_body
                + [f"ip_{lid}:"])
    return [f"{cond} r{r}, skip_{lid}"] + then_body + [f"skip_{lid}:"]


@st.composite
def counted_loop(draw, label_ids):
    """A loop with a compile-time trip count walking the data array."""
    lid = next(label_ids)
    trips = draw(st.integers(min_value=2, max_value=12))
    body = draw(st.lists(st.one_of(alu_block(), mem_block(),
                                   hammock(label_ids)),
                         min_size=1, max_size=3))
    lines = [f"li r20, {trips}", f"mov r{PTR_REG}, r{BASE_REG}",
             f"loop_{lid}:"]
    for block in body:
        lines.extend(block)
    lines += [f"ld r{draw(reg)}, 0(r{PTR_REG})",
              f"addi r{PTR_REG}, r{PTR_REG}, 8",
              "subi r20, r20, 1",
              f"bnez r20, loop_{lid}"]
    return lines


@st.composite
def program_source(draw):
    import itertools
    label_ids = itertools.count()
    data_vals = draw(st.lists(st.integers(min_value=0, max_value=255),
                              min_size=8, max_size=24))
    blocks = draw(st.lists(
        st.one_of(alu_block(), mem_block(), hammock(label_ids),
                  counted_loop(label_ids)),
        min_size=2, max_size=6))
    lines = [f".dataw arr {' '.join(map(str, data_vals))}",
             f"la r{BASE_REG}, arr"]
    for i, r in enumerate(DATA_REGS):
        lines.append(f"li r{r}, {draw(st.integers(0, 200))}")
    for b in blocks:
        lines.extend(b)
    lines.append("halt")
    return "\n".join(lines)


#: machine shapes (ports, register file, replicas, speculative memory)
#: plus, below, every registered policy not already listed — so a new
#: policy comes under the interp oracle with no edit here
CONFIGS = [
    ("scal", scal(1, 256)),
    ("wb2p", wb(2, 512)),
    ("ci", ci(1, 256)),
    ("ci-small-rf", ci(1, 96)),
    ("ci-iw", ci(1, 512, policy="ci-iw")),
    ("vect", ci(1, 256, policy="vect")),
    ("ci-specmem", with_spec_mem(ci(1, 128), 256)),
    ("ci-1rep", ci(1, 256, replicas=1)),
    ("ci-8rep", ci(2, 512, replicas=8)),
]
CONFIGS += [(name, ci(1, 256, policy=name)) for name in policy_names()
            if name not in dict(CONFIGS)]


@pytest.mark.parametrize("label,cfg", CONFIGS)
@given(src=program_source())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_timing_matches_functional(label, cfg, src):
    prog = assemble(src, name="random")
    oracle = run_functional(prog, max_steps=50_000)
    stats = run_program(prog, cfg)
    assert stats.committed == oracle.steps, (
        f"[{label}] committed {stats.committed} != functional {oracle.steps}"
        f"\n{src}")


@pytest.mark.parametrize("label,cfg", CONFIGS)
@given(src=program_source(), data=st.data())
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_sampled_boot_matches_functional(label, cfg, src, data):
    """A core booted from the checkpoint at a drawn boundary commits the
    rest of the program and ends in the oracle's register state."""
    prog = assemble(src, name="random")
    oracle = run_functional(prog, max_steps=50_000)
    boundary = data.draw(st.integers(1, oracle.steps - 1), label="boundary")
    ckpt = ensure_checkpoints(prog, [boundary],
                              CheckpointStore(enabled=False))[boundary]
    core = Core(cfg, prog, hooks_for(cfg), boot=ckpt)
    core.run()
    assert core.stats.committed == oracle.steps - boundary, (
        f"[{label}@{boundary}] committed {core.stats.committed} != "
        f"{oracle.steps - boundary}\n{src}")
    assert core.sregs == oracle.regs, (
        f"[{label}@{boundary}] register state diverged\n{src}")


@given(src=program_source())
@settings(max_examples=15, deadline=None)
def test_architectural_state_matches_oracle(src):
    """After the core drains, its speculative register image and memory
    must equal the functional interpreter's final state."""
    prog = assemble(src, name="random")
    oracle = run_functional(prog, max_steps=50_000)
    core = Core(ci(1, 256), prog, hooks_for(ci(1, 256)))
    core.run()
    assert core.sregs == oracle.regs, f"register state diverged\n{src}"
    oracle_mem = {a: v for a, v in oracle.memory.items() if v != 0}
    core_mem = {a: v for a, v in core.mem.items() if v != 0}
    assert core_mem == oracle_mem, f"memory state diverged\n{src}"


@given(src=program_source())
@settings(max_examples=10, deadline=None)
def test_determinism_across_runs(src):
    prog = assemble(src, name="random")
    a = run_program(prog, ci(1, 256)).as_dict()
    b = run_program(prog, ci(1, 256)).as_dict()
    assert a == b
