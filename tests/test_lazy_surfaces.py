"""Package surfaces resolve their names on first use (DESIGN.md §3.1).

Deriving a run key must not load the simulator, the mechanism or any
layer above the run vocabulary; every exported name must still resolve
from the path it always had; and ``repro.hooks_for`` stays a plain
module attribute that a patch replaces for every caller.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.isa import assemble
from repro.uarch.config import ci

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PACKAGES = ("repro", "repro.ci", "repro.isa", "repro.observe",
            "repro.runtime", "repro.serve", "repro.trace", "repro.uarch",
            "repro.workloads")

#: modules the key path must leave unloaded, and prefixes of whole layers
NOT_LOADED = ("repro.uarch.core", "repro.ci.pipeline", "repro.ci.replicas",
              "repro.runtime.parallel", "repro.runtime.cache")
LAYERS_NOT_LOADED = ("repro.observe", "repro.trace", "repro.serve",
                     "repro.sampling", "repro.faults")

KEY_PROBE = """
import json, sys
from repro.runtime.keys import run_key
from repro.runtime.spec import RunSpec
from repro.uarch.config import ci, scal
run_key(RunSpec("gzip", 0.1, 1, scal(1, 256)))
run_key(RunSpec("gzip", 0.1, 1, ci(1, 512)))
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def loaded_after(code: str) -> list:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout)


def test_run_key_derivation_loads_no_simulator():
    loaded = loaded_after(KEY_PROBE)
    assert "repro.runtime.keys" in loaded
    assert "repro.ci.registry" in loaded  # ci(1, 512) validated its policy
    for name in NOT_LOADED:
        assert name not in loaded
    for layer in LAYERS_NOT_LOADED:
        assert not [m for m in loaded
                    if m == layer or m.startswith(layer + ".")], layer


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name


def test_names_resolve_to_their_defining_objects():
    from repro.ci.pipeline import MechanismPipeline
    from repro.isa.predecode import predecode
    from repro.uarch import config
    import repro.isa.predecode  # noqa: F401 - the submodule, not the name
    assert repro.MechanismPipeline is MechanismPipeline
    assert repro.configs is config
    assert repro.isa.predecode is predecode
    with pytest.raises(AttributeError):
        repro.no_such_name


def test_hooks_for_is_a_plain_attribute_every_run_calls(monkeypatch):
    assert vars(repro)["hooks_for"].__module__ == "repro"
    calls = []
    original = repro.hooks_for

    def counted(cfg):
        calls.append(cfg.ci_policy)
        return original(cfg)
    monkeypatch.setattr(repro, "hooks_for", counted)
    program = assemble("addi r1, r0, 3\nloop: addi r1, r1, -1\n"
                       "bne r1, r0, loop\nhalt\n")
    repro.run_program(program, ci(1, 512))
    assert calls == ["ci"]
