"""The benchmark's traced run patches fixed call sites of the package
(``perfbench/tracing.py::TARGETS``) and fails unless each workload's live
spans (``perfbench/workloads.py::WORKLOADS``) record a call.  A refactor that
renames a call site, turns a property into another kind of attribute, or
routes a workload around a live span breaks that run; these checks catch it
without running the benchmark."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Call sites the tracer wraps by replacing a property's getter.
PROPERTIES = {("spectral", "Grid", "frequencies"), ("spectral", "SpectralField", "continuum_coeffs")}


def _load(name):
    """perfbench/<name>.py as a module of its own (dataclasses look it up in sys.modules)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load("tracing").TARGETS
workloads = _load("workloads")
WORKLOADS = workloads.WORKLOADS


@pytest.mark.parametrize("module_name, owner_name, attr, span", TARGETS, ids=[f"{t[0]}.{t[1]}.{t[2]}" for t in TARGETS])
def test_target_resolves_with_its_kind(module_name, owner_name, attr, span):
    module = importlib.import_module(f"gbbmlab.{module_name}")
    if not owner_name:
        assert inspect.isfunction(getattr(module, attr))
        return
    owner = getattr(module, owner_name)
    # the tracer reads the class's own __dict__, so the attribute must be
    # defined on the class itself
    current = owner.__dict__[attr]
    if (module_name, owner_name, attr) in PROPERTIES:
        assert isinstance(current, property)
    else:
        assert inspect.isfunction(current)


def _counted(calls, span, fn):
    def wrapper(*args, **kwargs):
        calls[span] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_fires_every_live_span(name, tmp_path, monkeypatch):
    # the traced pass's check, at seed 0: each call site of a live span is
    # wrapped with a counter, as the tracer wraps it, for this test only; each
    # invocation's outputs must also pass the benchmark's own check against
    # its reference, so a change that moves a row past its tolerance fails here
    live = WORKLOADS[name].live
    calls = dict.fromkeys(live, 0)
    for module_name, owner_name, attr, span in TARGETS:
        if span not in calls:
            continue
        module = importlib.import_module(f"gbbmlab.{module_name}")
        owner = getattr(module, owner_name) if owner_name else module
        current = owner.__dict__[attr] if owner_name else getattr(owner, attr)
        if isinstance(current, property):
            monkeypatch.setattr(owner, attr, property(_counted(calls, span, current.fget)))
        else:
            monkeypatch.setattr(owner, attr, _counted(calls, span, current))
    cli = importlib.import_module("gbbmlab.cli")
    references = workloads.load_reference(name)
    for j, argv in enumerate(WORKLOADS[name].invocations(0)):
        out_dir = str(tmp_path / f"inv{j:02d}")
        assert cli.main(argv + ["--output-dir", out_dir]) == 0, argv
        assert workloads.check_invocation(argv, out_dir, references[j]).problems == [], argv
    assert [span for span in live if calls[span] == 0] == []
