"""The benchmark's traced run patches fixed call sites of the package
(``perfbench/tracing.py::TARGETS``).  A refactor that renames one, or turns a
property into another kind of attribute, breaks that run; these checks catch
it without running the benchmark."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: Call sites the tracer wraps by replacing a property's getter.
PROPERTIES = {("spectral", "Grid", "frequencies"), ("spectral", "SpectralField", "continuum_coeffs")}


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


TARGETS = _targets()


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
