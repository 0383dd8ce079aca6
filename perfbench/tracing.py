"""Span tracing for the benchmark's traced pass, and the per-layer figures
derived from the spans.

Wrappers are installed from outside the program: each one replaces the
attribute a caller looks up (a module global, a class attribute, or a
property's getter), so no file of the package is touched.  Spans are kept in
memory as ``[name, parent index, start, end, amount]`` and written out by the
child when its pass ends, under the pass id they share.

This module imports only the standard library, so the parent process can
summarise spans without importing numpy.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

#: Every wrapped call site: (module, owner attribute or "", attribute, span
#: name).  An owner names a class in the module; a property is wrapped by
#: replacing its getter.
TARGETS = (
    ("solver", "", "evolve", "solver.evolve"),
    ("solver", "", "step", "solver.step"),
    ("solver", "", "rhs", "solver.rhs"),
    ("solver", "", "quartic_hat", "solver.quartic_hat"),
    ("solver", "", "discrete_profile_of", "solver.discrete_profile_of"),
    ("spectral", "Grid", "frequencies", "spectral.Grid.frequencies"),
    ("spectral", "SpectralField", "continuum_coeffs", "spectral.SpectralField.continuum_coeffs"),
    ("diagnostics", "Recorder", "__call__", "diagnostics.Recorder"),
    ("diagnostics", "", "compute_norms", "diagnostics.compute_norms"),
    ("linear_flow", "", "dispersive_bound", "linear_flow.dispersive_bound"),
    ("linear_flow", "", "evaluate_lp_piece", "linear_flow.evaluate_lp_piece"),
    ("linear_flow", "", "propagate_linear", "linear_flow.propagate_linear"),
    # linear_flow binds psi_k at import time, so both names get the wrapper.
    ("littlewood_paley", "", "psi_k", "littlewood_paley.psi_k"),
    ("linear_flow", "", "psi_k", "littlewood_paley.psi_k"),
    ("resonance", "", "enumerate_resonances", "resonance.enumerate_resonances"),
    ("resonance", "", "anomalous_resonance", "resonance.anomalous_resonance"),
    ("resonance", "", "find_roots", "resonance.find_roots"),
    ("cli", "OutputSink", "write_text", "cli.OutputSink"),
    ("cli", "OutputSink", "write_json", "cli.OutputSink"),
    ("cli", "OutputSink", "write_snapshot", "cli.OutputSink"),
    ("cli", "OutputSink", "finalize", "cli.OutputSink"),
    ("cli", "", "main", "cli.main"),
)


def _points(args, result) -> int:
    return int(getattr(result, "size", 1))


def _bytes_written(args, result) -> int:
    return os.path.getsize(args[0].path(args[1]))


def _manifest_bytes(args, result) -> int:
    return os.path.getsize(args[0].path("manifest.json"))


#: Work counted at a wrapper besides calls and time, summed into
#: ``<span name>.<unit>``.  write_json is left out: it calls write_text.
AMOUNTS = {
    ("linear_flow", "evaluate_lp_piece"): ("points", _points),
    ("cli", "write_text"): ("bytes", _bytes_written),
    ("cli", "write_snapshot"): ("bytes", _bytes_written),
    ("cli", "finalize"): ("bytes", _manifest_bytes),
}


class Tracer:
    """Collects the spans of one pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, amount=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if amount is not None:
                span[4] = amount(args, result)
            return result

        return traced

    def install(self, package: str = "gbbmlab") -> None:
        """Patch every call site in TARGETS in the modules of ``package``."""
        wrapped: dict[int, object] = {}
        for module_name, owner_name, attr, name in TARGETS:
            module = importlib.import_module(f"{package}.{module_name}")
            owner = getattr(module, owner_name) if owner_name else module
            current = owner.__dict__[attr] if owner_name else getattr(owner, attr)
            fn = current.fget if isinstance(current, property) else current
            if id(fn) not in wrapped:
                unit_fn = AMOUNTS.get((module_name, attr))
                wrapped[id(fn)] = self.wrap(name, fn, unit_fn[1] if unit_fn else None)
            replacement = wrapped[id(fn)]
            setattr(owner, attr, property(replacement) if isinstance(current, property) else replacement)


def span_names() -> list[str]:
    return sorted({name for *_, name in TARGETS})


def amount_units() -> dict[str, str]:
    names = {(m, a): n for m, _, a, n in TARGETS}
    return {names[key]: unit for key, (unit, _) in AMOUNTS.items()}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-name figures from one pass's spans.

    ``calls``; ``s``, time inside the name counted once even when it
    recurses; ``self_s``, time minus the part its child spans cover;
    ``ms_p50`` and ``ms_p99`` of single calls; and the summed amount of
    wrappers that count work.
    """
    n = len(spans)
    dur = [end - start for _, _, start, end, _ in spans]
    covered = [0.0] * n
    for i, (_, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
    units = amount_units()
    out: dict[str, float] = {}
    per_call: dict[str, list[float]] = {name: [] for name in span_names()}
    for name in per_call:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        if name in units:
            out[f"{name}.{units[name]}"] = 0
    for i, (name, parent, _, _, amount) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur[i] - covered[i]
        per_call[name].append(dur[i] * 1e3)
        if name in units:
            out[f"{name}.{units[name]}"] += amount
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            out[f"{name}.s"] += dur[i]
    for name, ms in per_call.items():
        out[f"{name}.ms_p50"] = percentile(ms, 50)
        out[f"{name}.ms_p99"] = percentile(ms, 99)
    return out
