"""Conventions of the package source that no runtime test would notice."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gbbmlab"

#: Longest line allowed in a module of the package.
MAX_LINE = 120


def test_no_source_line_over_120_characters():
    long_lines = [
        f"{path.name}:{i}: {len(line)} characters"
        for path in sorted(SRC.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


#: numpy names that run a BLAS or LAPACK routine.  On a large array OpenBLAS
#: starts a second thread that keeps spinning after the call returns, so the
#: solver and the per-record norms use plain numpy reductions instead.
BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "tensordot", "linalg"}


def test_solver_and_diagnostics_call_no_blas():
    calls = []
    for name in ("solver.py", "diagnostics.py"):
        tree = ast.parse((SRC / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
                calls.append(f"{name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                calls.append(f"{name}:{node.lineno}: @")
            elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                calls.append(f"{name}:{node.lineno}: from {node.module}")
    assert calls == []


#: The only functions that may run a full complex transform: from_physical,
#: whose fft(values)[: n/2 + 1] is bitwise the coefficients the references
#: were recorded from, and the band quadrature's Bluestein convolution.  The
#: state is a half-spectrum everywhere else.
FULL_TRANSFORM_CALLERS = {"spectral.SpectralField.from_physical", "linear_flow._chirp_z_sum"}


def _calls(tree, scope=()):
    """(enclosing function's dotted name, callee's last name) of every call."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _calls(node, scope + (node.name,))
            continue
        if isinstance(node, ast.Call):
            func = node.func
            yield ".".join(scope), func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        yield from _calls(node, scope)


def _attributes(tree, scope=()):
    """(enclosing function's dotted name, attribute name) of every attribute read."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _attributes(node, scope + (node.name,))
            continue
        if isinstance(node, ast.Attribute):
            yield ".".join(scope), node.attr
        yield from _attributes(node, scope)


def test_grid_points_are_read_by_from_function_only():
    # Grid.points builds an n-point coordinate array (2 MB on linear-decay's
    # 2^18 grid); anywhere else, the one coordinate needed is -L + dx i
    reads = [
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope, attr in _attributes(ast.parse(path.read_text()))
        if attr == "points"
    ]
    assert reads == ["spectral.SpectralField.from_function"]


def test_state_stays_a_half_spectrum():
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for scope, callee in _calls(ast.parse(path.read_text())):
            if callee in ("fftshift", "ifftshift") or (
                callee in ("fft", "ifft") and f"{path.stem}.{scope}" not in FULL_TRANSFORM_CALLERS
            ):
                calls.append(f"{path.name}: {scope or '<module>'}: {callee}")
    assert calls == []


def test_full_spectrum_is_never_rebuilt():
    # the d/dxi norm reads the half-spectrum it is given, and the snapshot
    # file holds the half-spectrum as it is
    calls = [
        f"{path.stem}.{scope}: {callee}"
        for path in sorted(SRC.glob("*.py"))
        for scope, callee in _calls(ast.parse(path.read_text()))
        if callee in ("sorted_spectrum", "gradient")
    ]
    assert calls == []


def test_estimate_sweep_is_built_by_the_sweep_only():
    # each decay-bound row takes the sweep that holds its field and s; a row
    # that built its own sweep when given none would be a second code path
    calls = [
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope, callee in _calls(ast.parse(path.read_text()))
        if callee == "EstimateSweep"
    ]
    assert calls == ["linear_flow.verify_dispersive_estimate"]


def test_run_arrays_are_built_by_evolve_only():
    # the quartic's buffers and the RK4 factor belong to one run; a kernel
    # that built its own when given none would be a second code path
    calls = [
        f"{path.stem}.{scope}: {callee}"
        for path in sorted(SRC.glob("*.py"))
        for scope, callee in _calls(ast.parse(path.read_text()))
        if callee in ("quartic_buffers", "rk4_linear_log_factor")
    ]
    assert sorted(calls) == ["solver.evolve: quartic_buffers", "solver.evolve: rk4_linear_log_factor"]


def test_nonlinear_run_is_built_by_one_cli_function():
    # evolve and scatter integrate the same run; a runner that set up its own
    # would be a second code path
    calls = [
        f"cli.{scope}: {callee}"
        for scope, callee in _calls(ast.parse((SRC / "cli.py").read_text()))
        if callee in ("evolve", "Recorder")
    ]
    assert sorted(calls) == ["cli._nonlinear_run: Recorder", "cli._nonlinear_run: evolve"]


#: The solver's kernels take every array and flag from the run that calls them.
KERNELS = ("quartic_hat", "rhs", "step", "discrete_profile_of")


def test_solver_kernels_declare_no_defaults():
    tree = ast.parse((SRC / "solver.py").read_text())
    defaults = {
        node.name: len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in KERNELS
    }
    assert defaults == dict.fromkeys(KERNELS, 0)
