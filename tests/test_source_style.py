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
#: solver and the per-record norms use plain numpy reductions instead;
#: polyfit and lstsq run LAPACK's dgelsd on OpenBLAS even for a two-parameter fit.
BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "tensordot", "linalg", "polyfit", "lstsq"}


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


def test_decay_bound_rows_are_swept_by_one_cli_function():
    # every band's decay rows and fitted exponent come from verify-estimates; a subcommand that swept
    # its own bands would be a second code path
    calls = [
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope, callee in _calls(ast.parse(path.read_text()))
        if callee == "verify_dispersive_estimate"
    ]
    assert calls == ["cli.run_verify_estimates"]


def test_nonlinear_run_is_built_by_one_cli_function():
    # evolve and scatter integrate the same run; a runner that set up its own
    # would be a second code path
    calls = [
        f"cli.{scope}: {callee}"
        for scope, callee in _calls(ast.parse((SRC / "cli.py").read_text()))
        if callee in ("evolve", "Recorder")
    ]
    assert sorted(calls) == ["cli._nonlinear_run: Recorder", "cli._nonlinear_run: evolve"]


def test_decay_regimes_are_a_table_not_a_branch_on_the_case():
    # classify_case and dispersive_bound read one _REGIMES row per regime; a
    # comparison with the case number would be a second copy of the split
    tree = ast.parse((SRC / "linear_flow.py").read_text())
    compares = [
        f"linear_flow.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(side, ast.Name) and side.id == "case" for side in [node.left, *node.comparators])
    ]
    assert compares == []


def test_group_velocity_census_is_one_closed_form_not_a_branch_on_an_exact_c():
    # the ends c = 1, 0 and -1/8 are where the closed form's root pairs merge or reach 0;
    # an == on c would be a second copy of what the formula already gives there
    tree = ast.parse((SRC / "dispersion.py").read_text())
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "solve_group_velocity")
    compares = [
        f"dispersion.py:{node.lineno}"
        for node in ast.walk(fn)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(isinstance(side, ast.Name) and side.id == "c" for side in [node.left, *node.comparators])
    ]
    assert compares == []


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


def test_the_run_lattice_has_one_owner():
    # which steps are recorded is solver.Lattice's decision and which records are
    # kept is the run's: the power-of-two test is one frexp call, in solver.evolve,
    # where each record is stamped, and no module reads a lattice's snapshots; the
    # lattice is built by the run and by the one CLI function that checks it, no
    # caller overwrites a config's stride, and the CLI asks the lattice by time
    # (step_at), never stamping a step itself or picking a record by position
    frexp_mentions = sum(path.read_text().count("frexp") for path in SRC.glob("*.py"))
    frexp_calls = [
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope, callee in _calls(ast.parse(path.read_text()))
        if callee == "frexp"
    ]
    snapshot_reads = [
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope, attr in _attributes(ast.parse(path.read_text()))
        if attr == "snapshots"
    ]
    lattice_callers = sorted(
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope, callee in _calls(ast.parse(path.read_text()))
        if callee == "lattice"
    )
    stride_writes = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "record_stride" and isinstance(node.ctx, ast.Store)
        or isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", "")) in ("setattr", "__setattr__")
        and any(isinstance(arg, ast.Constant) and arg.value == "record_stride" for arg in node.args)
    ]
    cli = ast.parse((SRC / "cli.py").read_text())
    cli_time_calls = [scope for scope, callee in _calls(cli) if callee == "time"]
    cli_positional = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(cli)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr in ("snapshots", "records")
    ]
    assert (frexp_mentions, frexp_calls) == (1, ["solver.evolve"])
    assert snapshot_reads == []
    assert lattice_callers == ["cli._nonlinear_run", "solver.evolve"]
    assert stride_writes == []
    assert cli_time_calls == []
    assert cli_positional == []


def test_one_wrap_rule():
    # the box a linear run's waves fit is Grid.max_unwrapped_time's one decision: the CLI's
    # refusal of a run's data and the linear sweep's sub-box choice ask it, and no other module
    # reads its Airy margin; the data's reach has one owner, the refusal, which hands it on
    calls = sorted(
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope, callee in _calls(ast.parse(path.read_text()))
        if callee == "max_unwrapped_time"
    )
    margin_readers = sorted(path.name for path in SRC.glob("*.py") if "AIRY_MARGIN" in path.read_text())
    reach_readers = sorted(
        f"{path.stem}.{fn.name}"
        for path in sorted(SRC.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.Name) and node.id == "_GAUSSIAN_REACH" for node in ast.walk(fn))
    )
    assert calls == ["cli._data_family", "linear_flow._fold"]
    assert margin_readers == ["spectral.py"]
    assert reach_readers == ["cli._data_family"]
    assert sorted(path.name for path in SRC.glob("*.py") if "_GAUSSIAN_REACH" in path.read_text()) == ["cli.py"]


def _stride(call: ast.Call):
    """The record_stride argument of a SolverConfig call, positional or by keyword, or None."""
    given = call.args[2:3] + [kw.value for kw in call.keywords if kw.arg == "record_stride"]
    return given[0] if given else None


def test_one_record_rule():
    # evolve and scatter record each whole time by one rule: _nonlinear_run takes no switch of its
    # own, no config key sets a stride or a choice of snapshots, and the run evolve is given
    # records every step_at(2) steps; the one other config is the stride-1 lattice that checks the run
    cli = ast.parse((SRC / "cli.py").read_text())
    run = next(node for node in cli.body if isinstance(node, ast.FunctionDef) and node.name == "_nonlinear_run")
    signature = ast.unparse(run.args)
    key_reads = [
        f"cli.py:{node.lineno}: {node.value!r}"
        for node in ast.walk(cli)
        if isinstance(node, ast.Constant) and node.value in ("record_stride", "snapshots")
    ]
    configs = [
        node for node in ast.walk(cli) if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "SolverConfig"
    ]
    (evolve,) = [node for node in ast.walk(run) if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "evolve"]
    run_config = evolve.args[1]
    assert signature == "cfg: dict, keep"
    assert key_reads == []
    assert run_config in configs and ast.unparse(_stride(run_config)) == "lat.step_at(2.0)"
    assert [ast.unparse(_stride(node)) for node in configs if node is not run_config] == ["1"]
