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
