"""One benchmark pass in a fresh process.

Imports ``gbbmlab.cli`` from the checkout's ``src`` directory, runs
``cli.main`` once per invocation, and writes a JSON report.  The spec comes
as JSON on stdin: ``{"invocations": [[argv...], ...], "trace": bool,
"pass_id": int, "context": bool, "report": path}``.

The import happens first, before the spec is read, so that ``t_imported``
marks the end of set-up.  ``perf_counter`` is CLOCK_MONOTONIC on Linux, so
the parent compares it with its own spawn time.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import gbbmlab  # noqa: E402
from gbbmlab import cli  # noqa: E402

T_IMPORTED = time.perf_counter()

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402


def runtime_context() -> dict:
    """What the numbers depend on inside this process."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": openblas_threads(),
        "process_threads": len(os.listdir("/proc/self/task")),
    }


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def main() -> None:
    spec = json.load(sys.stdin)
    if not os.path.abspath(gbbmlab.__file__).startswith(SRC + os.sep):
        sys.exit(f"gbbmlab was imported from {gbbmlab.__file__}, not from {SRC}")
    tracer = None
    if spec["trace"]:
        from tracing import Tracer  # the script's own directory is on sys.path

        tracer = Tracer(spec["pass_id"])
        tracer.install()
    calls = []
    for argv in spec["invocations"]:
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc, error = e.code if isinstance(e.code, int) else 1, f"SystemExit({e.code!r})"
        except Exception as e:  # a crash is a failed invocation, not a failed pass
            rc, error = -1, f"{type(e).__name__}: {e}"
        t1, c1 = time.perf_counter(), time.process_time()
        calls.append({"rc": rc, "error": error, "wall_s": t1 - t0, "cpu_s": c1 - c0})
    report = {
        "t_imported": T_IMPORTED,
        "calls": calls,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["pass_id"] = tracer.pass_id
        report["spans"] = tracer.spans
    if spec["context"]:
        report["context"] = runtime_context()
    with open(spec["report"], "w") as f:
        json.dump(report, f)


if __name__ == "__main__":
    main()
