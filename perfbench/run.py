"""gbbmlab benchmark: whole CLI invocations, end to end, plus a traced pass
that times each layer.

    python3 perfbench/run.py --workload evolve --seed 0 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --trace 1   # every workload, every metric

The load is a closed loop with one client: one fresh child process per pass
(``child.py``), one pass at a time, until ``--seconds`` would be exceeded by
the next pass (at least three passes).  Each pass imports ``gbbmlab.cli``
from this checkout's ``src`` and calls ``cli.main`` once per invocation of
the workload; every invocation's outputs are then checked
(``workloads.check_invocation``).

End-to-end metrics (``--trace 0``), medians over the untraced passes:
``wall_s`` (``cli.main`` time of a pass, import excluded), ``setup_s``
(spawn of the child to the end of its ``import gbbmlab.cli``, numpy
included) and ``peak_rss_mb`` (the child's ``ru_maxrss``).  Failed
invocations go into ``attempted``/``failed`` and the printed ``fail_rate``.

With ``--trace 1`` the same untraced passes run, then one extra pass with the
wrappers of ``tracing.py`` installed; the per-layer metrics come from its
spans, and the run stops with an error if a wrapper the workload must
exercise recorded no call.

The last line of standard output is the JSON result; the lines before it
name every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")
MIN_PASSES = 3
CHILD_TIMEOUT_S = 60

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics printed by the traced run, with their units.
PER_LAYER = {
    "solver.step.calls": "count",
    "solver.step.ms_p50": "ms",
    "solver.step.ms_p99": "ms",
    "solver.step.self_s": "s",
    "solver.rhs.calls": "count",
    "solver.rhs.self_s": "s",
    "solver.quartic_hat.calls": "count",
    "solver.quartic_hat.s": "s",
    "solver.quartic_hat.ms_p50": "ms",
    "solver.evolve.self_s": "s",
    "solver.discrete_profile_of.s": "s",
    "spectral.Grid.frequencies.calls": "count",
    "spectral.Grid.frequencies.s": "s",
    "spectral.SpectralField.continuum_coeffs.calls": "count",
    "spectral.SpectralField.continuum_coeffs.s": "s",
    "diagnostics.Recorder.calls": "count",
    "diagnostics.Recorder.self_s": "s",
    "diagnostics.Recorder.ms_p50": "ms",
    "diagnostics.compute_norms.s": "s",
    "linear_flow.dispersive_bound.calls": "count",
    "linear_flow.dispersive_bound.self_s": "s",
    "linear_flow.evaluate_lp_piece.calls": "count",
    "linear_flow.evaluate_lp_piece.s": "s",
    "linear_flow.evaluate_lp_piece.ms_p99": "ms",
    "linear_flow.evaluate_lp_piece.points": "count",
    "linear_flow.propagate_linear.calls": "count",
    "linear_flow.propagate_linear.s": "s",
    "littlewood_paley.psi_k.s": "s",
    "resonance.enumerate_resonances.s": "s",
    "resonance.anomalous_resonance.calls": "count",
    "resonance.anomalous_resonance.s": "s",
    "resonance.find_roots.calls": "count",
    "resonance.find_roots.s": "s",
    "cli.main.self_s": "s",
    "cli.main.cpu_s": "s",
    "cli.OutputSink.s": "s",
    "cli.OutputSink.bytes": "B",
    "cli.outputs_identical": "count",
    "trace.overhead_frac": "ratio",
}

#: Layers whose self times are summed into the printed wall-time shares.
LAYERS = ("solver", "spectral", "diagnostics", "linear_flow", "littlewood_paley", "resonance", "cli")


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a result."""


@dataclass
class Pass:
    setup_s: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    attempted: int
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    identical: int = 0
    outputs: int = 0
    spans: list | None = None
    context: dict | None = None


def run_pass(name: str, seed: int, run_dir: str, pass_id: int, trace: bool, context: bool, refs) -> Pass:
    """One child process running every invocation of the workload once."""
    pass_dir = os.path.join(run_dir, f"pass{pass_id}")
    os.makedirs(pass_dir)
    argvs = workloads.WORKLOADS[name].invocations(seed)
    out_dirs = [os.path.join(pass_dir, f"inv{j:02d}") for j in range(len(argvs))]
    report_path = os.path.join(pass_dir, "report.json")
    spec = {
        "invocations": [argv + ["--output-dir", d] for argv, d in zip(argvs, out_dirs)],
        "trace": trace,
        "pass_id": pass_id,
        "context": context,
        "report": report_path,
    }
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchmarkError(f"{name} pass {pass_id} exceeded {CHILD_TIMEOUT_S} s") from e
    if proc.returncode != 0 or not os.path.exists(report_path):
        raise BenchmarkError(f"{name} pass {pass_id}: child exited {proc.returncode}\n{proc.stderr[-2000:]}")
    with open(report_path) as f:
        report = json.load(f)
    calls = report["calls"]
    p = Pass(
        setup_s=report["t_imported"] - t_spawn,
        wall_s=sum(c["wall_s"] for c in calls),
        cpu_s=sum(c["cpu_s"] for c in calls),
        rss_mb=report["maxrss_kb"] / 1024.0,
        attempted=len(calls),
        spans=report.get("spans"),
        context=report.get("context"),
    )
    for j, (argv, call, out_dir) in enumerate(zip(argvs, calls, out_dirs)):
        if call["rc"] != 0:
            bad = [f"exit {call['rc']} {call['error'] or ''}".strip()]
        else:
            checked = workloads.check_invocation(argv, out_dir, refs[j] if refs else None)
            bad = checked.problems
            p.identical += checked.identical
            p.outputs += checked.outputs
        if bad:
            p.failed += 1
            p.problems += [f"{' '.join(argv)}: {b}" for b in bad]
    if trace:
        os.replace(report_path, os.path.join(WORK, f"trace-{name}.json"))
    shutil.rmtree(pass_dir)
    return p


def machine_context() -> dict:
    """Cores, CPU model, cache and memory sizes of this machine."""

    def read(path: str) -> str:
        try:
            with open(path) as f:
                return f.read().strip()
        except OSError:
            return "unknown"

    model = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for index in sorted(os.listdir(cache_dir)):
            if index.startswith("index"):
                base = os.path.join(cache_dir, index)
                level, kind = read(os.path.join(base, "level")), read(os.path.join(base, "type"))
                if kind != "Instruction":
                    caches[f"L{level}"] = read(os.path.join(base, "size"))
    mem = next((line.split(":", 1)[1].strip() for line in read("/proc/meminfo").splitlines() if line.startswith("MemTotal")), "unknown")
    return {"cores": os.cpu_count(), "cpu": model, "caches": caches, "memory": mem}


def _print_metric(name: str, value: float, unit: str, samples: int) -> None:
    print(f"metric {name} {value!r} {unit} n={samples}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and print its metrics; return its JSON result."""
    refs = workloads.load_reference(name) if seed == 0 else None
    run_dir = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        passes: list[Pass] = []
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            passes.append(run_pass(name, seed, run_dir, len(passes), False, not passes, refs))
            now = time.perf_counter()
            if len(passes) >= MIN_PASSES and now + (now - started) > deadline:
                break
        traced = run_pass(name, seed, run_dir, len(passes), True, False, refs) if trace else None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    workload = workloads.WORKLOADS[name]
    context = {"machine": machine_context(), "runtime": passes[0].context, "why": workload.why, **workloads.NOTES}
    print(f"# perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("invocations " + json.dumps(workload.invocations(seed)))
    print("context " + json.dumps(context))

    n = len(passes)
    end_to_end = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(p.setup_s for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    for metric, value in end_to_end.items():
        _print_metric(metric, value, END_TO_END[metric], n)
    print("samples wall_s " + json.dumps([round(p.wall_s, 4) for p in passes]))
    print("samples cpu_s " + json.dumps([round(p.cpu_s, 4) for p in passes]))
    everything = passes + ([traced] if traced else [])
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    identical = min(p.identical for p in everything)
    print(f"fail_rate {failed / attempted!r} ({failed}/{attempted} invocations)")
    print(f"outputs_identical {identical}/{passes[0].outputs} " + ("vs reference" if refs else "(no reference for seed != 0)"))
    for problem, count in collections.Counter(q for p in everything for q in p.problems).items():
        print(f"failure x{count} {problem}")

    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    if traced is not None:
        metrics = per_layer_metrics(workload, traced, passes, end_to_end["wall_s"], identical)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer_metrics(workload, traced: Pass, passes: list[Pass], wall_s: float, identical: int) -> dict:
    """Per-layer metrics of the traced pass; raises if a required wrapper is idle."""
    stats = tracing.summarize(traced.spans)
    idle = [s for s in workload.live if stats[f"{s}.calls"] == 0]
    if idle:
        raise BenchmarkError(f"traced {workload.name} pass recorded no calls of {', '.join(idle)}")
    self_total = sum(v for k, v in stats.items() if k.endswith(".self_s"))
    stats["cli.main.cpu_s"] = statistics.median(p.cpu_s for p in passes)
    stats["cli.outputs_identical"] = identical
    stats["trace.overhead_frac"] = traced.wall_s / wall_s - 1.0
    # Every span nests under cli.main, so the self times must add up to the
    # traced wall time, up to the time spent outside the wrappers.
    coverage = self_total / traced.wall_s
    print(f"self_sum_frac {coverage!r} of the traced wall time {traced.wall_s!r} s")
    if abs(coverage - 1.0) > max(abs(stats["trace.overhead_frac"]), 0.02):
        raise BenchmarkError(f"self times cover {coverage:.4f} of the traced wall time")
    for layer in LAYERS:
        share = sum(v for k, v in stats.items() if k.startswith(layer + ".") and k.endswith(".self_s")) / traced.wall_s
        print(f"layer_share {layer} {share:.4f}")
    for metric, unit in PER_LAYER.items():
        name = metric.rsplit(".", 1)[0]
        samples = stats.get(f"{name}.calls", 1) if metric.endswith(("ms_p50", "ms_p99")) else 1
        if metric == "cli.main.cpu_s":
            samples = len(passes)
        _print_metric(metric, stats[metric], unit, samples)
    return {k: {"value": stats[k], "unit": unit} for k, unit in PER_LAYER.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=27.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gbbmlab", "cli.py")):
        print(f"error: no gbbmlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except (BenchmarkError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
