"""Record the seed-0 reference outputs that the benchmark checks against.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload's seed-0 invocations once, in this process, and writes
``reference/<workload>.json``: per invocation, the manifest checksums, the
rows of every row-checked CSV, and the census labels and counts.  Re-record
only when a change is meant to move these outputs, and say which and why.
"""

import json
import os
import shutil
import sys

import workloads

ROOT = os.path.dirname(workloads.HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from gbbmlab import cli  # noqa: E402


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    scratch = os.path.join(ROOT, ".perfbench_work", "reference")
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in names:
        invocations = workloads.WORKLOADS[name].invocations(0)
        references = []
        for j, argv in enumerate(invocations):
            out_dir = os.path.join(scratch, f"{name}-{j:02d}")
            shutil.rmtree(out_dir, ignore_errors=True)
            if cli.main(argv + ["--output-dir", out_dir]) != 0:
                print(f"error: {' '.join(argv)} failed", file=sys.stderr)
                return 1
            references.append(workloads.reference_of(out_dir, argv[0]))
        with open(workloads.reference_path(name), "w") as f:
            json.dump({"invocations": invocations, "references": references}, f, indent=1)
            f.write("\n")
        print(f"wrote {workloads.reference_path(name)}")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
