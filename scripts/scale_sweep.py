#!/usr/bin/env python3
"""Scale sweep of `extend` on race_schrodinger at h=0.02.

    python3 scripts/scale_sweep.py --label change
    python3 scripts/scale_sweep.py --src OTHER_CHECKOUT/src --label parent
    python3 scripts/scale_sweep.py --label "change n=2048" --sizes 2048

For each n of --sizes (SIZES by default) the report runs REPEATS times untraced and once under
the benchmark's span tracer (bench/tracer.py), each run in a fresh child
process that imports csymlab from --src (this checkout's src/ by default)
and calls the CLI in process.  The untraced runs give the wall time (the
median is recorded, with every run), the peak resident set size of the
median run, and the exit code with the error message of a failed report;
for a report that exits 1, `failed` names the stage: the error of the
violated property, or the names of the failed checks.
The traced run gives the tracer's SVD call count and largest SVD
dimension (`linalg.svd.calls` and `linalg.svd.max_dim` of the benchmark;
SVDs inside np.linalg.norm are counted), the shape of the largest SVD by
entry count, and the number of np.linalg.eigvalsh calls (the Gram
eigenvalues of the 2-norms) with the dimension of the largest Gram matrix
among them.  The results are stored under --label in --out
(BENCH_scale.json at the repository root), next to the runs already
there, so one file holds a before/after pair measured on the same machine.
The sweep is a record: it is not a workload of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = ["extend", "--example", "race_schrodinger", "--h", "0.02"]
SIZES = (128, 256, 512, 1024)
# one run is at the mercy of a shared host; the median of three is steadier
REPEATS = 3

CHILD = r"""
import contextlib, io, json, resource, sys, time
src, bench, argv, traced = sys.argv[1], sys.argv[2], json.loads(sys.argv[3]), sys.argv[4] == "1"
sys.path[:0] = [src, bench]
import numpy as np
import tracer
from csymlab.cli import main

EIGVALSH = "linalg.eigvalsh"


class ShapeTracer(tracer.Tracer):
    # the benchmark's tracer, also keeping the shape of each SVD it observes
    # and counting the Gram eigenvalue solves of the 2-norms with their size
    def __init__(self):
        super().__init__()
        self.svd_shapes = []
        self.eigvalsh_max_dim = 0

    def install(self):
        super().install()
        self._patch(np.linalg, "eigvalsh", self.wrap(EIGVALSH, np.linalg.eigvalsh, self._observe_eigvalsh))

    def _observe_eigvalsh(self, args, result, parent):
        self.eigvalsh_max_dim = max(self.eigvalsh_max_dim, int(np.shape(args[0])[-1]))

    def _observe_svd(self, args, result, parent):
        super()._observe_svd(args, result, parent)
        self.svd_shapes.append([int(d) for d in np.shape(args[0])[-2:]])


spans = ShapeTracer()
if traced:
    spans.install()
err, printed = io.StringIO(), io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(err):
    code = main(argv)
wall = time.perf_counter() - start
out = {"exit_code": code, "error": err.getvalue().strip() or None}
if code == 1:
    report = json.loads(printed.getvalue())
    out["failed"] = report.get("error") or [c["name"] for c in report["check_list"] if c["status"] == "fail"]
if traced:
    out["svd_calls"] = spans.stats[tracer.SVD][0]
    out["eigvalsh_calls"] = spans.stats[EIGVALSH][0]
    out["eigvalsh_max_dim"] = spans.eigvalsh_max_dim
    out["svd_max_dim"] = int(spans.counters["linalg.svd.max_dim"])
    out["largest_svd"] = max(spans.svd_shapes, key=lambda s: (s[0] * s[1], s), default=None)
else:
    out["wall_s"] = round(wall, 3)
    out["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
print(json.dumps(out))
"""


def child(src: Path, argv: list, traced: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(ROOT / "bench"), json.dumps(argv), str(int(traced))],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(src: Path, n: int) -> dict:
    """The median of REPEATS untraced runs at n, every wall time, and the
    SVD counts of one traced run."""
    argv = [*COMMAND, "--n", str(n)]
    runs = sorted((child(src, argv, traced=False) for _ in range(REPEATS)), key=lambda run: run["wall_s"])
    median = runs[len(runs) // 2]
    return {"n": n, **median, "wall_s_runs": [run["wall_s"] for run in runs], **child(src, argv, traced=True)}


def machine() -> dict:
    import numpy as np

    threads = {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads_env": threads,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding csymlab/")
    parser.add_argument("--label", required=True, help="name of this run in the output file")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json")
    parser.add_argument("--sizes", type=int, nargs="+", default=SIZES, metavar="N", help="values of n to run")
    args = parser.parse_args()
    if not (args.src / "csymlab" / "__init__.py").is_file():
        parser.error(f"no csymlab package under {args.src}")
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record["command"] = " ".join(COMMAND) + " --n N"
    record["machine"] = machine()
    results = []
    for n in args.sizes:
        results.append(measure(args.src.resolve(), n))
        print(json.dumps(results[-1]), file=sys.stderr)
    record.setdefault("runs", {})[args.label] = results
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
