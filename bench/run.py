#!/usr/bin/env python3
"""csymlab benchmark: CLI reports driven in process, one after another.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, then runs passes over its cases
through ``csymlab.cli.main`` for about S seconds, checks every report, and
prints one JSON result as the last line of stdout.  Untraced runs time each
case against the same case run by ``csymlab_ref``, a frozen copy of the
package, and spend the time left after the passes on the small case.  With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` each case runs untraced and then
traced, and the result holds the per-layer metrics.  A record of every case
time, probe outcome and the machine is written to ``bench/_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
OUT = BENCH / "_out"
# Untraced runs start passes in this share of the budget and spend the rest on
# paired small-case samples, at least MIN_SMALL_SAMPLES of them.
PASS_SHARE = 0.6
MIN_SMALL_SAMPLES = 8
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
GENERATED_AT = re.compile(r'"generated_at": "[^"]*"')
# Medians of the time metrics over raw runs of each workload on the 2-vCPU VM
# the benchmark was defined on (OpenBLAS 0.3.31, numpy 2.4.6).  They are
# reported at the host speed of that VM: the ratio of csymlab's time to
# csymlab_ref's, times this value.
REFERENCE_S = {
    "extend_large": {"setup_s": 0.50, "wall_s": 14.0, "large_case_s": 5.03, "small_case_s": 0.30},
    "verify_all_mixed": {"setup_s": 0.47, "wall_s": 15.3, "large_case_s": 7.36, "small_case_s": 0.83},
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "large_case_s": "s",
    "small_case_s": "s",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# Functions whose calls and self time are reported, by layer (module).
TRACED_FUNCTIONS = {
    "linalg": ("intersect", "complement", "orthonormal_basis", "max_angle_sin", "Subspace"),
    "relations": ("adjoint", "compose", "conjugated", "kernel", "multivalued_part"),
    "csym": ("adjoint_pair", "m_spaces", "is_c_selfadjoint", "anti_involution"),
    "doubling": ("build_doubled", "block_slices", "vn_decomposition", "race_decomposition"),
    "extensions": (
        "extension_from_parameter",
        "recover_parameter",
        "canonical_extension",
        "l_manifolds",
        "brute_force_extensions",
    ),
    "polar": ("polar", "takagi", "cjt_factorization"),
    "powers": ("power_report",),
    "problems": ("relation", "digest"),
    "cli": ("build_report",),
}


def per_layer_units() -> dict:
    units = {
        "linalg.svd.calls": "count",
        "linalg.svd.s": "s",
        "linalg.svd.work": "count",
        "linalg.svd.max_dim": "dim",
    }
    for layer, names in TRACED_FUNCTIONS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    units["csym.m_spaces.calls_per_report"] = "count"
    units["doubling.build_doubled.calls_per_report"] = "count"
    units["extensions.bf.hit_ratio"] = "ratio"
    for layer in tracer.LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(
        {
            "trace.wall_s": "s",
            "trace.untraced_wall_s": "s",
            "trace.overhead_s": "s",
            "trace.unattributed_s": "s",
        }
    )
    return units


def import_csymlab():
    """Import csymlab from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import csymlab
    except ImportError as exc:
        raise SystemExit(f"error: cannot import csymlab from {SRC}: {exc}")
    if Path(csymlab.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: csymlab was imported from {csymlab.__file__}, not from {SRC}")
    return csymlab


def setup_inputs(workload: str, seed: int, reference: bool = False):
    """Import csymlab, generate the workload's inputs and write its spec files.

    With ``reference``, csymlab_ref is imported and stands in for csymlab
    in sys.modules, so the set-up runs the frozen copy's code.
    """
    if reference:
        import csymlab_ref  # noqa: F401

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "csymlab_ref":
                sys.modules["csymlab" + name[len("csymlab_ref") :]] = module
    else:
        import_csymlab()
    import workloads

    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    return workdir, workloads.build(workload, seed, workdir)


def time_setup(workload: str, seed: int, reference: bool = False) -> float:
    """Wall time of a fresh process that does the set-up and exits."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only"]
    argv += ["--workload", workload, "--seed", str(seed)] + ["--reference"] * reference
    start = perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


class Reference:
    """Runs cases through ``csymlab_ref``, a frozen copy of csymlab.

    On a shared host the speed of this code drifts by half and more within
    minutes.  The frozen copy is the same code as csymlab at the commit
    that defined the benchmark, so it sees every kind of drift the same
    way.  Each timed report is run next to the same report by the copy and
    reported relative to it.  A change to csymlab moves the ratio, because
    the copy does not change with it.
    """

    def __init__(self):
        from csymlab_ref import cli

        self.main = cli.main

    def time(self, case) -> float:
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            try:
                code = self.main(list(case.argv))
            except SystemExit as exc:
                code = exc.code
            seconds = perf_counter() - start
        if code != case.exit_code:
            raise SystemExit(f"error: csymlab_ref exited {code} on {case.name}, expected {case.exit_code}")
        return seconds


def lookup(report, path: str):
    value = report
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return "<missing>"
        value = value[key]
    return value


@dataclass
class Outcome:
    case: str
    pass_index: int
    probe: bool
    traced: bool
    seconds: float
    code: int | None
    error: str = ""
    problems: list = field(default_factory=list)
    failed: bool = False
    reproduced: bool | None = None  # probes: the documented defect showed
    extra: bool = False  # a repeat of a case within its pass, left out of fail_ratio


class Runner:
    """Runs cases through csymlab.cli.main and applies the correctness gate."""

    def __init__(self, spans: tracer.Tracer | None = None):
        from csymlab import cli

        self.cli = cli
        self.spans = spans
        self.outcomes: list[Outcome] = []
        self._digests: dict = {}
        self._reports = 0

    def run(self, case, pass_index: int, traced: bool = False, record: bool = True, extra: bool = False) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        argv = list(case.argv)
        crash = ""
        gc.collect()  # so garbage left by earlier reports is not collected inside the timer
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                if traced:
                    code = self.spans.run_report(self._reports, self.cli.main, argv)
                else:
                    code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                crash = traceback.format_exc()
            seconds = perf_counter() - start
        self._reports += 1
        outcome = Outcome(case.name, pass_index, case.probe, traced, seconds, code, extra=extra)
        if record:
            self._check(case, outcome, out.getvalue(), err.getvalue(), crash)
            self.outcomes.append(outcome)
        return outcome

    def _check(self, case, outcome: Outcome, stdout: str, stderr: str, crash: str):
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            report = None
        if isinstance(report, dict) and "error" in report:
            outcome.error = str(report["error"])
        elif stderr.strip():
            outcome.error = stderr.strip().splitlines()[-1]
        problems = outcome.problems
        if crash:
            problems.append("uncaught exception: " + crash.strip().splitlines()[-1])
            outcome.error = crash
        elif case.probe:
            outcome.reproduced = outcome.code == case.exit_code and case.error in outcome.error
        else:
            if outcome.code != case.exit_code:
                problems.append(f"exit code {outcome.code}, expected {case.exit_code}")
            if not isinstance(report, dict):
                problems.append("stdout is not one JSON report")
            else:
                if report.get("all_pass") is not True:
                    problems.append("all_pass is not true")
                for path, want in case.expect.items():
                    got = lookup(report, path)
                    if got != want or type(got) is not type(want):
                        problems.append(f"{path} = {got!r}, expected {want!r}")
        text = f"{outcome.code}\n" + GENERATED_AT.sub('"generated_at": ""', stdout)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self._digests.setdefault(case.name, digest) != digest:
            problems.append("report differs from the first pass apart from generated_at")
        passed = outcome.code == 0 and isinstance(report, dict) and report.get("all_pass") is True
        outcome.failed = bool(problems) or not passed


def run_passes(runner: Runner, cases, seconds: float, trace: bool, sample_setup=None, reference=None) -> list:
    """Closed loop over the cases until the next pass would overrun the budget.

    Each pass runs the probes (untimed, untraced), then every timed case.
    Traced runs time each case untraced and then traced, back to back, so
    the two times see the same host load.  Untraced runs time each case,
    then the same case by the reference copy, then the case again; the
    second run is left out of fail_ratio.  sample_setup is called before
    each pass and half way through it.
    """
    timed = [c for c in cases if not c.probe]
    probes = [c for c in cases if c.probe]
    passes: list[dict] = []
    start = perf_counter()
    last = 0.0
    while not passes or perf_counter() - start + last <= seconds:
        index = len(passes)
        pass_start = perf_counter()
        for case in probes:
            runner.run(case, index)
        if sample_setup is not None:
            sample_setup()
        times: dict = {case.name: [] for case in timed}
        traced_times: dict = {case.name: [] for case in timed} if trace else {}
        reference_times: dict = {case.name: [] for case in timed} if reference is not None else {}
        for position, case in enumerate(timed):
            if position == len(timed) // 2 and sample_setup is not None:
                sample_setup()
            times[case.name].append(runner.run(case, index).seconds)
            if trace:
                runner.spans.install()
                try:
                    traced_times[case.name].append(runner.run(case, index, traced=True).seconds)
                finally:
                    runner.spans.uninstall()
            elif reference is not None:
                reference_times[case.name].append(reference.time(case))
                times[case.name].append(runner.run(case, index, extra=True).seconds)
        passes.append({"times": times, "traced_times": traced_times, "reference_times": reference_times})
        last = perf_counter() - pass_start
    return passes


def sample_small(runner: Runner, reference: Reference, case, index: int, deadline: float) -> list:
    """Runs of the small case alternating with runs of it by the reference
    copy, while the next is expected to end by deadline (at least
    MIN_SMALL_SAMPLES).  Returns [reference before, case, reference after]
    times; the reference run after one sample is the one before the next.
    """
    samples: list = []
    before = reference.time(case)
    cost = 0.0
    while len(samples) < MIN_SMALL_SAMPLES or perf_counter() + cost <= deadline:
        seconds = runner.run(case, index, extra=True).seconds
        after = reference.time(case)
        samples.append([before, seconds, after])
        cost = max(cost, seconds + after)
        before = after
    return samples


def case_medians(passes, key: str = "times") -> dict:
    samples: dict = {}
    for p in passes:
        for name, values in p[key].items():
            samples.setdefault(name, []).extend(values)
    return {name: statistics.median(values) for name, values in samples.items()}


def end_to_end_metrics(workload, passes, small_samples, outcomes, setup_times) -> dict:
    """Times at the reference host speed (REFERENCE_S).  setup_s is the
    median ratio of the set-up samples.  wall_s is a typical
    pass: the sum of the per-case medians over the sum of the reference
    copy's.  small_case_s is a median of ratios: the small case's mean time
    in each pass over the reference run between, and each of the
    small-case samples over the mean reference time around it."""
    import workloads

    medians = case_medians(passes)
    reference = case_medians(passes, "reference_times")
    scheduled = [o for o in outcomes if not o.extra]  # each case once per pass
    large = workloads.LARGE_CASE[workload]
    large = large if large in medians else max(medians, key=medians.get)
    small = workloads.SMALL_CASE[workload]
    small_ratios = [statistics.mean(p["times"][small]) / p["reference_times"][small][0] for p in passes]
    small_ratios += [t / (0.5 * (before + after)) for before, t, after in small_samples]
    scale = REFERENCE_S[workload]
    return {
        "setup_s": statistics.median(t / ref for t, ref in setup_times) * scale["setup_s"],
        "wall_s": sum(medians.values()) / sum(reference.values()) * scale["wall_s"],
        "large_case_s": medians[large] / reference[large] * scale["large_case_s"],
        "small_case_s": statistics.median(small_ratios) * scale["small_case_s"],
        "fail_ratio": sum(o.failed for o in scheduled) / len(scheduled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(spans: tracer.Tracer, passes, n_timed: int) -> dict:
    k = len(passes)

    def stat(name, column):
        return spans.stats[name][column] / k if name in spans.stats else 0.0

    out = {
        "linalg.svd.calls": stat(tracer.SVD, 0),
        "linalg.svd.s": stat(tracer.SVD, 1),
        "linalg.svd.work": spans.counters["linalg.svd.work"] / k,
        "linalg.svd.max_dim": spans.counters["linalg.svd.max_dim"],
    }
    for layer, names in TRACED_FUNCTIONS.items():
        for name in names:
            out[f"{layer}.{name}.calls"] = stat(f"{layer}.{name}", 0)
            out[f"{layer}.{name}.self_s"] = stat(f"{layer}.{name}", 2)
    out["csym.m_spaces.calls_per_report"] = out["csym.m_spaces.calls"] / n_timed
    out["doubling.build_doubled.calls_per_report"] = out["doubling.build_doubled.calls"] / n_timed
    candidates = spans.counters["extensions.bf.candidates"]
    out["extensions.bf.hit_ratio"] = spans.counters["extensions.bf.hits"] / candidates if candidates else 0.0
    layer_self = spans.layer_self_seconds()
    for layer in tracer.LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0) / k
    out["trace.wall_s"] = sum(case_medians(passes, "traced_times").values())
    out["trace.untraced_wall_s"] = sum(case_medians(passes).values())
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["trace.unattributed_s"] = stat(tracer.ROOT_SPAN, 2)
    return out


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, only=None):
    """One benchmark run; returns (result, record, tracer or None).

    ``only`` keeps just the named timed cases (the probes always run); it
    must name the workload's small case.
    """
    import_csymlab()
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    setup_times: list = []  # [csymlab, csymlab_ref] set-up seconds

    def sample_setup():
        setup_times.append([time_setup(workload, seed), time_setup(workload, seed, reference=True)])

    workdir, cases = setup_inputs(workload, seed)
    try:
        if only is not None:
            cases = [c for c in cases if c.probe or c.name in only]
        spans = tracer.Tracer() if trace else None
        runner = Runner(spans)
        small = next(c for c in cases if c.name == workloads.SMALL_CASE[workload])
        runner.run(small, -1, record=False)
        small_samples: list = []
        if trace:
            passes = run_passes(runner, cases, seconds, trace)
        else:
            reference = Reference()
            reference.time(small)
            start = perf_counter()
            passes = run_passes(runner, cases, PASS_SHARE * seconds, trace, sample_setup, reference)
            small_samples = sample_small(runner, reference, small, len(passes) - 1, start + seconds)
            sample_setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcomes = runner.outcomes
    n_timed = len(passes[0]["times"])
    if trace:
        values, units = per_layer_metrics(spans, passes, n_timed), per_layer_units()
    else:
        values, units = end_to_end_metrics(workload, passes, small_samples, outcomes, setup_times), END_TO_END
    broken = [o for o in outcomes if o.problems]
    result = {
        "correct": not broken,
        "attempted": len(outcomes),
        "failed": len(broken),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "provenance": provenance(workload, seed),
        "seconds": seconds,
        "trace": trace,
        "setup_times": setup_times,
        "passes": passes,
        "small_samples": small_samples,
        "outcomes": [vars(o) for o in outcomes],
        "result": result,
    }
    return result, record, spans


def summary_lines(record) -> list[str]:
    passes = record["passes"]
    lines = []
    counts = {name: sum(len(p["times"][name]) for p in passes) for name in passes[0]["times"]}
    reference = case_medians(passes, "reference_times")
    for name, median in case_medians(passes).items():
        line = f"case {name}: median {median:.4f} s over {counts[name]} untraced samples"
        if name in reference:
            line += f", csymlab_ref median {reference[name]:.4f} s"
        lines.append(line)
    samples = record["small_samples"]
    if samples:
        raw = statistics.median(t for _, t, _ in samples)
        ref = statistics.median(r for before, _, after in samples for r in (before, after))
        lines.append(
            f"small case paired with csymlab_ref: {len(samples)} samples, median {raw:.4f} s,"
            f" csymlab_ref median {ref:.4f} s"
        )
    seen = set()
    for o in record["outcomes"]:
        if o["probe"] and o["case"] not in seen:
            seen.add(o["case"])
            error = o["error"].strip().splitlines()[-1] if o["error"].strip() else ""
            lines.append(f"probe {o['case']}: exit {o['code']}, reproduces known defect: {o['reproduced']}, error: {error}")
    for o in record["outcomes"]:
        for problem in o["problems"]:
            lines.append(f"FAILED {o['case']} (pass {o['pass_index']}): {problem}")
    lines.append("provenance " + json.dumps(record["provenance"], sort_keys=True))
    return lines


def write_outputs(record, spans, workload: str, seed: int, trace: bool):
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if spans is not None:
        with gzip.open(OUT / f"{stem}-spans.json.gz", "wt") as handle:
            json.dump(spans.span_table(), handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        workdir, _ = setup_inputs(args.workload, args.seed, args.reference)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0
    result, record, spans = run(args.workload, args.seed, args.seconds, bool(args.trace))
    write_outputs(record, spans, args.workload, args.seed, bool(args.trace))
    for line in summary_lines(record):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
