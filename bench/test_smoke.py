"""Smoke test of the benchmark.

Runs the smallest case of each workload untraced and traced and checks that
every metric BENCHMARK.json names is emitted with its unit.  Also checks the
SVD counter against an independent count taken with a profile hook.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_csymlab()

import tracer  # noqa: E402
import workloads  # noqa: E402
from csymlab import cli  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
EXTEND_N128 = ["extend", "--example", "race_schrodinger", "--n", "128", "--h", "0.02"]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_case_emits_every_metric(workload, trace):
    result, record, _ = run.run(
        workload, seed=0, seconds=0, trace=trace, only={workloads.SMALL_CASE[workload]}
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    values = {name: m["value"] for name, m in result["metrics"].items()}
    probes = {o["case"] for o in record["outcomes"] if o["probe"]}
    assert probes and all(any(line.startswith(f"probe {p}:") for line in run.summary_lines(record)) for p in probes)
    if trace:
        accounted = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS) + values["trace.unattributed_s"]
        assert accounted == pytest.approx(values["trace.wall_s"], rel=0.02)
    else:
        assert values["fail_ratio"] > 0


def _profiled_svd_calls(argv) -> tuple[int, int]:
    """(direct, via np.linalg.norm) SVD calls, counted by a profile hook."""
    code = getattr(np.linalg.svd, "_implementation", np.linalg.svd).__code__
    counts = [0, 0]

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            counts[frame.f_back.f_code.co_name == "_multi_svd_norm"] += 1

    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        sys.setprofile(None)
    return counts[0], counts[1]


def test_svd_counter_matches_independent_count():
    direct, via_norm = _profiled_svd_calls(EXTEND_N128)
    assert (direct, via_norm) == (192, 27)

    original = np.linalg.svd
    t = tracer.Tracer()
    t.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(EXTEND_N128) == 0
    finally:
        t.uninstall()
    assert t.stats[tracer.SVD][0] == direct + via_norm == 219
    assert np.linalg.svd is original
    assert cli.build_report.__module__ == "csymlab.cli" and not hasattr(cli.build_report, "__wrapped__")
