"""Benchmark workloads: the CLI argv of every case, the inputs generated
from the seed, and the exact results each report is checked against.

A case's ``expect`` maps a dotted path into the JSON report to the value it
must hold.  Paths address the top-level ``regime`` and the integer fields
of ``results`` (deficiency dimensions, extension ``dims``, enumeration hit
counts).  Probes reproduce known defects: they run in every pass, count in
``fail_ratio`` and are kept out of the time metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from csymlab.fixtures import haar_unitary, random_conjugation, random_csym_matrix, random_symmetric
from csymlab.linalg import DEFAULT_TOL, orthonormal_basis
from csymlab.problems import ProblemSpec

@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    probe: bool = False
    exit_code: int = 0
    error: str = ""


def restriction(n: int, k: int, rng: np.random.Generator, name: str) -> ProblemSpec:
    """C-self-adjoint matrix for a random conjugation, restricted to a random
    k-dimensional domain.  frakM has dimension 2(n - k) for every seed."""
    c = random_conjugation(n, rng)
    a = random_csym_matrix(n, rng, c)
    z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    domain = orthonormal_basis(z, DEFAULT_TOL, n).basis
    return ProblemSpec(name, n, "matrix", c.matrix, domain, a @ domain, DEFAULT_TOL)


def complex_symmetric(n: int, rng: np.random.Generator, name: str) -> ProblemSpec:
    """Everywhere-defined A = A^T under entrywise conjugation (takagi path)."""
    return ProblemSpec(name, n, "entrywise", None, None, random_symmetric(n, rng), DEFAULT_TOL)


def takagi_probe(rng: np.random.Generator, name: str) -> ProblemSpec:
    """Q diag(3,3,3,2,1,1) 1e4 Q^T: degenerate singular values at scale 1e4,
    which the absolute rounding in takagi groups wrongly."""
    q = haar_unitary(6, rng)
    m = 1e4 * (q * np.array([3.0, 3.0, 3.0, 2.0, 1.0, 1.0])) @ q.T
    return ProblemSpec(name, 6, "entrywise", None, None, m, DEFAULT_TOL)


def _write(spec: ProblemSpec, workdir: Path) -> str:
    path = workdir / f"{spec.name}.json"
    path.write_text(json.dumps(spec.to_json_dict()))
    return str(path)


def _dims(n: int, k: int) -> dict:
    """Extension dims of a C-symmetric relation with a k-dimensional domain in C^n."""
    return {"graph_a": k, "graph_ext": n, "graph_bstar": 2 * n - k, "n_plus": 2 * (n - k), "l_graph": n - k}


def _prefixed(prefix: str, values: dict) -> dict:
    return {f"{prefix}.{key}": value for key, value in values.items()}


def _verify_expect(n: int, k: int, regime: str, hits: int, operator_hits: int) -> dict:
    out = {
        "regime": regime,
        "results.deficiency.n_plus": 2 * (n - k),
        "results.deficiency.n_minus": 2 * (n - k),
        "results.enumerate.hits": hits,
        "results.enumerate.operator_hits": operator_hits,
        "results.vn.regime": regime,
        "results.race.regime": regime,
    }
    out.update(_prefixed("results.extend.dims", _dims(n, k)))
    out.update(_prefixed("results.extend_swap.dims", _dims(n, k)))
    return out


def _race(n: int) -> tuple[str, ...]:
    return ("--example", "race_schrodinger", "--n", str(n), "--h", "0.02")


def extend_large(seed: int, workdir: Path) -> list[Case]:
    cases = []
    for n in (64, 128):
        k = n - 2
        defi = {"regime": "relation", "results.n_plus": 2 * (n - k), "results.n_minus": 2 * (n - k)}
        ext = {"regime": "relation", **_prefixed("results.dims", _dims(n, k))}
        cases.append(Case(f"deficiency_race_n{n}", ("deficiency", *_race(n)), defi))
        cases.append(Case(f"extend_race_n{n}", ("extend", *_race(n)), ext))
        cases.append(Case(f"extend_swap_race_n{n}", ("extend", *_race(n), "--swap"), ext))
    cases.append(
        Case(
            "probe_deficiency_race_n56",
            ("deficiency", "--example", "race_schrodinger", "--n", "56"),
            probe=True,
            exit_code=2,
            error="rank 47 from 54 pairs",
        )
    )
    return [_with_seed(c, seed) for c in cases]


def verify_all_mixed(seed: int, workdir: Path) -> list[Case]:
    rng = np.random.default_rng([seed, 2])
    symmetric = _write(complex_symmetric(32, rng, f"complex_symmetric_n32_seed{seed}"), workdir)
    probe = _write(takagi_probe(rng, f"takagi_probe_seed{seed}"), workdir)
    guard = _write(restriction(8, 3, rng, f"restriction_n8_k3_seed{seed}"), workdir)
    race = ("verify-all", "--example", "race_schrodinger", "--n")
    cases = [
        Case("verify_race_n16", (*race, "16"), _verify_expect(16, 14, "relation", 57, 57)),
        Case("verify_race_n32", (*race, "32"), _verify_expect(32, 30, "relation", 93, 88)),
        Case(
            "verify_fd_n16",
            ("verify-all", "--example", "fd_derivative_minimal", "--n", "16"),
            _verify_expect(16, 14, "relation", 56, 56),
        ),
        Case(
            "verify_zero_n16",
            ("verify-all", "--example", "zero_on_subspace", "--n", "16"),
            _verify_expect(16, 14, "relation", 33, 23),
        ),
        Case(
            "verify_random_csym_n64",
            ("verify-all", "--example", "random_csym", "--n", "64"),
            _verify_expect(64, 64, "operator", 1, 1),
        ),
        Case(
            "verify_complex_symmetric_n32",
            ("verify-all", "--spec", symmetric),
            _verify_expect(32, 32, "operator", 1, 1),
        ),
        Case(
            "probe_verify_race_n24",
            (*race, "24"),
            probe=True,
            exit_code=1,
            error="kernels of I + A*B* and I + B*A* disagree",
        ),
        Case(
            "probe_verify_takagi_1e4",
            ("verify-all", "--spec", probe),
            probe=True,
            exit_code=1,
            error="symmetric factorization failed",
        ),
        Case(
            "probe_verify_all_frakM10",
            ("verify-all", "--spec", guard),
            probe=True,
            exit_code=2,
            error="exceeds the brute-force guard",
        ),
    ]
    return [_with_seed(c, seed) for c in cases]


def _with_seed(case: Case, seed: int) -> Case:
    return replace(case, argv=(*case.argv, "--seed", str(seed)))


CASE_LISTS = {
    "extend_large": extend_large,
    "verify_all_mixed": verify_all_mixed,
}
WORKLOADS = tuple(CASE_LISTS)

# The case whose time is reported as large_case_s / small_case_s.
LARGE_CASE = {
    "extend_large": "extend_race_n128",
    "verify_all_mixed": "verify_race_n32",
}
SMALL_CASE = {
    "extend_large": "deficiency_race_n64",
    "verify_all_mixed": "verify_zero_n16",
}


def build(workload: str, seed: int, workdir: Path) -> list[Case]:
    """Generate the workload's inputs into workdir and return its cases."""
    if workload not in CASE_LISTS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return CASE_LISTS[workload](seed, workdir)
