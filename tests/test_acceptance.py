"""Acceptance criteria for the toolkit, one printed pass/fail line each.

Every criterion computes its own violation count or worst residual against
the stated budget and tolerance, prints a single summary line, and then
asserts.  Budgets are exact; tolerances are the contract values, not the
(tighter) values the implementation typically achieves.
"""

import json
import time

import numpy as np
import pytest

import csymlab as cs
from csymlab.cli import main
from csymlab.extensions import parameter_as_unitary

from conftest import (
    frak_a,
    frak_a_star,
    hit_relations,
    parameter_as_onb,
    sample_parameters,
    within,
    zero_relation,
)


def report(num, label, ok, detail):
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def complex_randn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def fixture_pool():
    """The named fixtures plus 50 random non-dense C-symmetric restrictions."""
    specs = [cs.zero_on_subspace(4), cs.minimal_identity(), cs.race_schrodinger(16)]
    rng = np.random.default_rng(42)
    for i in range(50):
        n = int(rng.integers(2, 7))
        specs.append(cs.random_restriction(n, seed=i))
    return specs


def test_criterion_01_conjugation_axioms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(200):
        n = 1 + i % 8
        c = cs.random_conjugation(n, rng)
        x, y = complex_randn(rng, n), complex_randn(rng, n)
        worst = max(worst, float(np.linalg.norm(c.apply(c.apply(x)) - x)))
        worst = max(worst, abs(cs.inner(c.apply(x), c.apply(y)) - cs.inner(y, x)))
    report(
        1,
        "conjugation axioms (200 runs, dims 1..8)",
        worst <= 1e-10,
        f"max residual {worst:.2e}, {time.perf_counter() - t0:.2f}s",
    )


def test_criterion_02_adjoint_involution():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    bad = 0
    for i in range(200):
        n = 1 + i % 8
        k = int(rng.integers(0, 2 * n + 1))
        if k:
            rel = cs.LinearRelation(
                cs.orthonormal_basis(complex_randn(rng, 2 * n, k), ambient_dim=2 * n)
            )
        else:
            rel = zero_relation(n)
        if not within(rel.adjoint().adjoint(), rel, 1e-9, equal=True):
            bad += 1
    report(
        2,
        "relation adjoint involution (200 runs)",
        bad == 0,
        f"{bad} failures, {time.perf_counter() - t0:.2f}s",
    )


def test_criterion_03_matrix_trick_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    counterexamples = 0
    for i in range(100):
        n = int(rng.integers(1, 7))
        c = cs.random_conjugation(n, rng)
        if i % 2 == 0:
            a = cs.from_matrix(cs.random_csym_matrix(n, rng, c))
        else:
            a = cs.from_matrix(complex_randn(rng, n, n))
        dp = cs.build_doubled(a, c)
        sym_pair = cs.is_c_symmetric(a, c) == frak_a(dp).contained_in(frak_a_star(dp))
        sa_pair = cs.is_c_selfadjoint(a, c) == frak_a(dp).equals(frak_a_star(dp))
        if not (sym_pair and sa_pair):
            counterexamples += 1
    report(
        3,
        "matrix-trick equivalence (100 matrices)",
        counterexamples == 0,
        f"{counterexamples} counterexamples, {time.perf_counter() - t0:.2f}s",
    )


def test_criterion_04_deficiency_structure():
    t0 = time.perf_counter()
    bad = 0
    worst = 0.0
    for spec in fixture_pool():
        dp = cs.build_doubled(spec.relation(), spec.conjugation())
        if dp.n_plus.dim != dp.n_minus.dim:
            bad += 1
            continue
        image = dp.frakC.map_subspace(dp.n_plus)
        if not within(image, dp.n_minus, 1e-9, equal=True):
            bad += 1
        worst = max(worst, cs.max_angle_sin(image, dp.n_minus) if image.dim else 0.0)
    report(
        4,
        "deficiency structure (53 fixtures)",
        bad == 0,
        f"{bad} failures, worst bijection angle {worst:.2e}, {time.perf_counter() - t0:.2f}s",
    )


def test_criterion_05_extension_soundness():
    t0 = time.perf_counter()
    bad = 0
    built = 0
    for spec in fixture_pool():
        dp = cs.build_doubled(spec.relation(), spec.conjugation())
        for p in sample_parameters(dp, 20, seed=5):
            graphs = []
            for form in (
                p,
                cs.ExtensionParameter("unitary", parameter_as_unitary(dp, p)),
                parameter_as_onb(dp, p),
            ):
                res = cs.extension_from_parameter(dp, form)
                graphs.append(res.a_ext.graph)
            built += 1
            contains = cs.max_angle_sin(dp.a.graph, graphs[0]) <= 1e-9
            csa = within(res.a_ext.conjugated(dp.c), res.a_ext.adjoint(), 1e-9, equal=True)
            same = all(within(graphs[0], g, 1e-9, equal=True) for g in graphs[1:])
            if not (contains and csa and same):
                bad += 1
    report(
        5,
        f"extension soundness ({built} sampled parameters, 3 forms each)",
        bad == 0,
        f"{bad} failures, {time.perf_counter() - t0:.2f}s",
    )


def test_criterion_06_extension_completeness():
    t0 = time.perf_counter()
    bad = 0
    counts = {}
    for label, spec in (("F_min", cs.minimal_identity()), ("F_zero", cs.zero_on_subspace(4))):
        dp = cs.build_doubled(spec.relation(), spec.conjugation())
        hits = hit_relations(dp, cs.brute_force_extensions(dp, budget=10**4, seed=0))
        counts[label] = len(hits)
        for h in hits:
            p = cs.recover_parameter(dp, h)
            rebuilt = cs.extension_from_parameter(dp, p)
            if not within(rebuilt.a_ext, h, 1e-9, equal=True):
                bad += 1
        if label == "F_min":
            landmarks = [np.diag([1.0, 0.0]), np.diag([1.0, 1.0]), np.diag([1.0, 1j])]
            for m in landmarks:
                target = cs.from_matrix(m.astype(complex))
                if not any(within(h, target, 1e-9, equal=True) for h in hits):
                    bad += 1
            if not any(not h.is_operator for h in hits):
                bad += 1
    report(
        6,
        "extension completeness (brute force, budget 10^4)",
        bad == 0,
        f"{bad} failures, hits F_min={counts['F_min']} F_zero={counts['F_zero']}, "
        f"{time.perf_counter() - t0:.2f}s",
    )


def test_criterion_07_l_manifold_decomposition():
    t0 = time.perf_counter()
    bad = 0
    produced = 0
    for spec in fixture_pool():
        dp = cs.build_doubled(spec.relation(), spec.conjugation())
        for swap in (False, True):
            res = cs.canonical_extension(dp, swap=swap)
            produced += 1
            if not res.checks.all_pass:
                bad += 1
    report(
        7,
        f"L-manifold decomposition ({produced} extensions)",
        bad == 0,
        f"{bad} failures, {time.perf_counter() - t0:.2f}s",
    )


def test_criterion_08_invariant_onb():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    bad = 0
    for i in range(200):
        n = 1 + i % 8
        c = cs.random_conjugation(n, rng)
        k = int(rng.integers(1, n + 1))
        raw = complex_randn(rng, n, k)
        fixed = raw + np.column_stack([c.apply(v) for v in raw.T])
        s = cs.orthonormal_basis(fixed)
        if s.dim == 0:
            continue
        onb = cs.invariant_onb(c, s)
        gram = float(np.abs(onb.conj().T @ onb - np.eye(s.dim)).max())
        fix = max(float(np.linalg.norm(c.apply(v) - v)) for v in onb.T)
        determinism = np.array_equal(onb, cs.invariant_onb(c, s))
        if onb.shape[1] != s.dim or gram > 1e-10 or fix > 1e-9 or not determinism:
            bad += 1
    report(
        8,
        "invariant orthonormal basis (200 runs)",
        bad == 0,
        f"{bad} failures, {time.perf_counter() - t0:.2f}s",
    )


def test_criterion_09_power_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    bad = 0
    for i in range(100):
        n = int(rng.integers(1, 6))
        order = 1 + i % 5
        c = cs.random_conjugation(n, rng)
        a = complex_randn(rng, n, n)
        x = complex_randn(rng, n)
        y = complex_randn(rng, n)
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        cap = 1e-9 * (1.0 + np.linalg.norm(a, 2)) ** (2 * order + 1)
        d = cs.doubled_matrix(a, c)
        blocks = cs.doubled_power_blocks(d, order)
        dev_even, dev_odd = cs.power_norm_identities(d, x, y, order)
        if blocks.block_residual > cap or dev_even > cap or dev_odd > cap:
            bad += 1
        if blocks.crosscheck_residual > 1e-10:
            bad += 1
    report(
        9,
        "power identities (100 instances, n in 1..5)",
        bad == 0,
        f"{bad} failures, {time.perf_counter() - t0:.2f}s",
    )


def test_criterion_10_polar_covariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    bad = 0
    for i in range(100):
        n = int(rng.integers(1, 7))
        if i % 4 == 0:
            c = cs.entrywise_conjugation(n)
            a = rng.standard_normal((n, n))  # real: exercises the C-real clause
        else:
            c = cs.random_conjugation(n, rng)
            a = complex_randn(rng, n, n)
        checks = cs.conjugation_covariance(cs.polar(a), c)
        residuals = [ch.residual for ch in checks if ch.residual is not None]
        if not checks.all_pass or (residuals and max(residuals) > 1e-9):
            bad += 1
    report(
        10,
        "polar conjugation covariance (100 matrices)",
        bad == 0,
        f"{bad} failures, {time.perf_counter() - t0:.2f}s",
    )


def test_criterion_11_cjt_factorization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    bad = 0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        c = cs.entrywise_conjugation(n)
        a = cs.random_symmetric(n, rng)
        f = cs.polar(a)
        j = cs.cjt_factorization(f, c)
        if not isinstance(j, cs.PartialConjugation):
            bad += 1
            continue
        rebuilt = np.column_stack([c.apply(j.apply(col)) for col in f.modulus.T])
        proj = f.phase.conj().T @ f.phase
        jtj = j.matrix @ np.conj(f.modulus) @ np.conj(j.matrix)
        cj = c.matrix @ np.conj(j.matrix)  # C o J is linear with matrix K conj(M_J)
        v, s = cs.takagi(f)
        indicator = (s > cs.DEFAULT_TOL.zero_cutoff(s[0] if s.size else 1.0)).astype(float)
        residuals = [
            np.abs(rebuilt - a).max(),
            np.abs((jtj - f.modulus) @ proj).max(),
            np.abs(cj - f.phase).max(),
            np.abs((v * s) @ v.T - a).max(),
            np.abs((v * indicator) @ v.T - f.phase).max(),
        ]
        if max(residuals) > 1e-9:
            bad += 1
    refused = 0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = complex_randn(rng, n, n)
        if cs.matrix_c_selfadjoint_residual(a, cs.entrywise_conjugation(n)) < 1e-6:
            continue
        out = cs.cjt_factorization(cs.polar(a), cs.entrywise_conjugation(n))
        if isinstance(out, cs.CjtRefusal) and out.residuals.get("phase_adjoint_identity", 0) > 0:
            refused += 1
    report(
        11,
        "CJT and Takagi factorization (100 + 20 refusals)",
        bad == 0 and refused >= 19,
        f"{bad} failures, {refused} diagnosed refusals, {time.perf_counter() - t0:.2f}s",
    )


def test_criterion_12_decompositions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    bad = 0
    # operator-regime vn instances: Hermitian restrictions doubled
    for seed in range(5):
        dp = cs.build_doubled(
            cs.random_restriction(4, seed=seed).relation(),
            cs.random_restriction(4, seed=seed).conjugation(),
        )
        rep = cs.vn_decomposition(dp)
        res = [c.residual for c in rep.checks if c.residual is not None]
        if not rep.checks.all_pass or (res and max(res) > 1e-9):
            bad += 1
    disagreements = 0
    for i in range(100):
        n = int(rng.integers(1, 7))
        c = cs.random_conjugation(n, rng)
        a = cs.random_csym_matrix(n, rng, c)
        if i % 2 == 0:
            rel = cs.from_matrix(a)
        else:
            k = int(rng.integers(1, n + 1))
            dom = cs.orthonormal_basis(complex_randn(rng, n, k), ambient_dim=n)
            rel = cs.LinearRelation(
                cs.orthonormal_basis(np.vstack([dom.basis, a @ dom.basis]), ambient_dim=2 * n)
            )
        race = cs.race_decomposition(cs.build_doubled(rel, c))
        corollary = race.measurements["dim_kernel"] == 0
        if corollary != cs.is_c_selfadjoint(rel, c) or not race.checks.all_pass:
            disagreements += 1
    report(
        12,
        "von Neumann and defect decompositions (5 + 100 runs)",
        bad == 0 and disagreements == 0,
        f"{bad} vn failures, {disagreements} corollary disagreements, "
        f"{time.perf_counter() - t0:.2f}s",
    )


def test_criterion_13_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    examples = [
        ("race_schrodinger", ["--n", "8"]),
        ("fd_derivative_minimal", []),
        ("random_csym", ["--n", "4"]),
        ("zero_on_subspace", ["--n", "4"]),
    ]
    bad = 0
    for name, extra in examples:
        payloads = []
        for run in range(2):
            path = tmp_path / f"{name}-{run}.json"
            code = main(
                ["verify-all", "--example", name, "--seed", "7", "--json", str(path)] + extra
            )
            capsys.readouterr()
            if code != 0:
                bad += 1
            data = json.loads(path.read_text())
            data.pop("generated_at")
            payloads.append(json.dumps(data, sort_keys=True))
        if payloads[0] != payloads[1]:
            bad += 1
    with capsys.disabled():
        report(
            13,
            "CLI verify-all determinism (4 fixtures, double run)",
            bad == 0,
            f"{bad} failures, {time.perf_counter() - t0:.2f}s",
        )
