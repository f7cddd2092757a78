"""Polar factors, conjugation covariance, CJT and Takagi factorizations."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import csymlab as cs
from csymlab.cli import main

from conftest import random_complex


def test_import_csymlab_leaves_scipy_linalg_unloaded():
    src = str(Path(cs.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import csymlab; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_polar_matches_scipy_on_invertible(rng):
    a = random_complex(rng, 4, 4) + 3.0 * np.eye(4)
    f = cs.polar(a)
    u, p = scipy.linalg.polar(a, side="right")
    np.testing.assert_allclose(f.phase, u, atol=1e-10)
    np.testing.assert_allclose(f.modulus, p, atol=1e-10)
    assert f.rank == 4


def test_polar_rank_deficient(rng):
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    f = cs.polar(a)
    assert f.rank == 1
    np.testing.assert_allclose(f.phase @ f.modulus, a, atol=1e-12)
    # phase is a partial isometry: phase^H phase projects onto range(|A|)
    p = f.phase.conj().T @ f.phase
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    assert np.trace(p).real == pytest.approx(1.0)
    # modulus is PSD with the right square
    np.testing.assert_allclose(f.modulus @ f.modulus, a.conj().T @ a, atol=1e-12)


def test_polar_zero_matrix():
    f = cs.polar(np.zeros((3, 3)))
    assert f.rank == 0
    np.testing.assert_allclose(f.modulus, 0.0, atol=1e-15)


def test_conjugation_covariance(rng):
    for _ in range(25):
        n = int(rng.integers(1, 7))
        c = cs.random_conjugation(n, rng)
        a = random_complex(rng, n, n)
        checks = cs.conjugation_covariance(cs.polar(a), c)
        assert checks.all_pass, checks.to_list()


def test_covariance_c_real_clause(rng):
    # real matrix, entrywise C: |A| and the phase are C-real
    a = rng.standard_normal((4, 4))
    checks = cs.conjugation_covariance(cs.polar(a), cs.entrywise_conjugation(4))
    names = [c.name for c in checks if c.status == "pass"]
    assert "c_real_modulus" in names


def test_matrix_c_selfadjoint_residual(rng):
    c = cs.random_conjugation(4, rng)
    a = cs.random_csym_matrix(4, rng, c)
    assert cs.matrix_c_selfadjoint_residual(a, c) <= 1e-12
    assert cs.matrix_c_selfadjoint_residual(a + np.diag([1j, 0, 0, 0]), c) > 1e-3


def test_cjt_on_complex_symmetric(rng):
    for _ in range(25):
        n = int(rng.integers(1, 7))
        c = cs.entrywise_conjugation(n)
        a = cs.random_symmetric(n, rng)
        f = cs.polar(a)
        j = cs.cjt_factorization(f, c)
        assert isinstance(j, cs.PartialConjugation)
        # A = C J T with J a partial conjugation and T = |A|
        t = f.modulus
        rebuilt = np.column_stack([c.apply(j.apply(col)) for col in t.T])
        np.testing.assert_allclose(rebuilt, a, atol=1e-9)
        # JTJ = T on the initial space; J T J is linear with matrix
        # M_J conj(T) conj(M_J)
        proj = f.phase.conj().T @ f.phase
        jtj = j.matrix @ np.conj(t) @ np.conj(j.matrix)
        np.testing.assert_allclose((jtj - t) @ proj, 0.0, atol=1e-9)


def test_cjt_explicit_example():
    a = np.array([[1.0, 1j], [1j, 0.0]])
    c = cs.entrywise_conjugation(2)
    f = cs.polar(a)
    j = cs.cjt_factorization(f, c)
    assert isinstance(j, cs.PartialConjugation)
    assert f.rank == 2
    rebuilt = np.column_stack([c.apply(j.apply(col)) for col in f.modulus.T])
    np.testing.assert_allclose(rebuilt, a, atol=1e-10)


def test_cjt_zero_matrix():
    f = cs.polar(np.zeros((2, 2)))
    j = cs.cjt_factorization(f, cs.entrywise_conjugation(2))
    assert isinstance(j, cs.PartialConjugation)
    assert f.rank == 0
    np.testing.assert_allclose(j.matrix, 0.0, atol=1e-15)


def test_cjt_refusal_with_diagnosis():
    # the nilpotent shift is not complex symmetric: refusal carries both the
    # symmetry residual and the phase-adjoint-identity residual
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = cs.cjt_factorization(cs.polar(bad), cs.entrywise_conjugation(2))
    assert isinstance(out, cs.CjtRefusal)
    assert out.residuals["c_selfadjoint"] > 1e-3
    assert out.residuals["phase_adjoint_identity"] > 1e-3


def test_cjt_refusals_random(rng):
    c = cs.entrywise_conjugation(3)
    count = 0
    for _ in range(10):
        a = random_complex(rng, 3, 3)
        if cs.matrix_c_selfadjoint_residual(a, c) < 1e-6:
            continue
        out = cs.cjt_factorization(cs.polar(a), c)
        assert isinstance(out, cs.CjtRefusal)
        count += 1
    assert count >= 8


def test_cjt_general_conjugation(rng):
    c = cs.random_conjugation(5, rng)
    a = cs.random_csym_matrix(5, rng, c)
    f = cs.polar(a)
    j = cs.cjt_factorization(f, c)
    assert isinstance(j, cs.PartialConjugation)
    rebuilt = np.column_stack([c.apply(j.apply(col)) for col in f.modulus.T])
    np.testing.assert_allclose(rebuilt, a, atol=1e-9)


def test_takagi_reconstruction(rng):
    for _ in range(25):
        n = int(rng.integers(1, 7))
        a = cs.random_symmetric(n, rng)
        v, s = cs.takagi(cs.polar(a))
        np.testing.assert_allclose((v * s) @ v.T, a, atol=1e-9)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-10)
        assert np.all(np.diff(s) <= 1e-12) and np.all(s >= 0)


def test_takagi_degenerate_singular_values():
    cases = [
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0.0, 1j], [1j, 0.0]]),
        (1 + 1j) * np.eye(3),
        np.zeros((3, 3)),
        np.diag([2.0, 2.0, 1.0]).astype(complex),
    ]
    for a in cases:
        v, s = cs.takagi(cs.polar(a))
        np.testing.assert_allclose((v * s) @ v.T, a, atol=1e-10)


def test_takagi_agrees_with_polar(rng):
    a = cs.random_symmetric(5, rng)
    f = cs.polar(a)
    v, s = cs.takagi(f)
    # |A| = conj(V) S V^T and U_A = V diag(rank indicator) V^T
    np.testing.assert_allclose(np.conj(v) * s @ v.T, f.modulus, atol=1e-9)
    indicator = (s > cs.DEFAULT_TOL.zero_cutoff(s[0] if s.size else 1.0)).astype(float)
    np.testing.assert_allclose((v * indicator) @ v.T, f.phase, atol=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_takagi_groups_singular_values_relative_to_scale(seed):
    # 1e4 U diag(3,3,3,2,1,1) U^T: the equal singular values agree only to
    # about 1e-11 at this scale.  With a complex Haar U each group's factor
    # Z = W_g^T V0_g is a full unitary symmetric block, so splitting a group
    # breaks the factorization; a real orthogonal U is the control.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    for u in (cs.haar_unitary(6, rng), q):
        a = 1e4 * (u * np.array([3.0, 3.0, 3.0, 2.0, 1.0, 1.0])) @ u.T
        v, s = cs.takagi(cs.polar(a))
        np.testing.assert_allclose((v * s) @ v.T, a, atol=1e-6)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-10)


def test_takagi_rejects_nonsymmetric(rng):
    with pytest.raises(cs.InputError):
        cs.takagi(cs.polar(np.array([[0.0, 1.0], [2.0, 0.0]])))


def _cli_checks(tmp_path, capsys, command, matrix):
    """Exit code and {name: check} of a CLI report on matrix under entrywise C."""
    spec = cs.ProblemSpec("m", matrix.shape[0], "entrywise", None, None, matrix, cs.DEFAULT_TOL)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(spec.to_json_dict()))
    code = main([command, "--spec", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert "error" not in out, out
    return code, {check["name"]: check for check in out["check_list"]}


@pytest.mark.parametrize(
    "factored, field, delta, failing",
    [
        ("cac", "modulus", 1e-3, {"modulus_covariance"}),
        ("cac", "phase", 1e-3, {"phase_covariance"}),
        ("a", "modulus", 1e-3j, {"modulus_covariance", "c_real_modulus"}),
    ],
    ids=["modulus_of_cac", "phase_of_cac", "modulus_not_c_real"],
)
def test_covariance_failures_reach_the_report(tmp_path, capsys, monkeypatch, factored, field, delta, failing):
    # mutation: shift one factor of one of the two polar decompositions that
    # conjugation_covariance compares, A's (its argument, shifted for it alone
    # since the CJT split reads the same factors) or CAC's (its own polar
    # call); A is real symmetric, so CAC = A and the C-real clause is checked too
    def shifted(factors):
        return dataclasses.replace(factors, **{field: getattr(factors, field) + delta * np.eye(len(factors.matrix))})

    if factored == "a":
        original = cs.cli.conjugation_covariance
        monkeypatch.setattr(cs.cli, "conjugation_covariance", lambda p, c: original(shifted(p), c))
    else:
        module = sys.modules["csymlab.polar"]  # cs.polar is the function
        original = module.polar
        monkeypatch.setattr(module, "polar", lambda a, tol: shifted(original(a, tol)))
    a = np.random.default_rng(0).standard_normal((4, 4))
    code, checks = _cli_checks(tmp_path, capsys, "polar", a + a.T)
    assert code == 1
    covariance = {name.removeprefix("covariance"): check for name, check in checks.items()}
    assert {name for name, check in covariance.items() if check["status"] == "fail"} == failing
    assert all(covariance[name]["residual"] >= 1e-3 for name in failing)


@pytest.mark.parametrize(
    "mutation, failing",
    [
        (lambda v, s: (1j * v, s), "phase_crosscheck"),
        (lambda v, s: (v, 1.001 * s), "modulus_crosscheck"),
    ],
    ids=["phase_times_i", "scaled_singular_values"],
)
def test_takagi_crosscheck_failures_reach_the_report(tmp_path, capsys, monkeypatch, mutation, failing):
    # V -> iV keeps conj(V) S V^T = |A| and negates V V^T = U_A; scaling S
    # moves |A| and leaves the phase, which reads only the rank
    original = cs.cli.takagi
    monkeypatch.setattr(cs.cli, "takagi", lambda p: mutation(*original(p)))
    code, checks = _cli_checks(tmp_path, capsys, "takagi", cs.random_symmetric(4, np.random.default_rng(0)))
    assert code == 1
    assert {name for name, check in checks.items() if check["status"] == "fail"} == {failing}
    assert checks[failing]["residual"] > 1e-3
