"""Polar decomposition, its behavior under conjugations, and the
phase-splitting factorization A = C J |A| for C-self-adjoint matrices.

Everything here is everywhere-defined matrix work.  The phase U_A is the
partial isometry from the singular value decomposition with the kernel
convention U_A = 0 on ker|A|, which makes it unique and lets covariance
identities be compared as plain matrix equalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antilinear import Conjugation, PartialConjugation
from .errors import InputError, PropertyViolationError
from .linalg import DEFAULT_TOL, Tolerance, _as_complex_matrix, _gram_residual, _spectral_norm
from .reporting import CheckList

# takagi groups singular values that agree to this many decimal places
GROUPING_DECIMALS = 12


@dataclass(frozen=True, eq=False)
class PolarFactors:
    """A = phase @ modulus with modulus = (A^H A)^(1/2) positive
    semidefinite and phase a partial isometry vanishing on ker(modulus)."""

    phase: np.ndarray
    modulus: np.ndarray
    rank: int
    j: PartialConjugation | None = None
    t: np.ndarray | None = None


def polar(a, tol: Tolerance = DEFAULT_TOL) -> PolarFactors:
    """Polar factors via singular value decomposition.

    A = W diag(s) V^H gives modulus = V diag(s) V^H and phase = W_r V_r^H
    over the singular values above the rank cutoff.
    """
    a = _as_complex_matrix(a, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"polar factors need a square matrix, got shape {a.shape}")
    w, s, vh = np.linalg.svd(a)
    cutoff = tol.zero_cutoff(s[0]) if s.size else tol.eps
    r = int(np.sum(s > cutoff))
    modulus = (vh.conj().T * s) @ vh
    phase = w[:, :r] @ vh[:r]
    res = float(np.abs(phase @ modulus - a).max()) if a.size else 0.0
    scale = max(1.0, float(s[0]) if s.size else 0.0)
    if res > tol.bound(scale):
        raise PropertyViolationError(
            "polar reconstruction failed", {"reconstruction": res}
        )
    return PolarFactors(phase, modulus, r)


def _conjugated_matrix(m: np.ndarray, c: Conjugation) -> np.ndarray:
    """Matrix of C o M o C for linear M."""
    k = c.matrix
    return k @ np.conj(m) @ np.conj(k)


def conjugation_covariance(a, c: Conjugation, tol: Tolerance = DEFAULT_TOL) -> CheckList:
    """Covariance of modulus and phase under x -> CAC.

    Both polar decompositions are computed independently and compared
    against the conjugated factors; with CAC = A the modulus is C-real,
    which is recorded as its own check.  A failed identity is a failed
    check in the returned list, with its residual.
    """
    a = _as_complex_matrix(a, "matrix")
    cac = _conjugated_matrix(a, c)
    p_a = polar(a, tol)
    p_cac = polar(cac, tol)
    bound = tol.bound(max(1.0, _spectral_norm(a)))
    checks = CheckList()
    mod_res = float(np.abs(p_cac.modulus - _conjugated_matrix(p_a.modulus, c)).max())
    checks.add_residual("modulus_covariance", mod_res, bound)
    phase_res = float(np.abs(p_cac.phase - _conjugated_matrix(p_a.phase, c)).max())
    checks.add_residual("phase_covariance", phase_res, bound)
    if float(np.abs(cac - a).max()) <= bound:
        real_res = float(np.abs(_conjugated_matrix(p_a.modulus, c) - p_a.modulus).max())
        checks.add_residual("c_real_modulus", real_res, bound)
    return checks


@dataclass(frozen=True, eq=False)
class CjtRefusal:
    """Outcome for inputs outside the factorization's hypothesis.

    Carries the residual of the identity U_A^* = C U_A C, the clause that
    characterizes C-self-adjointness on the phase side.
    """

    reason: str
    residuals: dict


def matrix_c_selfadjoint_residual(a, c: Conjugation) -> float:
    """|| CAC - A^H ||, zero iff the matrix is C-self-adjoint."""
    a = _as_complex_matrix(a, "matrix")
    return float(np.abs(_conjugated_matrix(a, c) - a.conj().T).max())


def cjt_factorization(a, c: Conjugation, tol: Tolerance = DEFAULT_TOL):
    """Split a C-self-adjoint matrix as A = C J |A|.

    J = C o U_A is a partial conjugation supported on the range of |A| and
    J |A| J = |A| there.  Returns PolarFactors with j and t populated, or a
    CjtRefusal naming the violated phase identity when the input is not
    C-self-adjoint.
    """
    a = _as_complex_matrix(a, "matrix")
    bound = tol.bound(max(1.0, _spectral_norm(a)))
    factors = polar(a, tol)
    sa_res = matrix_c_selfadjoint_residual(a, c)
    phase_id_res = float(
        np.abs(factors.phase.conj().T - _conjugated_matrix(factors.phase, c)).max()
    )
    if sa_res > bound:
        return CjtRefusal(
            "matrix is not C-self-adjoint; the phase does not satisfy U* = CUC",
            {"c_selfadjoint": sa_res, "phase_adjoint_identity": phase_id_res},
        )
    k = c.matrix
    m_j = k @ np.conj(factors.phase)
    try:
        j = PartialConjugation(m_j, tol)
    except InputError as exc:
        raise PropertyViolationError(
            f"C o U_A is not a partial conjugation: {exc}", {"c_selfadjoint": sa_res}
        ) from exc
    t = factors.modulus
    range_proj = factors.phase.conj().T @ factors.phase  # projector onto ran|A|
    init_res = float(np.abs(j.matrix @ np.conj(j.matrix) - range_proj).max())
    jtj_res = float(np.abs((m_j @ np.conj(t) @ np.conj(m_j) - t) @ range_proj).max())
    recon_res = float(np.abs(k @ np.conj(m_j) @ t - a).max())
    cj_res = float(np.abs(k @ np.conj(m_j) - factors.phase).max())
    worst = {
        "initial_space": init_res,
        "jtj_equals_t": jtj_res,
        "reconstruction": recon_res,
        "cj_equals_phase": cj_res,
        "phase_adjoint_identity": phase_id_res,
    }
    if max(worst.values()) > bound:
        raise PropertyViolationError("phase-splitting identities failed", worst)
    return PolarFactors(factors.phase, factors.modulus, factors.rank, j, t)


def takagi(a, tol: Tolerance = DEFAULT_TOL):
    """Factor a complex symmetric matrix as A = V diag(s) V^T.

    Works from the singular value decomposition A = W diag(s) V0^H: within
    each group of equal singular values the matrix Z = V0_g^T W_g is unitary
    symmetric, and absorbing the principal square root of each Z into V0
    turns the two singular bases into one.  Singular values are grouped by
    equality rounded to GROUPING_DECIMALS; the result is deterministic.
    """
    import scipy.linalg  # here, not at module level: it dominates `import csymlab`

    a = _as_complex_matrix(a, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"factorization needs a square matrix, got shape {a.shape}")
    sym_res = float(np.abs(a - a.T).max()) if a.size else 0.0
    bound = tol.bound(max(1.0, _spectral_norm(a)))
    if sym_res > bound:
        raise InputError(f"matrix is not symmetric (residual {sym_res:.3e})")
    w, s, v0h = np.linalg.svd(a)
    v0 = v0h.conj().T
    groups: dict[float, list[int]] = {}
    for idx, value in enumerate(s):
        groups.setdefault(round(float(value), GROUPING_DECIMALS), []).append(idx)
    blocks = []
    for indices in groups.values():
        # per equal-singular-value group the two singular bases differ by a
        # unitary symmetric factor; its principal square root merges them
        z = w[:, indices].T @ v0[:, indices]
        blocks.append(scipy.linalg.sqrtm(z))
    q = scipy.linalg.block_diag(*blocks) if blocks else np.zeros_like(a)
    v = w @ np.conj(q)
    res = float(np.abs((v * s) @ v.T - a).max())
    unit = _gram_residual(v)
    if max(res, unit) > bound:
        raise PropertyViolationError(
            "symmetric factorization failed", {"reconstruction": res, "unitarity": unit}
        )
    return v, s
