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
from .linalg import DEFAULT_TOL, Tolerance, _as_complex_matrix, _gram_residual
from .reporting import CheckList


@dataclass(frozen=True, eq=False)
class PolarFactors:
    """A = phase @ modulus from the singular value decomposition
    A = w diag(s) vh: modulus = (A^H A)^(1/2) is positive semidefinite and
    phase a partial isometry vanishing on ker(modulus).  The matrix, its
    decomposition and the Tolerance travel along, so that covariance, the
    CJT split and Takagi read them instead of factoring A again."""

    matrix: np.ndarray
    w: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    tol: Tolerance
    phase: np.ndarray
    modulus: np.ndarray
    rank: int

    @property
    def bound(self) -> float:
        """The residual bound at the scale max(1, ||A||_2 = s[0])."""
        return self.tol.bound(max(1.0, float(self.s[0]) if self.s.size else 0.0))


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
    factors = PolarFactors(a, w, s, vh, tol, w[:, :r] @ vh[:r], (vh.conj().T * s) @ vh, r)
    res = float(np.abs(factors.phase @ factors.modulus - a).max()) if a.size else 0.0
    if res > factors.bound:
        raise PropertyViolationError(
            "polar reconstruction failed", {"reconstruction": res}
        )
    return factors


def _conjugated_matrix(m: np.ndarray, c: Conjugation) -> np.ndarray:
    """Matrix of C o M o C for linear M."""
    k = c.matrix
    return k @ np.conj(m) @ np.conj(k)


def conjugation_covariance(p: PolarFactors, c: Conjugation) -> CheckList:
    """Covariance of modulus and phase under x -> CAC.

    The polar decomposition of CAC is computed independently and compared
    against the conjugated factors p of A; with CAC = A the modulus is
    C-real, which is recorded as its own check.  A failed identity is a
    failed check in the returned list, with its residual.
    """
    cac = _conjugated_matrix(p.matrix, c)
    p_cac = polar(cac, p.tol)
    bound = p.bound
    checks = CheckList()
    mod_res = float(np.abs(p_cac.modulus - _conjugated_matrix(p.modulus, c)).max())
    checks.add_residual("modulus_covariance", mod_res, bound)
    phase_res = float(np.abs(p_cac.phase - _conjugated_matrix(p.phase, c)).max())
    checks.add_residual("phase_covariance", phase_res, bound)
    if float(np.abs(cac - p.matrix).max()) <= bound:
        real_res = float(np.abs(_conjugated_matrix(p.modulus, c) - p.modulus).max())
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


def cjt_factorization(p: PolarFactors, c: Conjugation) -> PartialConjugation | CjtRefusal:
    """Split a C-self-adjoint matrix as A = C J |A| from its polar factors p.

    J = C o U_A is a partial conjugation supported on the range of |A| and
    J |A| J = |A| there.  Returns J, or a CjtRefusal naming the violated
    phase identity when the input is not C-self-adjoint.
    """
    bound = p.bound
    sa_res = matrix_c_selfadjoint_residual(p.matrix, c)
    phase_id_res = float(np.abs(p.phase.conj().T - _conjugated_matrix(p.phase, c)).max())
    if sa_res > bound:
        return CjtRefusal(
            "matrix is not C-self-adjoint; the phase does not satisfy U* = CUC",
            {"c_selfadjoint": sa_res, "phase_adjoint_identity": phase_id_res},
        )
    k = c.matrix
    m_j = k @ np.conj(p.phase)
    try:
        j = PartialConjugation(m_j, p.tol)
    except InputError as exc:
        raise PropertyViolationError(
            f"C o U_A is not a partial conjugation: {exc}", {"c_selfadjoint": sa_res}
        ) from exc
    t = p.modulus
    range_proj = p.phase.conj().T @ p.phase  # projector onto ran|A|
    init_res = float(np.abs(j.matrix @ np.conj(j.matrix) - range_proj).max())
    jtj_res = float(np.abs((m_j @ np.conj(t) @ np.conj(m_j) - t) @ range_proj).max())
    recon_res = float(np.abs(k @ np.conj(m_j) @ t - p.matrix).max())
    cj_res = float(np.abs(k @ np.conj(m_j) - p.phase).max())
    worst = {
        "initial_space": init_res,
        "jtj_equals_t": jtj_res,
        "reconstruction": recon_res,
        "cj_equals_phase": cj_res,
        "phase_adjoint_identity": phase_id_res,
    }
    if max(worst.values()) > bound:
        raise PropertyViolationError("phase-splitting identities failed", worst)
    return j


def takagi(p: PolarFactors):
    """Factor a complex symmetric matrix as A = V diag(s) V^T.

    Works from the singular value decomposition A = W diag(s) V0^H held by
    the polar factors p: within each group of equal singular values the
    matrix Z = V0_g^T W_g is unitary symmetric, and absorbing the principal
    square root of each Z into V0 turns the two singular bases into one.
    Consecutive singular values whose gap is at most tol.zero_cutoff(s[0])
    form one group, so the grouping is relative to scale; the result is
    deterministic.
    """
    import scipy.linalg  # here, not at module level: it dominates `import csymlab`

    a, w, s = p.matrix, p.w, p.s
    bound = p.bound
    sym_res = float(np.abs(a - a.T).max()) if a.size else 0.0
    if sym_res > bound:
        raise InputError(f"matrix is not symmetric (residual {sym_res:.3e})")
    v0 = p.vh.conj().T
    cutoff = p.tol.zero_cutoff(s[0]) if s.size else p.tol.eps
    groups = np.split(np.arange(s.size), np.flatnonzero(s[:-1] - s[1:] > cutoff) + 1)
    # per equal-singular-value group the two singular bases differ by a
    # unitary symmetric factor; its principal square root merges them
    blocks = [scipy.linalg.sqrtm(w[:, g].T @ v0[:, g]) for g in groups if g.size]
    q = scipy.linalg.block_diag(*blocks) if blocks else np.zeros_like(a)
    v = w @ np.conj(q)
    res = float(np.abs((v * s) @ v.T - a).max())
    unit = _gram_residual(v)
    if max(res, unit) > bound:
        raise PropertyViolationError(
            "symmetric factorization failed", {"reconstruction": res, "unitarity": unit}
        )
    return v, s
