"""Conjugations and general anti-linear machinery.

An anti-linear map is stored by the matrix M of its action x -> M*conj(x).
A conjugation is the special case where M is unitary and symmetric; those
two matrix identities are exactly C^2 = I and <Cx, Cy> = <y, x>.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, PreconditionError, PropertyViolationError
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _gram_residual,
    _norm_within,
    _trusted,
    complement,
)


@dataclass(frozen=True, eq=False)
class AntiLinearMap:
    """General anti-linear map x -> matrix * conj(x) on C^n."""

    matrix: np.ndarray
    tol: Tolerance = field(default=DEFAULT_TOL)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"anti-linear map needs a square matrix, got shape {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape[0] != self.dim:
            raise InputError(f"vector has dimension {x.shape[0]}, map expects {self.dim}")
        return self.matrix @ np.conj(x)


def conjugation_axiom_residuals(matrix) -> tuple[float, float]:
    """(unitarity residual, symmetry residual) of a candidate conjugation matrix."""
    m = np.asarray(matrix, dtype=complex)
    if not m.size:  # the conjugation on the zero space
        return 0.0, 0.0
    return _gram_residual(m), float(np.abs(m - m.T).max())


class Conjugation(AntiLinearMap):
    """Anti-linear involutive isometry; matrix K unitary symmetric."""

    def __post_init__(self):
        super().__post_init__()
        unit, symm = conjugation_axiom_residuals(self.matrix)
        bound = self.tol.bound()
        if unit > bound:
            raise InputError(f"conjugation matrix is not unitary (residual {unit:.3e})")
        if symm > bound:
            raise InputError(f"conjugation matrix is not symmetric (residual {symm:.3e})")

    def map_subspace(self, s: Subspace) -> Subspace:
        """C S with the image of S's basis as its basis: C is antiunitary, so
        the image is orthonormal and no rank is decided."""
        if s.ambient_dim != self.dim:
            raise InputError(f"subspace ambient {s.ambient_dim} != map dimension {self.dim}")
        return _trusted(self.matrix @ np.conj(s.basis), s.tol)


def _trusted_conjugation(matrix: np.ndarray, tol: Tolerance) -> Conjugation:
    """Conjugation(matrix, tol) for a matrix unitary and symmetric by
    construction: shape checked, copied and frozen, with no axiom check."""
    c = object.__new__(Conjugation)
    object.__setattr__(c, "matrix", matrix)
    object.__setattr__(c, "tol", tol)
    AntiLinearMap.__post_init__(c)
    return c


def entrywise_conjugation(n: int, tol: Tolerance = DEFAULT_TOL) -> Conjugation:
    return Conjugation(np.eye(n, dtype=complex), tol)


def flip_conjugation(n: int, tol: Tolerance = DEFAULT_TOL) -> Conjugation:
    return Conjugation(np.eye(n, dtype=complex)[::-1].copy(), tol)


class PartialConjugation(AntiLinearMap):
    """Anti-linear map that is a conjugation on its initial space, zero off it.

    The matrix M must be symmetric with M*conj(M) an orthogonal projection P;
    the initial space is ran(P) and applying the map twice projects onto it.
    """

    def __post_init__(self):
        super().__post_init__()
        m = self.matrix
        bound = self.tol.bound()
        symm = float(np.abs(m - m.T).max())
        if symm > bound:
            raise InputError(f"partial conjugation matrix is not symmetric (residual {symm:.3e})")
        p = m @ np.conj(m)
        herm = float(np.abs(p - p.conj().T).max())
        idem = float(np.abs(p @ p - p).max())
        if herm > bound or idem > bound:
            raise InputError(
                "applying the map twice is not an orthogonal projection "
                f"(hermiticity {herm:.3e}, idempotency {idem:.3e})"
            )


def restricted_matrix(c: AntiLinearMap, s: Subspace) -> np.ndarray:
    """Matrix of the map in the coordinates of the subspace basis.

    For C(x) = K conj(x) and x = B z this is K_S = B^H K conj(B), acting as
    z -> K_S conj(z).
    """
    return s.basis.conj().T @ c.matrix @ np.conj(s.basis)


def preserves_subspace(c: AntiLinearMap, s: Subspace) -> bool:
    """C maps S into itself, within S's tol.bound()."""
    image = c.matrix @ np.conj(s.basis)
    residual = image - s.basis @ (s.basis.conj().T @ image)
    return _norm_within(residual, s.tol.bound())


def invariant_onb(c: AntiLinearMap, s: Subspace) -> np.ndarray:
    """Orthonormal basis of S fixed pointwise by the conjugation C.

    Greedy construction: take the first column of the orthogonal complement
    of the current span inside S as candidate v.  When v is already nearly
    fixed (||Cv - v|| <= sqrt(eps)*||v||, looser than eps because the other
    branch loses half the significant digits there) symmetrize to (v + Cv)/2;
    otherwise take i(v - Cv).  Both outputs are exactly fixed by C and stay
    orthogonal to everything found so far.

    Returns the basis as the columns of an (ambient_dim x dim S) matrix.
    """
    if c.dim != s.ambient_dim:
        raise InputError(f"map dimension {c.dim} != subspace ambient {s.ambient_dim}")
    if not preserves_subspace(c, s):
        raise PreconditionError("conjugation does not map the subspace into itself")
    k = s.dim
    if k == 0:
        return np.zeros((s.ambient_dim, 0), dtype=complex)
    ks = restricted_matrix(c, s)
    unit, symm = conjugation_axiom_residuals(ks)
    if max(unit, symm) > s.tol.bound():
        raise PreconditionError(
            f"map restricted to the subspace is not a conjugation (unitarity {unit:.3e}, symmetry {symm:.3e})"
        )
    branch_cut = np.sqrt(s.tol.eps)
    found = np.zeros((k, 0), dtype=complex)
    for _ in range(k):
        v = complement(_trusted(found, s.tol)).basis[:, 0]
        cv = ks @ np.conj(v)
        if np.linalg.norm(cv - v) <= branch_cut * np.linalg.norm(v):
            w = v + cv
        else:
            w = 1j * (v - cv)
        w = w / np.linalg.norm(w)
        found = np.column_stack([found, w])
    fixed_residual = float(np.abs(ks @ np.conj(found) - found).max())
    gram_residual = _gram_residual(found)
    if max(fixed_residual, gram_residual) > s.tol.bound():
        raise PropertyViolationError(
            "invariant basis construction failed",
            {"fixed_point": fixed_residual, "gram": gram_residual},
        )
    return s.basis @ found
