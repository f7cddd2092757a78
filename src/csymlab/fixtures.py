"""Worked instances: the hand-checkable fixtures, a discretized Schrodinger
model with complex potential, and seeded random generators.

The named builders return ProblemSpec values so the same instances are
reachable from the command line and from tests.  Random helpers return raw
matrices and conjugations for property sweeps.
"""

from __future__ import annotations

import numpy as np

from .antilinear import Conjugation
from .errors import InputError
from .linalg import DEFAULT_TOL, Tolerance, orthonormal_basis
from .problems import ProblemSpec


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_conjugation(n: int, rng: np.random.Generator, tol: Tolerance = DEFAULT_TOL) -> Conjugation:
    """K = Q Q^T is unitary symmetric for any unitary Q."""
    q = haar_unitary(n, rng)
    return Conjugation(q @ q.T, tol)


def random_symmetric(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z + z.T


def random_csym_matrix(n: int, rng: np.random.Generator, c: Conjugation) -> np.ndarray:
    """Matrix with (AK)^T = AK, i.e. C-self-adjoint for C x = K conj(x).

    A = S conj(K) with S symmetric: then AK = S since conj(K) K = I.
    """
    return random_symmetric(n, rng) @ np.conj(c.matrix)


def minimal_identity(tol: Tolerance = DEFAULT_TOL) -> ProblemSpec:
    """Identity restricted to the first coordinate line of C^2.

    The smallest instance with a nontrivial extension family: the
    C-self-adjoint extensions are the diagonal operators diag(1, c) plus one
    purely multivalued relation.
    """
    domain = np.array([[1.0], [0.0]], dtype=complex)
    return ProblemSpec("minimal_identity", 2, "entrywise", None, domain, domain, tol)


def zero_on_subspace(n: int = 4, tol: Tolerance = DEFAULT_TOL) -> ProblemSpec:
    """Zero operator on the interior coordinate span of C^n."""
    if n < 4:
        raise InputError(f"need dimension at least 4, got {n}")
    domain = np.eye(n, dtype=complex)[:, 1 : n - 1]
    images = np.zeros_like(domain)
    return ProblemSpec(f"zero_on_subspace(n={n})", n, "entrywise", None, domain, images, tol)


def race_schrodinger(n: int = 16, h: float = 0.25, tol: Tolerance = DEFAULT_TOL) -> ProblemSpec:
    """Central-difference model of -d^2/dx^2 shifted by the complex
    potential -2i e^(2(1+i)x), restricted away from the boundary rows.

    The full matrix is complex symmetric (tridiagonal plus diagonal), so the
    restriction is C-symmetric for the entrywise conjugation and non-densely
    defined; its deficiency structure feeds the extension machinery.  This is
    a discretized model, not a spectral approximation claim.
    """
    if n < 4:
        raise InputError(f"need at least 4 grid points, got {n}")
    if not 0 < h < np.inf:
        raise InputError(f"grid spacing must be finite and positive, got {h}")
    x = h * np.arange(1, n + 1)
    # h * h, not h**2: a float power raises OverflowError where a product gives inf
    main = -2.0 * np.ones(n) / (h * h) - 2j * np.exp(2.0 * (1.0 + 1j) * x)
    off = np.ones(n - 1) / (h * h)
    matrix = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    domain = np.eye(n, dtype=complex)[:, 1 : n - 1]
    return ProblemSpec(
        f"race_schrodinger(n={n},h={h})", n, "entrywise", None, domain, matrix @ domain, tol
    )


def fd_derivative_minimal(n: int = 8, h: float = 0.25, tol: Tolerance = DEFAULT_TOL) -> ProblemSpec:
    """i times the central first difference on interior grid points.

    The full matrix M satisfies conj(M) = -M and flips sign under the
    coordinate reversal, so it is C-real for the flip conjugation; the
    entrywise conjugation does not work here.
    """
    if n < 4:
        raise InputError(f"need at least 4 grid points, got {n}")
    if not 0 < h < np.inf:
        raise InputError(f"grid spacing must be finite and positive, got {h}")
    off = np.ones(n - 1) / (2.0 * h)
    matrix = 1j * (np.diag(off, 1) - np.diag(off, -1))
    domain = np.eye(n, dtype=complex)[:, 1 : n - 1]
    return ProblemSpec(
        f"fd_derivative_minimal(n={n},h={h})", n, "flip", None, domain, matrix @ domain, tol
    )


def random_csym(n: int = 6, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> ProblemSpec:
    """Everywhere-defined C-self-adjoint matrix for a random conjugation."""
    if n < 1:
        raise InputError(f"need positive dimension, got {n}")
    rng = np.random.default_rng(seed)
    c = random_conjugation(n, rng, tol)
    a = random_csym_matrix(n, rng, c)
    return ProblemSpec(f"random_csym(n={n},seed={seed})", n, "matrix", c.matrix, None, a, tol)


def random_restriction(n: int, seed: int, tol: Tolerance = DEFAULT_TOL) -> ProblemSpec:
    """Random C-self-adjoint matrix restricted to a random proper subspace.

    Restrictions of C-self-adjoint matrices are C-symmetric and, being
    non-densely defined, have nonzero deficiency.
    """
    if n < 2:
        raise InputError(f"need dimension at least 2, got {n}")
    rng = np.random.default_rng(seed)
    c = random_conjugation(n, rng, tol)
    a = random_csym_matrix(n, rng, c)
    k = int(rng.integers(1, n))
    z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    domain = orthonormal_basis(z, tol, n).basis
    return ProblemSpec(
        f"random_restriction(n={n},seed={seed})", n, "matrix", c.matrix, domain, a @ domain, tol
    )


EXAMPLE_BUILDERS = {
    "race_schrodinger": race_schrodinger,
    "fd_derivative_minimal": fd_derivative_minimal,
    "random_csym": random_csym,
    "zero_on_subspace": zero_on_subspace,
}


def build_example(name: str, **params) -> ProblemSpec:
    """Named fixture dispatch; unknown names and bad grid sizes are input
    errors so the command line can report them as usage mistakes."""
    if name not in EXAMPLE_BUILDERS:
        known = ", ".join(sorted(EXAMPLE_BUILDERS))
        raise InputError(f"unknown example {name!r}; known examples: {known}")
    try:
        # a spacing whose matrix overflows leaves non-finite entries, which
        # ProblemSpec refuses as input errors
        with np.errstate(over="ignore", invalid="ignore"):
            return EXAMPLE_BUILDERS[name](**params)
    except TypeError as exc:
        raise InputError(f"bad parameters for example {name!r}: {exc}") from exc
