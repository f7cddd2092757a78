"""Block structure of powers of the doubled operator and the partial-sum
diagnostics for the alternating product AC.

The doubled operator frakA = [[0, A], [CAC, 0]] is linear, so its powers can
be taken directly; the content is that they collapse to words in the single
anti-linear composition AC.  Even powers are block-diagonal with blocks
(AC)^2m and C(AC)^2m C, odd powers block-antidiagonal with (AC)^(2m+1) C in
the upper right and C(AC)^(2m+1) in the lower left.  With C = K conj, the
word (AC)^m has the matrix W_m of the recurrence W_0 = I,
W_(m+1) = AK conj(W_m), acting linearly for even m and anti-linearly for odd
m.  The block forms run the recurrence on matrices; the norm identities and
the partial sums run it on vectors, v <- AK conj(v), and take no matrix
power.  Realified 2N-dimensional real arithmetic is kept as an independent
second path, since the two strategies fail differently when a conjugation
is misplaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antilinear import Conjugation
from .errors import InputError
from .linalg import DEFAULT_TOL, Tolerance, _as_complex_matrix, _spectral_norm
from .reporting import CheckList

# partial sums of || (AC)^k x ||^(-1/k) that the powers report records
QA_TERMS = 8


@dataclass(frozen=True, eq=False)
class PowerReport:
    """Residual bookkeeping for one exponent."""

    n: int
    block_residual: float
    crosscheck_residual: float
    norm_residuals: tuple[float, float] | None
    checks: CheckList


def _realify(m: np.ndarray) -> np.ndarray:
    """Real 2N x 2N matrix of the anti-linear map x -> M conj(x) acting on
    (Re x, Im x) stacked."""
    x, y = m.real, m.imag
    return np.block([[x, y], [y, -x]])


def _ac_word(ak: np.ndarray, m: int) -> np.ndarray:
    """W_m of the recurrence W_0 = I, W_(k+1) = AK conj(W_k): the matrix of
    (AC)^m, linear for even m and anti-linear for odd m."""
    w = np.eye(ak.shape[0], dtype=complex)
    for _ in range(m):
        w = ak @ np.conj(w)
    return w


def _derealify(r: np.ndarray) -> tuple[np.ndarray, float]:
    """Complex matrix of a realified linear map, with the residual of the
    shape constraint that makes the real matrix complex-linear."""
    n = r.shape[0] // 2
    x, y = r[:n, :n], r[n:, :n]
    res = max(
        float(np.abs(r[:n, n:] + y).max()),
        float(np.abs(r[n:, n:] - x).max()),
    )
    return x + 1j * y, res


@dataclass(frozen=True, eq=False)
class DoubledMatrix:
    """frakA = [[0, A], [CAC, 0]] for a square matrix A, built once with
    AK, the matrix of AC, ||A||_2 and the Tolerance, so that the reports of
    every exponent read them instead of rebuilding frakA and recomputing
    the norm."""

    a: np.ndarray
    c: Conjugation
    frak: np.ndarray
    ak: np.ndarray
    norm: float
    tol: Tolerance

    def bound(self, power: int) -> float:
        """The residual bound at the scale (1 + max(1, ||A||_2))^power;
        InputError when that scale leaves the float range."""
        try:
            scale = (1.0 + max(1.0, self.norm)) ** power
        except OverflowError:
            scale = math.inf
        _require_finite(scale, f"the residual scale (1 + ||A||_2)^{power}")
        return self.tol.bound(scale)


def _require_finite(value: float, what: str) -> None:
    """InputError naming what overflowed unless value is finite: the
    identities hold exactly, so a value past the float range is no evidence
    against them."""
    if not math.isfinite(value):
        raise InputError(f"{what} leaves the float range; the power identities cannot be evaluated")


def doubled_matrix(a, c: Conjugation, tol: Tolerance = DEFAULT_TOL) -> DoubledMatrix:
    """frakA of a square matrix A under C, with AK and ||A||_2 taken once."""
    a = _as_complex_matrix(a, "matrix")
    dim = a.shape[0]
    if a.shape != (dim, dim) or c.matrix.shape != (dim, dim):
        raise InputError("matrix and conjugation dimensions do not match")
    k = c.matrix
    z = np.zeros_like(a)
    frak = np.block([[z, a], [k @ np.conj(a) @ np.conj(k), z]])
    return DoubledMatrix(a, c, frak, a @ k, _spectral_norm(a), tol)


def doubled_power_blocks(d: DoubledMatrix, n: int) -> PowerReport:
    """Compare frakA^n against its predicted block form.

    The direct path is a plain matrix power of the doubled matrix.  The
    predicted blocks are read off W = W_n (_ac_word) and K: for even n,
    W and K conj(W) conj(K); for odd n, W conj(K) and K conj(W).  They are
    cross-checked against the n-th power of the realified AC composed with
    the realified C.
    """
    if n < 1:
        raise InputError(f"exponent must be at least 1, got {n}")
    k, ak, frak = d.c.matrix, d.ak, d.frak
    dim = k.shape[0]
    direct = np.linalg.matrix_power(frak, n)

    w = _ac_word(ak, n)
    # second path: the same words in realified real-linear arithmetic
    r_word = np.linalg.matrix_power(_realify(ak), n)
    r_c = _realify(k)
    if n % 2 == 0:
        blocks = {
            (0, 0): (w, r_word),
            (1, 1): (k @ np.conj(w) @ np.conj(k), r_c @ r_word @ r_c),
        }
    else:
        blocks = {
            (0, 1): (w @ np.conj(k), r_word @ r_c),
            (1, 0): (k @ np.conj(w), r_c @ r_word),
        }
    predicted = np.zeros_like(frak)
    cross = 0.0
    for (i, j), (block, r_block) in blocks.items():
        predicted[i * dim : (i + 1) * dim, j * dim : (j + 1) * dim] = block
        m, shape_res = _derealify(r_block)
        cross = max(cross, shape_res, float(np.abs(m - block).max()))
    # over every entry, so a nonzero where the predicted blocks are zero fails too
    block_residual = float(np.abs(direct - predicted).max())

    bound = d.bound(n)
    checks = CheckList()
    checks.add_residual("power_block_identity", block_residual, bound)
    checks.add_residual("power_evaluation_crosscheck", cross, bound)
    return PowerReport(n, block_residual, cross, None, checks)


def power_norm_identities(d: DoubledMatrix, x, y, n: int):
    """Deviations in the norm identities for exponents 2n and 2n+1.

    Both parities reduce to || frakA^m (x, y) ||^2 =
    ||(AC)^m x||^2 + ||(AC)^m Cy||^2, using that C is isometric.  Each side
    is iterated on vectors, u <- frakA u and v <- AK conj(v), so no matrix
    power is formed.
    """
    if n < 0:
        raise InputError(f"exponent index must be nonnegative, got {n}")
    x = np.asarray(x, dtype=complex).reshape(-1)
    y = np.asarray(y, dtype=complex).reshape(-1)
    ak, frak = d.ak, d.frak
    u = np.concatenate([x, y])
    v = np.column_stack([x, d.c.apply(y)])  # the Frobenius norm sums both columns
    for _ in range(2 * n):
        u, v = frak @ u, ak @ np.conj(v)
    even = _squared_norm_gap(u, v, 2 * n)
    u, v = frak @ u, ak @ np.conj(v)
    odd = _squared_norm_gap(u, v, 2 * n + 1)
    return even, odd


def _squared_norm_gap(u: np.ndarray, v: np.ndarray, m: int) -> float:
    """| ||u||^2 - ||v||^2 | for the two sides at exponent m; InputError
    when either square leaves the float range."""
    squares = np.square([np.linalg.norm(u), np.linalg.norm(v)])
    _require_finite(float(squares.max()), f"||(AC)^{m} x||^2")
    return float(abs(squares[0] - squares[1]))


@dataclass(frozen=True, eq=False)
class QaDiagnostics:
    """Partial sums of || (AC)^k x ||^(-1/k) and the growth-bound probe.

    diverged means some power annihilated x, after which every term is the
    +inf marker; growth_bound is the smallest M with ||(AC)^k x|| <= M^k k!
    over the computed range.
    """

    terms: list[float]
    partial_sums: list[float]
    diverged: bool
    growth_bound: float


def qa_partial_sums(d: DoubledMatrix, x, n_terms: int) -> QaDiagnostics:
    """Quasi-analytic partial sums of x under the A and C of d.

    A step annihilates x when ||(AC)^k x|| <= eps ||A||_2 ||(AC)^(k-1) x||:
    the cut is relative to the step, so a matrix of small norm that
    annihilates nothing keeps finite terms.  A squared norm past the float
    range is an InputError naming it, not a marker.  The partial sums stay
    finite: a nonzero norm, the root of a sum of squares, is at least
    2.2e-162, so no term exceeds 5e161.
    """
    if n_terms < 1:
        raise InputError(f"need at least one term, got {n_terms}")
    x = np.asarray(x, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(x))
    if not np.any(x):
        raise InputError("partial sums are undefined for the zero vector")
    terms: list[float] = []
    sums: list[float] = []
    diverged = False
    growth = 0.0
    v = x
    total = 0.0
    for k in range(1, n_terms + 1):
        v = d.ak @ np.conj(v)
        previous, norm = norm, float(np.linalg.norm(v))
        _require_finite(norm * norm, f"||(AC)^{k} x||^2")
        if norm <= d.tol.eps * d.norm * previous:
            diverged = True
        if diverged:
            terms.append(np.inf)
            total = np.inf
        else:
            terms.append(norm ** (-1.0 / k))
            total += terms[-1]
            growth = max(growth, (norm / math.factorial(k)) ** (1.0 / k))
        sums.append(total)
    return QaDiagnostics(terms, sums, diverged, growth)


def power_report(d: DoubledMatrix, x, y, n: int) -> PowerReport:
    """Full report for one exponent: block residuals for frakA^n and norm
    identities at exponents 2n and 2n+1.  The partial sums do not depend on
    the exponent; qa_partial_sums gives them once for all exponents."""
    base = doubled_power_blocks(d, n)
    devs = power_norm_identities(d, x, y, n)
    # deviations compare squared norms, which grow like ||A||^(2m) at m = 2n+1
    nbound = d.bound(4 * n + 2)
    nx = max(1.0, float(np.linalg.norm(x)) ** 2 + float(np.linalg.norm(y)) ** 2)
    checks = CheckList()
    checks.extend(base.checks)
    checks.add_residual("norm_identity_even", devs[0], nbound * nx)
    checks.add_residual("norm_identity_odd", devs[1], nbound * nx)
    return PowerReport(n, base.block_residual, base.crosscheck_residual, devs, checks)
