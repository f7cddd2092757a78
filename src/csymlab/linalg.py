"""Dense complex linear-algebra substrate.

Everything downstream works with subspaces of C^n carried by orthonormal
bases.  Rank decisions are made exclusively through singular values with a
single scale rule, so that every higher-level construction (relation
adjoints, deficiency spaces, extension manifolds) inherits one consistent
notion of "numerically zero".  Every subspace predicate compares its
residual with tol.bound() of the Tolerance its first operand carries.
Intersections are read off the principal angles between the two subspaces
(sin theta at or below the zero cutoff), from one SVD in the smaller
subspace's dimension.  A complement whose dimension is known
(_complement_columns: frakM, the complement of a domain) is read off
columns of the projector I - G G^H chosen by pivoted Cholesky, in
O(N r dim) instead of the full SVD of complement.

Every SVD and matrix norm of the package is one of four kinds:

- Rank decision (the rank is unknown; singular values are cut at
  zero_cutoff): orthonormal_basis on data from outside (a ProblemSpec's
  non-orthonormal domain columns, an "onb" parameter) and on projections
  (kernel_one_plus's first components, extensions' domain sums);
  _ranked_svd, its cut matrix by matrix on stacks of m-row matrices (the
  sweep's candidates and the spans of its isotropic completions);
  extend_basis's SVD of the new residual, and _bordered's on the stacked
  residuals of the enumerate round trip's rebuilt columns and on the
  relation that recover_parameter is given; intersect, and through it
  kernel_one_plus; LinearRelation._top_rank (domain, multivalued part,
  is_operator) of a relation given by its graph alone, from the singular
  values alone (compute_uv=False) of its top block, the cut the round
  trip puts on the stacked top blocks of its hits; polar's rank r and
  takagi's grouping of the same singular values.  Singular vectors follow
  a rank decision only where they are read: LinearRelation._top_svd's, for
  a proper domain or a nonzero multivalued part, sliced at _top_rank (an
  everywhere-defined relation's domain is full_space).
- Structural rank (the rank is known by construction, so the SVD only
  re-orthonormalizes, uncut): complement; _complement_columns' thin SVD of
  its chosen projector columns (DoubledProblem.frakM, the complement of
  [graph(A), J graph(B)], and the complement of D(A) that the minimum-norm
  completion reads) and the completion's new columns
  (extensions.minimum_norm_unitary); operator_relation's graph
  [D; AD] (rank that of D); extensions._sweep_frame, the one
  re-orthonormalization of a basis that is orthonormal as built: it
  rebuilds graph(B*) by SVDs (orthonormal_basis of J graph(A), complement,
  orthonormal_basis of the C-image) and takes
  extensions._complement_formula_intersect's complements, which also build
  the sweep's pools, because the sweep's hit counts depend on those bits.
  LinearRelation.adjoint takes no SVD: J graph(R), J(x, y) = (y, -x), is
  orthonormal of known rank as built, and graph(R*), its complement, is
  the trailing columns of one complete Householder QR, built only where
  a graph basis of A* or B* is read.  Images under C
  (LinearRelation.conjugated for B = CAC, DoubledProblem's B* = C A* C, and
  Conjugation.map_subspace for D(B) = C D(A) and the C-images of the
  kernels), under frakE (N+), under S (extension_from_parameter's S(L))
  and under J (m_spaces' frakM' = J frakM) take the image of the
  orthonormal basis through _trusted.
- 2-norm value (a number that is reported or scales a cut), by
  _spectral_norm, the top eigenvalue of the smaller Gram matrix, with no
  SVD (_spectral_norms on stacks): max_angle_sin and adjoint_gap wherever
  a check reports them as residuals (deficiency and race_decomposition;
  extension_from_parameter and enumerate's roundtrip angle take them over
  the k new columns of a bordered graph, so on k x k Gram matrices),
  the error payloads of the doubled guards and of the completion's,
  extend_basis's scale ||cols||_2 and powers' ||A||_2.  A matrix whose
  largest entry lies outside [2^-500, 2^500] is scaled by a power of two
  first, so its Gram matrix neither overflows nor underflows.
- Bound-only decision (a yes/no against tol.bound()), by _norm_within,
  the Frobenius certificate (_norms_within on stacks): is_subspace_of
  (subspace_equal, contained_in, equals), is_c_selfadjoint (and, on the
  n x n gap assembled from graph(A)'s block and the new columns' blocks,
  the sweep's and recover_parameter's, extensions._c_selfadjoint_grown),
  preserves_subspace, the frakA* guard where A* and B* are built (on the
  two nonzero 2n-row blocks of the doubled gap matrix, A's gap against
  graph(A*) and B's against graph(B*)), build_doubled's frakE certificate
  (the difference of the bases of C graph(B) and graph(A),
  doubling._conjugates_back), the C-symmetry guard (A's dim graph(A) x
  dim graph(B) adjoint gap of graph(B), DoubledProblem.c_symmetric), the
  minimum-norm completion's two guards, extension_from_parameter's block
  reassembly and the brute-force filter.  Each
  builds its residual matrix once (_angle_residual, LinearRelation._gap_matrix,
  extensions._omega_block) and takes a Gram eigenvalue only when the
  Frobenius norm leaves the answer open.  is_subspace_of and
  subspace_equal against the whole space are decided by dimensions alone.

Sums are grown by bordering: extend_basis(S, cols) keeps the basis of S as
it is and appends an orthonormal basis of what cols add.  The columns are
projected off S twice, which leaves them orthogonal to S to working
precision ("twice is enough": Giraud, Langou & Rozloznik, Comput. Math.
Appl. 50 (2005)), and one SVD of that residual makes the rank decision.  A
sum thus costs an SVD in the number of new columns, not in dim S + k.

Trust boundary: Subspace(...) checks that a basis from outside is finite
and orthonormal.  Bases orthonormal by construction (SVD factors, coordinate
blocks, bordered sums, antiunitary images) go through _trusted, which skips
both checks; a test puts them back over every CLI command and fixture.

Inner product convention: <u, v> = sum_i u_i * conj(v_i), linear in the
first argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, PropertyViolationError


@dataclass(frozen=True)
class Tolerance:
    """Tolerance governing rank decisions and residual comparisons.

    Ranks: a singular value sigma is treated as zero iff
    sigma <= zero_cutoff(sigma_max) = eps * max(1, sigma_max).  Identities:
    every check that a residual vanishes compares it with
    bound(scale) = 1e3 * eps * scale, scale being the norm the residual
    grows with (1 on orthonormal bases).  Predicates take no tolerance
    argument: each reads bound() from the Tolerance of its first subspace
    or relation operand.  The same Tolerance object should be threaded
    through a whole computation.
    """

    eps: float = 1e-10

    def __post_init__(self):
        if not (self.eps > 0 and np.isfinite(self.eps)):
            raise InputError(f"tolerance eps must be positive and finite, got {self.eps}")

    def zero_cutoff(self, sigma_max):
        """eps * max(1, sigma_max), elementwise for an array of sigma_max."""
        return self.eps * np.maximum(1.0, sigma_max)

    def bound(self, scale: float = 1.0) -> float:
        return 1e3 * self.eps * scale


DEFAULT_TOL = Tolerance()


def inner(u, v) -> complex:
    """<u, v> = sum_i u_i conj(v_i); linear in the first argument."""
    return complex(np.vdot(v, u))


def _as_complex_matrix(a, name="matrix"):
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if m.size and not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise InputError(f"{name} contains non-finite entries")
    return m


def _gram_residual(m: np.ndarray):
    """max |m^H m - I| over the entries, of a matrix or of each matrix in a
    stack; 0.0 when m has no columns."""
    return np.abs(_adjoint(m) @ m - np.eye(m.shape[-1])).max(axis=(-2, -1), initial=0.0)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^n held as an n x k orthonormal basis, checked here (see _trusted)."""

    basis: np.ndarray
    tol: Tolerance = field(default=DEFAULT_TOL)

    def __post_init__(self):
        b = _as_complex_matrix(self.basis, "basis")
        _freeze_basis(self, b)
        gram_residual = _gram_residual(b)
        if gram_residual > self.tol.bound():
            raise InputError(f"basis columns are not orthonormal (Gram residual {gram_residual:.3e})")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def project(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        return self.basis @ (self.basis.conj().T @ x)

    def contains_vector(self, x) -> bool:
        x = np.asarray(x, dtype=complex)
        bound = self.tol.bound(max(1.0, float(np.linalg.norm(x))))
        return float(np.linalg.norm(x - self.project(x))) <= bound


def _freeze_basis(s: Subspace, b: np.ndarray) -> None:
    if b.shape[0] < 1:
        raise InputError("ambient dimension must be positive")
    if b.shape[1] > b.shape[0]:
        raise InputError(f"basis has more columns ({b.shape[1]}) than ambient dimension ({b.shape[0]})")
    b = b.copy()
    b.setflags(write=False)
    object.__setattr__(s, "basis", b)


def _trusted(basis: np.ndarray, tol: Tolerance) -> Subspace:
    """Subspace(basis, tol) for a basis orthonormal by construction: shape
    checked, copied and frozen, with no finiteness scan and no Gram check."""
    s = object.__new__(Subspace)
    object.__setattr__(s, "tol", tol)
    _freeze_basis(s, np.asarray(basis, dtype=complex))
    return s


def _check_same_ambient(s1: Subspace, s2: Subspace):
    if s1.ambient_dim != s2.ambient_dim:
        raise InputError(f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}")


def orthonormal_basis(cols, tol: Tolerance = DEFAULT_TOL, ambient_dim=None) -> Subspace:
    """The span of the columns of a 2-d array as a Subspace.

    Rank is decided by the Tolerance scale rule on the singular values.
    Anything but a 2-d ndarray is refused: np.asarray would read a list of
    vectors as rows.
    """
    if not (isinstance(cols, np.ndarray) and cols.ndim == 2):
        got = f"shape {cols.shape}" if isinstance(cols, np.ndarray) else type(cols).__name__
        raise InputError(f"columns must be a 2-d array, got {got}")
    a = np.asarray(cols, dtype=complex)
    if ambient_dim is not None and a.shape[0] != ambient_dim:
        raise InputError(f"columns live in dimension {a.shape[0]}, expected {ambient_dim}")
    if a.shape[1] == 0:
        return _trusted(a, tol)
    u, rank = _ranked_svd(a, tol)
    return _trusted(u[:, :rank], tol)


def _ranked_svd(a: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """The thin U and the rank of a matrix with at least one column, or of
    each matrix in a stack: the singular values cut at
    tol.zero_cutoff(sigma_0) matrix by matrix.  numpy's stacked svd runs
    the LAPACK routine of one matrix on each, so U[i, :, :rank[i]] holds
    the bits of orthonormal_basis(a[i])."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u, np.sum(s > tol.zero_cutoff(s[..., :1]), axis=-1)


def zero_subspace(n: int, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    return _trusted(np.zeros((n, 0), dtype=complex), tol)


def full_space(n: int, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    return _trusted(np.eye(n, dtype=complex), tol)


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement; dim complement = ambient_dim - dim."""
    n, k = s.basis.shape
    if k == 0:
        return full_space(n, s.tol)
    u, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return _trusted(u[:, k:], s.tol)


def _complement_columns(g: np.ndarray, dim: int, what: str) -> np.ndarray:
    """An orthonormal basis of span(G)^perp, for G with orthonormal columns
    whose complement has the known dimension dim, in O(N r dim) for G N x r.

    The columns are dim columns P e_i of the projector P = I - G G^H, chosen
    by pivoted Cholesky of P (Higham, "Analysis of the Cholesky
    decomposition of a semi-definite matrix", 1990): each pivot is the
    largest diagonal entry of the Schur complement left by the columns
    chosen so far, starting from diag(P) = 1 - ||row_i(G)||^2, and each
    column of P is formed when it is chosen.  That Schur complement is a
    projector of rank dim - j after j steps, so its trace is dim - j and
    step j's pivot is at least (dim - j)/N in exact arithmetic; a pivot
    below half of that raises PropertyViolationError naming `what`.  The
    chosen columns are projected off G twice and orthonormalized by a thin
    SVD with no rank cut: they are independent by construction.
    """
    n = g.shape[0]
    schur = np.zeros((n, dim), dtype=complex)
    diagonal = 1.0 - np.sum(np.abs(g) ** 2, axis=1)
    pivots = []
    for j in range(dim):
        p = int(np.argmax(diagonal))
        if diagonal[p] < (dim - j) / (2 * n):
            raise PropertyViolationError(
                f"{what}: pivoted Cholesky of the projector breaks down at column {j + 1} of {dim}",
                {"pivot": float(diagonal[p])},
            )
        column = -(g @ g[p].conj()) - schur[:, :j] @ schur[p, :j].conj()
        column[p] += 1.0
        schur[:, j] = column / np.sqrt(diagonal[p])
        diagonal -= np.abs(schur[:, j]) ** 2
        pivots.append(p)
    if not dim:
        return schur
    chosen = np.zeros((n, dim), dtype=complex)
    chosen[pivots, np.arange(dim)] = 1.0
    return np.linalg.svd(_outside(_outside(chosen, g), g), full_matrices=False)[0]


def extend_basis(s: Subspace, cols) -> Subspace:
    """span(S) + span(cols) with the basis [S.basis, new].

    new is an orthonormal basis of the residual of cols after two
    projections off S.  The rank cut is tol.zero_cutoff(||cols||_2): the
    scale comes from the columns as given, so a direction is dropped only
    when it is at rounding level relative to them, never relative to what
    is left of them after the projections.
    """
    cols = _as_complex_matrix(cols, "cols")
    if cols.shape[0] != s.ambient_dim:
        raise InputError(f"columns live in dimension {cols.shape[0]}, subspace in {s.ambient_dim}")
    if cols.shape[1] == 0:
        return s
    u, rank = _bordered(s, cols)
    return _trusted(np.hstack([s.basis, u[:, :rank]]), s.tol)


def _bordered(s: Subspace, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The thin U of the twice-projected residual of a column block with at
    least one column, or of each block in a stack, and the rank of what it
    adds to S: [S.basis, U[i, :, :rank[i]]] is extend_basis(S, cols[i])
    bit for bit."""
    residual = cols - s.basis @ (s.basis.conj().T @ cols)
    residual -= s.basis @ (s.basis.conj().T @ residual)
    u, sigma, _ = np.linalg.svd(residual, full_matrices=False)
    return u, np.sum(sigma > s.tol.zero_cutoff(_spectral_norms(cols))[..., None], axis=-1)


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    return extend_basis(s1, s2.basis)


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """S1 cap S2 from the principal angles between S1 and S2.

    With the smaller subspace as S1, the singular values of the residual
    S1 - S2 (S2^H S1) are the sines of the principal angles and its right
    singular vectors V the principal directions in S1 (Bjorck & Golub,
    Math. Comp. 27 (1973)).  The intersection is S1 V restricted to the
    directions with sin theta <= tol.zero_cutoff(1.0); its columns are
    orthonormal by construction.  Rows of the residual that are exactly
    zero (all of S2's rows when S2 is a coordinate block) change neither
    the sines nor V and are dropped before the SVD; when fewer rows than
    columns remain, the missing sines are 0.
    """
    _check_same_ambient(s1, s2)
    if s1.dim > s2.dim:
        s1, s2 = s2, s1
    if s1.dim == 0:
        return zero_subspace(s1.ambient_dim, s1.tol)
    residual = s1.basis - s2.basis @ (s2.basis.conj().T @ s1.basis)
    residual = residual[np.any(residual != 0, axis=1)]
    _, sines, vh = np.linalg.svd(residual, full_matrices=residual.shape[0] < s1.dim)
    sines = np.pad(sines, (0, s1.dim - sines.size))
    inside = sines <= s1.tol.zero_cutoff(1.0)
    return _trusted(s1.basis @ vh[inside].conj().T, s1.tol)


def _angle_residual(s1: Subspace, s2: Subspace) -> np.ndarray:
    """S1 - S2 (S2^H S1): the part of S1's basis outside S2.  Its 2-norm is
    the sine of the largest principal angle from S1 into S2."""
    _check_same_ambient(s1, s2)
    return _outside(s1.basis, s2.basis)


def _outside(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """B1 - B2 (B2^H B1) for orthonormal bases or stacks of them."""
    return b1 - b2 @ (_adjoint(b2) @ b1)


def _adjoint(m: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(m.conj(), -1, -2)


def max_angle_sin(s1: Subspace, s2: Subspace) -> float:
    """sin of the largest principal angle from S1 into S2.

    Zero iff S1 is contained in S2; equals the operator norm of
    (I - P_{S2}) restricted to S1.
    """
    return _spectral_norm(_angle_residual(s1, s2))


def _spectral_norm(m: np.ndarray) -> float:
    """||m||_2 as sqrt of the top eigenvalue of the smaller Gram matrix.

    The Gram matrix carries sigma_max^2 to relative accuracy eps, so
    sigma_max keeps its relative accuracy; no SVD is taken.
    """
    return float(_spectral_norms(m))


def _spectral_norms(m: np.ndarray) -> np.ndarray:
    """_spectral_norm of a matrix, or of each matrix in a stack by one
    stacked eigvalsh.

    The Gram matrix squares the entries, so a matrix whose largest entry
    lies outside [2^-500, 2^500] is first scaled by 2^-e, e the binary
    exponent of that entry, and its norm scaled back by 2^e: exact, and
    no Gram entry overflows or underflows.  Every other matrix is taken
    as it is, bit for bit.
    """
    rows, cols = m.shape[-2:]
    if not rows * cols:
        return np.zeros(m.shape[:-2])
    exponent = np.zeros(m.shape[:-2], dtype=int)
    largest = np.abs(m).max(axis=(-2, -1))
    outside = (largest > 2.0**500) | ((largest < 2.0**-500) & (largest > 0))
    if outside.any():
        exponent = np.where(outside, np.frexp(largest)[1], 0)
        shift = -exponent[..., None, None]
        m = np.ldexp(m.real, shift) + 1j * np.ldexp(m.imag, shift)
    gram = _adjoint(m) @ m if rows >= cols else m @ _adjoint(m)
    return np.ldexp(np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0)), exponent)


def _norm_within(m: np.ndarray, bound: float) -> bool:
    """||m||_2 <= bound, decided by the Frobenius norm where it settles it.

    ||m||_F / sqrt(r) <= ||m||_2 <= ||m||_F with r = min(m.shape) (Golub &
    Van Loan, Matrix Computations, 2.3), so ||m||_F <= bound proves the
    bound and ||m||_F > sqrt(r) bound refutes it.  Only in between is the
    2-norm computed (_spectral_norm).  The answer is that of
    _spectral_norm(m) <= bound; only the work differs.
    """
    return bool(_norms_within(m[None], bound)[0])


def _norms_within(m: np.ndarray, bound: float) -> np.ndarray:
    """_norm_within for each matrix in a stack; the 2-norms still open after
    the Frobenius certificate are taken in one stacked eigvalsh."""
    frobenius = _frobenius_norms(m)
    within = frobenius <= bound
    open_ = ~within & (frobenius <= np.sqrt(min(m.shape[-2:])) * bound)
    if open_.any():
        within[open_] = _spectral_norms(m[open_]) <= bound
    return within


def _frobenius_norms(m: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix in a stack, with the bits of
    np.linalg.norm of that matrix: its real and imaginary parts are
    flattened in memory order and each summed by a vector dot product."""
    if abs(m.strides[-1]) > abs(m.strides[-2]):
        m = np.swapaxes(m, -1, -2)
    flat = m.reshape(*m.shape[:-2], 1, m.shape[-2] * m.shape[-1])
    re, im = flat.real, flat.imag
    return np.sqrt((re @ _adjoint(re) + im @ _adjoint(im))[..., 0, 0])


def is_subspace_of(s1: Subspace, s2: Subspace) -> bool:
    """True iff S1 is contained in S2 within S1's tol.bound().  Every S1 is
    contained in the whole space, so an S2 of full dimension takes no
    product."""
    _check_same_ambient(s1, s2)
    if s2.dim == s2.ambient_dim:
        return True
    return s1.dim <= s2.dim and _norm_within(_angle_residual(s1, s2), s1.tol.bound())


def subspace_equal(s1: Subspace, s2: Subspace) -> bool:
    """True iff dims agree and the largest principal angle is within S1's
    tol.bound(); against the whole space, the dimension count alone."""
    _check_same_ambient(s1, s2)
    return s1.dim == s2.dim and is_subspace_of(s1, s2)
