"""The matrix trick: doubling a C-symmetric relation into a symmetric one.

A relation A on H with B = CAC is lifted to frakA on H + H acting as
(x, y) -> (Ay, Bx), together with the block conjugation frakE(x, y) =
(Cy, Cx).  C-symmetry of A is exactly symmetry of frakA, so ordinary
von Neumann deficiency theory applies upstairs and is pulled back down.

Coordinates of the doubled graph in C^(4n): (x, y, v, u) with domain pair
(x, y) and value pair (v, u) = (Ay, Bx).

frakA = block(A, B) and frakA* = block(B*, A*) are, in the row order
(y, v | x, u), the block pairs graph(A) + graph(B) and graph(B*) +
graph(A*), so build_doubled, deficiency() and vn_decomposition read the
one-space graphs and no 4n-row basis is built.  frakE (antiunitary) keeps
graph bases orthonormal, so no image under it is re-derived by a rank
decision.

The deficiency spaces are read off frakM = graph(B*) - graph(A), the
orthogonal difference in H + H: N+- = {(y, +-ix) : (x, y) in frakM}.  For
w = (y, ix) the pair (w, iw) = (y, ix, iy, -x) lies in graph(frakA*) iff
(ix, iy) is in graph(B*) and (y, -x) in graph(A*), that is iff (x, y) is in
graph(B*) and orthogonal to graph(A), graph(A*) being the complement of
J graph(A), J(x, y) = (y, -x); N- likewise.  The map (x, y) -> (y, +-ix) is
unitary, so N+- come with orthonormal bases and no SVD in C^(4n), and the
identity needs no C-symmetry.  frakM itself is linalg.orthogonal_difference
(graph(B*), graph(A)): the directions of graph(B*) whose cosine with
graph(A) is zero, from one SVD of the dim graph(A) x dim graph(B*) matrix of
cosines, with no complement in C^(2n).  The brute-force sweep draws its
candidates in another basis of the same subspace, which it builds itself
(extensions._sweep_frame).

DoubledProblem owns every object derived from A and C: B = CAC, A*, B*,
frakE, frakM and N+-, built once by build_doubled, and the other M-spaces,
the anti-involution S and omega, built on first use.
Everything downstream reads them from it.  omega, the matrix of S in
frakM's basis, is the one coordinate matrix of the defect space: frakE
between N+ and N-, the block map D, and the symplectic form whose
Lagrangians are the extensions are all read off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .antilinear import AntiLinearMap, Conjugation, _trusted_conjugation
from .csym import MSpaces, _require_c_symmetric, anti_involution, is_c_selfadjoint, m_spaces
from .errors import PreconditionError, PropertyViolationError
from .linalg import (
    Subspace,
    Tolerance,
    _norm_within,
    _spectral_norm,
    _trusted,
    max_angle_sin,
    orthogonal_difference,
    subspace_equal,
    subspace_sum,
)
from .relations import LinearRelation
from .reporting import CheckList


def doubled_conjugation(c: Conjugation) -> Conjugation:
    """frakE(x, y) = (Cy, Cx), the matrix [[0, K], [K, 0]] of C's K.

    Its Gram matrix is diag(K^H K, K^H K) and its transpose residual is
    K's, so its axioms are C's, checked when C was built; they are not
    checked again on the 2n x 2n matrix.
    """
    k = c.matrix
    z = np.zeros_like(k)
    return _trusted_conjugation(np.block([[z, k], [k, z]]), c.tol)


def _require_block_adjoint(a: LinearRelation, b: LinearRelation, s: LinearRelation, t: LinearRelation) -> None:
    """PropertyViolationError unless block(S, T) is the adjoint of
    block(A, B), decided on the four one-space graphs.

    The dimensions must add up to 4n, and the adjoint gap matrix of
    block(A, B) against block(S, T) must vanish.  That matrix has two
    nonzero blocks, A._gap_matrix(graph(T)) and B._gap_matrix(graph(S)):
    A's columns of block(A, B) meet only T's (rows :n and 3n:), B's only
    S's (rows n:3n).  Its 2-norm is the larger of theirs.
    """
    gaps = (a._gap_matrix(t.graph.basis), b._gap_matrix(s.graph.basis))
    dims = a.graph.dim + b.graph.dim + s.graph.dim + t.graph.dim
    if dims != 4 * a.ambient_dim or not all(_norm_within(m, a.tol.bound()) for m in gaps):
        raise PropertyViolationError(
            "adjoint of the doubled relation disagrees with the block form",
            {"angle": max(_spectral_norm(m) for m in gaps)},
        )


@dataclass(frozen=True, eq=False)
class DoubledProblem:
    a: LinearRelation
    c: Conjugation
    b: LinearRelation
    a_star: LinearRelation
    b_star: LinearRelation
    frakC: Conjugation
    frakM: Subspace
    n_plus: Subspace
    n_minus: Subspace

    @property
    def ambient_dim(self) -> int:
        return self.a.ambient_dim

    @property
    def tol(self) -> Tolerance:
        return self.a.tol

    # the defect geometry below is computed once per problem on first use
    @cached_property
    def spaces(self) -> MSpaces:
        """M-spaces of A and B*; raises PreconditionError unless C-symmetric."""
        return m_spaces(self)

    @cached_property
    def s_map(self) -> AntiLinearMap:
        """The anti-involution S(f, g) = (Cg, -Cf), checked on frakM."""
        return anti_involution(self)

    @cached_property
    def omega(self) -> np.ndarray:
        """Omega = M^H S conj(M), the k x k matrix of S on frakM in its basis M.

        With M = [X; Y], N+- = [Y; +-iX] (build_doubled), and each defect
        coordinate matrix is Omega up to a unit: frakE: N+ -> N- is
        i Omega and frakE: N- -> N+ is -i Omega (antilinear), D = diag(-I, I)
        is -I from N- to N+, and the symplectic form omega(x, y) =
        <Jx, Cy> of frakM, J(x, y) = (y, -x), has matrix -Omega.

        The product is formed exactly so, left to right.  Its bits are read
        by canonical_extension's greedy L, whose reported extension can
        change with them (zero_on_subspace's is_operator did once, with a
        rounding-level change of frakM's basis), and by the parameter
        conversions and checks (parameter_as_unitary,
        frakE_condition_residual).  The brute-force sweep reads the Omega
        of its own frame instead (extensions._sweep_frame).  Raises like
        s_map.
        """
        m = self.frakM.basis
        return m.conj().T @ self.s_map.matrix @ np.conj(m)


def build_doubled(a: LinearRelation, c: Conjugation) -> DoubledProblem:
    """Assemble A*, B = CAC, B*, frakE, frakM and the deficiency subspaces
    N+- of frakA*.

    A* is LinearRelation.adjoint, one complete QR and no SVD; B and B* are
    the C-images of graph(A) and graph(A*), orthonormal as built.
    frakA* = block(B*, A*) is checked against frakA = block(A, B) on the
    one-space graphs (_require_block_adjoint): the four dimensions must add
    up to 4n and the two 2n-row blocks of the adjoint gap matrix must
    vanish; neither block relation is built.  frakE frakA frakE = frakA
    asks C graph(A) = graph(B), true bit for bit as built, and
    C graph(B) = graph(A), checked on the 2n x n basis with no rank cut.
    Failure of either guard means a bug, not a regime boundary, and raises.
    N+- are the unitary images {(y, +-ix)} of frakM's basis [X; Y] (see the
    module docstring); deficiency() checks them.
    """
    if c.dim != a.ambient_dim:
        raise PreconditionError(f"conjugation dimension {c.dim} != relation ambient {a.ambient_dim}")
    n = a.ambient_dim
    a_star = a.adjoint()
    b = a.conjugated(c)
    # B* = (CAC)* = C A* C: C is antiunitary, so the C-image of A*'s basis
    # is orthonormal as built and takes no SVD, as B = CAC above
    b_star = LinearRelation(_trusted(a_star.conjugated_basis(c), a.tol))
    _require_block_adjoint(a, b, b_star, a_star)
    if not b.conjugated(c).equals(a):
        raise PropertyViolationError("frakE frakA frakE = frakA fails", {})
    frak_m = orthogonal_difference(b_star.graph, a.graph)
    top, bottom = frak_m.basis[:n], frak_m.basis[n:]
    n_plus = _trusted(np.vstack([bottom, 1j * top]), a.tol)
    n_minus = _trusted(np.vstack([bottom, -1j * top]), a.tol)
    return DoubledProblem(a, c, b, a_star, b_star, doubled_conjugation(c), frak_m, n_plus, n_minus)


def deficiency(dp: DoubledProblem) -> CheckList:
    """Dimension, bijection and componentwise checks of dp's deficiency
    subspaces.

    N+- are built from frakM, so their dimensions agree by construction;
    the dimension check compares both with the von Neumann count
    (dim graph(frakA*) - dim graph(frakA)) / 2, read off the one-space
    graphs: dim graph(B*) + dim graph(A*) - dim graph(A) - dim graph(B).
    The componentwise check proves membership in graph(frakA*); with the
    count it proves equality.
    """
    _require_c_symmetric(dp)
    bound = dp.tol.bound()
    checks = CheckList()
    excess = dp.b_star.graph.dim + dp.a_star.graph.dim - dp.a.graph.dim - dp.b.graph.dim
    # N+- share frakM's column count as built, so each is held to the count
    checks.add(
        "dim_nplus_equals_dim_nminus",
        all(2 * space.dim == excess for space in (dp.n_plus, dp.n_minus)),
        detail=f"dims {dp.n_plus.dim}, {dp.n_minus.dim}",
    )
    # the frakE image is trusted, so it has N-'s dimension
    checks.add_residual(
        "frakE_maps_nplus_onto_nminus", max_angle_sin(dp.frakC.map_subspace(dp.n_plus), dp.n_minus), bound
    )
    # componentwise: w = (x, y) in N+ means (y, ix) in graph(B*) and (x, iy) in graph(A*);
    # the residual is the largest distance of one such pair from its graph
    n = dp.ambient_dim
    x, y = dp.n_plus.basis[:n], dp.n_plus.basis[n:]
    comp_res = max(
        float(np.linalg.norm(pairs - target.graph.project(pairs), axis=0).max(initial=0.0))
        for target, pairs in ((dp.b_star, np.vstack([y, 1j * x])), (dp.a_star, np.vstack([x, 1j * y])))
    )
    checks.add_residual("componentwise_characterization", comp_res, bound)
    return checks


def _cross_residual(b1: np.ndarray, b2: np.ndarray) -> float:
    """Largest |<b1_i, b2_j>| over the columns of two bases, 0 if either is empty."""
    return float(np.abs(b1.conj().T @ b2).max(initial=0.0))


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    regime: str
    subspaces: dict
    checks: CheckList
    measurements: dict


def _imaginary_pair(w: np.ndarray, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """The (y, v) and (x, u) row blocks of the columns (w, +-iw)/sqrt(2) of
    C^(4n), w = (x, y) a column of C^(2n); orthonormal for orthonormal w."""
    n = w.shape[0] // 2
    x, y = w[:n], w[n:]
    s = sign * 1j
    return np.vstack([y, s * x]) / np.sqrt(2.0), np.vstack([x, s * y]) / np.sqrt(2.0)


def _square_kernel(spaces: MSpaces) -> Subspace:
    """N((frakA*)^2 + I) = N(I + B*A*) x N(I + A*B*) in H + H.

    frakA*(x, y) = (B*y, A*x), so (frakA*)^2 (x, y) = (B*A*x, A*B*y); the
    two kernels are the M-spaces' kernel_one_plus results, and their
    orthonormal bases stacked block-diagonally are orthonormal as built.
    """
    first, second = spaces.m_astar, spaces.m_bstar
    n = first.ambient_dim
    basis = np.zeros((2 * n, first.dim + second.dim), dtype=complex)
    basis[:n, : first.dim] = first.basis
    basis[n:, first.dim :] = second.basis
    return _trusted(basis, first.tol)


def vn_decomposition(dp: DoubledProblem) -> DecompositionReport:
    """graph(frakA*) = graph(frakA) + N_hat_plus + N_hat_minus, orthogonally,
    read off dp's one-space objects with no 4n-row basis.

    N_hat_+- are the graph elements (w, +-iw)/sqrt(2), w in N+-, of frakA*.
    In the row order (y, v | x, u), graph(frakA) is the block pair
    graph(A) + graph(B), graph(frakA*) is graph(B*) + graph(A*), and with
    M = [X; Y] frakM's basis and JM = [Y; -X], N_hat_+- = [+-iM; JM]/sqrt(2)
    (_imaginary_pair of N+- = [Y; +-iX]).  So graph(frakA) is orthogonal to
    N_hat_+- iff graph(A)^H (+-iM) and graph(B)^H JM vanish, N_hat_+ to
    N_hat_- iff (-M^H M + (JM)^H JM)/2 does, and the three span graph(frakA*)
    iff graph(A) + M = graph(B*) and graph(B) + JM = graph(A*), the cached
    M-spaces' sums (JM is frakM').

    The splitting of N((frakA*)^2 + I) into the first components of
    N_hat_+-, N+ + N- = span(Y) x span(X), is additionally checked, the one
    check of the kernels against frakM: the kernel is N(I + B*A*) x
    N(I + A*B*) (_square_kernel), from the cached M-spaces, whose
    kernel_one_plus does not read N+-.  Its n-row form, each kernel against
    one component of frakM, passed race_schrodinger(26) with dim 3, not 4.
    Raises PreconditionError unless A is C-symmetric (frakA symmetric).

    There is no domain-level check D(frakA*) = D(frakA) + N((frakA*)^2 + I).
    In A's operator regime frakA is an everywhere-defined operator (B = CAC
    has A's graph dimension and top-block singular values), so frakA inside
    frakA* and dim graph(frakA*) = 4n - 2n give frakA = frakA*,
    (frakA*)^2 + I is injective and the form says nothing.  Otherwise
    mul frakA* = D(frakA)^perp is not {0}, the form is skipped and the
    independence of the eigenspace sum is recorded as a measurement.
    """
    spaces = dp.spaces  # raises PreconditionError unless C-symmetric
    bound = dp.tol.bound()
    checks = CheckList()
    measurements = {}
    hats = {"plus": _imaginary_pair(dp.n_plus.basis, 1), "minus": _imaginary_pair(dp.n_minus.basis, -1)}
    for label, (yv, xu) in hats.items():
        residual = max(_cross_residual(dp.a.graph.basis, yv), _cross_residual(dp.b.graph.basis, xu))
        checks.add_residual(f"graph_orth_t_nhat_{label}", residual, bound)
    (yv_plus, xu_plus), (yv_minus, xu_minus) = hats.values()
    cross = yv_plus.conj().T @ yv_minus + xu_plus.conj().T @ xu_minus
    checks.add_residual("graph_orth_nhat_plus_minus", float(np.abs(cross).max(initial=0.0)), bound)
    sums = ((spaces.bstar_sum, dp.a, dp.frakM, dp.b_star), (spaces.astar_sum, dp.b, spaces.frakM_prime, dp.a_star))
    spans = all(subspace_equal(t, big.graph) and t.dim == small.graph.dim + part.dim for t, small, part, big in sums)
    k = dp.frakM.dim
    checks.add(
        "graph_decomposition_spans_adjoint",
        spans,
        detail=f"dims {dp.a.graph.dim + dp.b.graph.dim}+{k}+{k} vs {dp.b_star.graph.dim + dp.a_star.graph.dim}",
    )
    kernel = _square_kernel(spaces)
    eig_sum = subspace_sum(dp.n_plus, dp.n_minus)
    checks.add(
        "kernel_splits_into_eigenspace_members",
        subspace_equal(kernel, eig_sum),
        detail=f"dim N((T*)^2+I) = {kernel.dim}",
    )
    if dp.a.regime != "operator":
        measurements["eigenspace_sum_direct"] = eig_sum.dim == dp.n_plus.dim + dp.n_minus.dim
        reason = "adjoint is multivalued; the decomposition is expressed at graph level"
        checks.skip("domain_decomposition", reason)
    return DecompositionReport(
        dp.a.regime,
        {"n_plus": dp.n_plus, "n_minus": dp.n_minus, "kernel_sq": kernel},
        checks,
        measurements,
    )


def race_decomposition(dp: DoubledProblem) -> DecompositionReport:
    """Defect decompositions of graph(B*) and graph(A*), with the
    self-adjointness corollary: N(I + A*B*) = {0} iff A is C-self-adjoint.

    The forms are checked at graph level.  The domain-level form
    D(B*) = D(A) + N(I + A*B*) presumes single-valued adjoints and is
    skipped outside the operator regime.  Inside it there is nothing to
    check: an everywhere-defined C-symmetric A has dim graph(B) = n =
    dim graph(A*), so B = A* and B* = A, N(I + A*B*) = N(I + A*A) = {0},
    and frakM = graph(B*) - graph(A) = {0}, so N+- = {0}.  A and C are
    those of ``dp``, whose cached M-spaces are used.
    """
    a, c = dp.a, dp.c
    spaces = dp.spaces  # raises PreconditionError unless C-symmetric
    bound = dp.tol.bound()
    checks = CheckList()
    # graph(B*) = graph(A) + frakM and graph(A*) = graph(B) + frakM'
    for name, big, small, m_part, total in (
        ("bstar_decomposition", dp.b_star, a, dp.frakM, spaces.bstar_sum),
        ("astar_decomposition", dp.a_star, dp.b, spaces.frakM_prime, spaces.astar_sum),
    ):
        ok = subspace_equal(total, big.graph) and _cross_residual(small.graph.basis, m_part.basis) <= bound
        checks.add(name, ok, detail=f"dims {small.graph.dim}+{m_part.dim} vs {big.graph.dim}")
    # C maps N(I + A*B*) onto N(I + B*A*)
    image = c.map_subspace(spaces.m_bstar)
    residual = max_angle_sin(image, spaces.m_astar) if image.dim == spaces.m_astar.dim else 1.0
    checks.add_residual("c_maps_kernels", residual, bound)
    # corollary: trivial kernel iff C-self-adjoint
    kernel_trivial = spaces.m_bstar.dim == 0
    selfadj = is_c_selfadjoint(a, c)
    checks.add(
        "selfadjointness_corollary",
        kernel_trivial == selfadj,
        detail=f"dim N(I+A*B*) = {spaces.m_bstar.dim}, C-self-adjoint = {selfadj}",
    )
    measurements = {"dim_kernel": spaces.m_bstar.dim, "two_dim_nplus": 2 * dp.n_plus.dim}
    if a.regime != "operator":
        reason = "domain is not everywhere defined; verbatim form needs single-valued adjoints"
        checks.skip("domain_decomposition", reason)
    return DecompositionReport(
        a.regime,
        {"frakM": dp.frakM, "frakM_prime": spaces.frakM_prime, "kernel": spaces.m_bstar},
        checks,
        measurements,
    )
