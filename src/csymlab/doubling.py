"""The matrix trick: doubling a C-symmetric relation into a symmetric one.

A relation A on H with B = CAC is lifted to frakA on H + H acting as
(x, y) -> (Ay, Bx), together with the block conjugation frakE(x, y) =
(Cy, Cx).  C-symmetry of A is exactly symmetry of frakA, so ordinary
von Neumann deficiency theory applies upstairs and is pulled back down.

Coordinates of the doubled graph in C^(4n): (x, y, v, u) with domain pair
(x, y) and value pair (v, u) = (Ay, Bx).

frakA* is assembled from B* and A*, and frakE (antiunitary) keeps graph
bases orthonormal, so neither is re-derived by a rank decision in C^(4n).

The deficiency spaces are read off frakM = graph(B*) - graph(A), the
orthogonal difference in H + H: N+- = {(y, +-ix) : (x, y) in frakM}.  For
w = (y, ix) the pair (w, iw) = (y, ix, iy, -x) lies in graph(frakA*) iff
(ix, iy) is in graph(B*) and (y, -x) in graph(A*), that is iff (x, y) is in
graph(B*) and orthogonal to graph(A), graph(A*) being the complement of
J graph(A), J(x, y) = (y, -x); N- likewise.  The map (x, y) -> (y, +-ix) is
unitary, so N+- come with orthonormal bases and no SVD in C^(4n), and the
identity needs no C-symmetry.

DoubledProblem owns every object derived from A and C: B = CAC, A*, B*,
frakA, frakA*, frakE, frakM and N+-, built once by build_doubled, and the
other M-spaces and the anti-involution S, built on first use.  Everything
downstream reads them from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .antilinear import AntiLinearMap, Conjugation
from .csym import MSpaces, anti_involution, graph_inner, is_c_selfadjoint, m_spaces
from .errors import PreconditionError, PropertyViolationError
from .linalg import (
    Subspace,
    Tolerance,
    _complement_formula_intersect,
    _trusted,
    complement,
    intersect,
    max_angle_sin,
    orthonormal_basis,
    subspace_equal,
    subspace_sum,
)
from .relations import LinearRelation, kernel_one_plus
from .reporting import CheckList


def doubled_conjugation(c: Conjugation) -> Conjugation:
    k = c.matrix
    z = np.zeros_like(k)
    return Conjugation(np.block([[z, k], [k, z]]), c.tol)


def block_relation(s: LinearRelation, t: LinearRelation) -> LinearRelation:
    """{((x, y), (v, u)) : (y, v) in S, (x, u) in T} on H + H."""
    if s.ambient_dim != t.ambient_dim:
        raise PreconditionError(f"ambient mismatch: {s.ambient_dim} vs {t.ambient_dim}")
    n = s.ambient_dim
    gs, gt = s.graph.basis, t.graph.basis
    cols = np.zeros((4 * n, gs.shape[1] + gt.shape[1]), dtype=complex)
    cols[n : 2 * n, : gs.shape[1]] = gs[:n]
    cols[2 * n : 3 * n, : gs.shape[1]] = gs[n:]
    cols[:n, gs.shape[1] :] = gt[:n]
    cols[3 * n :, gs.shape[1] :] = gt[n:]
    # the two column groups are orthonormal and mutually orthogonal
    return LinearRelation(_trusted(cols, s.tol))


def block_slices(r: LinearRelation) -> tuple[LinearRelation, LinearRelation]:
    """Extract (S, T) from a relation on H + H with block structure.

    S = {(y, v) : (0, y, v, 0) in graph}, T = {(x, u) : (x, 0, 0, u) in graph}.
    For genuinely block relations block_relation(S, T) reproduces the input.
    """
    n2 = r.ambient_dim
    if n2 % 2:
        raise PreconditionError("block slices need an even ambient dimension")
    n = n2 // 2
    tol = r.tol
    eye = np.eye(4 * n, dtype=complex)
    hit_s = intersect(r.graph, _trusted(eye[:, n : 3 * n], tol))
    hit_t = intersect(r.graph, _trusted(np.hstack([eye[:, :n], eye[:, 3 * n :]]), tol))
    s = LinearRelation(orthonormal_basis(hit_s.basis[n : 3 * n], tol, 2 * n))
    t = LinearRelation(
        orthonormal_basis(np.vstack([hit_t.basis[:n], hit_t.basis[3 * n :]]), tol, 2 * n)
    )
    return s, t


@dataclass(frozen=True, eq=False)
class DoubledProblem:
    a: LinearRelation
    c: Conjugation
    b: LinearRelation
    a_star: LinearRelation
    b_star: LinearRelation
    frakA: LinearRelation
    frakA_star: LinearRelation
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

    # The defect geometry below is computed once per problem on first use.
    @cached_property
    def spaces(self) -> MSpaces:
        """M-spaces of A and B*; raises PreconditionError unless C-symmetric."""
        return m_spaces(self)

    @cached_property
    def s_map(self) -> AntiLinearMap:
        """The anti-involution S(f, g) = (Cg, -Cf), checked on frakM."""
        return anti_involution(self)

    @cached_property
    def coupling(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinate matrices of frakE: N+ -> N-, frakE: N- -> N+ (antilinear)
        and D = diag(-I, I): N- -> N+ (linear), in the deficiency bases."""
        bp, bm = self.n_plus.basis, self.n_minus.basis
        k2 = self.frakC.matrix
        n = self.ambient_dim
        signs = np.concatenate([-np.ones(n), np.ones(n)])
        e_mp = bm.conj().T @ k2 @ np.conj(bp)
        e_pm = bp.conj().T @ k2 @ np.conj(bm)
        d_pm = bp.conj().T @ (signs[:, None] * bm)
        return e_mp, e_pm, d_pm


def build_doubled(a: LinearRelation, c: Conjugation) -> DoubledProblem:
    """Assemble A*, B = CAC, B*, frakA, frakE, frakM and the deficiency
    subspaces N+- of frakA*.

    frakA* is the block form with B* and A* swapped in.  It is checked
    against graph(frakA) alone: its dimension must be 4n - dim graph(frakA)
    and its adjoint gap must vanish.  frakE frakA frakE = frakA is checked
    on the frakE-image of the graph basis, with no rank cut.  Failure of
    either means a bug, not a regime boundary, and raises.  N+- are the
    unitary images {(y, +-ix)} of frakM's basis [X; Y] (see the module
    docstring); deficiency() checks them.
    """
    if c.dim != a.ambient_dim:
        raise PreconditionError(f"conjugation dimension {c.dim} != relation ambient {a.ambient_dim}")
    bound = a.tol.bound()
    a_star = a.adjoint()
    b = a.conjugated(c)
    b_star = a_star.conjugated(c)
    frak_a = block_relation(a, b)
    frak_a_star = block_relation(b_star, a_star)
    gap = frak_a.adjoint_gap(frak_a_star.graph.basis)
    if frak_a.graph.dim + frak_a_star.graph.dim != 4 * a.ambient_dim or gap > bound:
        raise PropertyViolationError(
            "adjoint of the doubled relation disagrees with the block form", {"angle": gap}
        )
    frak_c = doubled_conjugation(c)
    if not subspace_equal(_trusted(frak_a.conjugated_basis(frak_c), a.tol), frak_a.graph):
        raise PropertyViolationError("frakE frakA frakE = frakA fails", {})
    # frakM's basis is the brute-force sweep's coordinate system
    frak_m = _complement_formula_intersect(b_star.graph, complement(a.graph))
    n = a.ambient_dim
    top, bottom = frak_m.basis[:n], frak_m.basis[n:]
    n_plus = _trusted(np.vstack([bottom, 1j * top]), a.tol)
    n_minus = _trusted(np.vstack([bottom, -1j * top]), a.tol)
    return DoubledProblem(
        a, c, b, a_star, b_star, frak_a, frak_a_star, frak_c, frak_m, n_plus, n_minus
    )


def deficiency(dp: DoubledProblem) -> CheckList:
    """Dimension, bijection and componentwise checks of dp's deficiency
    subspaces.

    N+- are built from frakM, so their dimensions agree by construction;
    the dimension check compares both with the von Neumann count
    (dim graph(frakA*) - dim graph(frakA)) / 2, read from the graph bases.
    The componentwise check proves membership in graph(frakA*); with the
    count it proves equality.
    """
    bound = dp.tol.bound()
    if not dp.b.contained_in(dp.a_star):
        raise PreconditionError("relation is not C-symmetric; deficiency theory needs symmetry upstairs")
    checks = CheckList()
    excess = dp.frakA_star.graph.dim - dp.frakA.graph.dim
    # N+- share frakM's column count as built, so each is held to the count
    checks.add(
        "dim_nplus_equals_dim_nminus",
        all(2 * space.dim == excess for space in (dp.n_plus, dp.n_minus)),
        detail=f"dims {dp.n_plus.dim}, {dp.n_minus.dim}",
    )
    image = dp.frakC.map_subspace(dp.n_plus)
    residual = max_angle_sin(image, dp.n_minus) if image.dim == dp.n_minus.dim else 1.0
    checks.add_residual("frakE_maps_nplus_onto_nminus", residual, bound)
    # componentwise: w = (x, y) in N+ means (y, ix) in graph(B*) and (x, iy) in graph(A*)
    n = dp.ambient_dim
    comp_res = 0.0
    for w in dp.n_plus.basis.T:
        x, y = w[:n], w[n:]
        for target, pair_vec in ((dp.b_star, np.concatenate([y, 1j * x])),
                                 (dp.a_star, np.concatenate([x, 1j * y]))):
            gap = pair_vec - target.graph.project(pair_vec)
            comp_res = max(comp_res, float(np.linalg.norm(gap)))
    checks.add_residual("componentwise_characterization", comp_res, bound)
    return checks


def _orthogonality_residual(s1: Subspace, s2: Subspace) -> float:
    if s1.dim == 0 or s2.dim == 0:
        return 0.0
    return float(np.abs(s1.basis.conj().T @ s2.basis).max())


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    regime: str
    subspaces: dict
    checks: CheckList
    measurements: dict


def vn_decomposition(t: LinearRelation, t_star: LinearRelation | None = None) -> DecompositionReport:
    """graph(T*) = graph(T) + N_hat_plus + N_hat_minus, orthogonally.

    N_hat_+- are the graph elements (w, +-iw) of T*.  The orthogonal
    decomposition holds for every symmetric relation; the domain-level
    forms D(T*) = D(T) + N((T*)^2 + I) and the splitting of that kernel
    into N(T* - i) + N(T* + i) are additionally checked, with the direct-sum
    independence asserted only when T* is single-valued.  The kernel comes
    from relations.kernel_one_plus(T*, T*), independent of the eigenspace
    members it is compared with.  ``t_star`` is T* when already computed.
    """
    if t_star is None:
        t_star = t.adjoint()
    tol = t.tol
    bound = tol.bound()
    if not t.contained_in(t_star):
        raise PreconditionError("relation is not symmetric")
    n = t.ambient_dim
    checks = CheckList()
    measurements = {}
    plus, minus = t_star.imaginary_members()
    checks.add_residual("graph_orth_t_nhat_plus", _orthogonality_residual(t.graph, plus), bound)
    checks.add_residual("graph_orth_t_nhat_minus", _orthogonality_residual(t.graph, minus), bound)
    checks.add_residual("graph_orth_nhat_plus_minus", _orthogonality_residual(plus, minus), bound)
    total = subspace_sum(subspace_sum(t.graph, plus), minus)
    checks.add(
        "graph_decomposition_spans_adjoint",
        subspace_equal(total, t_star.graph) and total.dim == t.graph.dim + plus.dim + minus.dim,
        detail=f"dims {t.graph.dim}+{plus.dim}+{minus.dim} vs {t_star.graph.dim}",
    )
    # kernel of (T*)^2 + I against the eigenspace members
    kernel = kernel_one_plus(t_star, t_star)
    n_plus_first = orthonormal_basis(plus.basis[:n], tol, n)
    n_minus_first = orthonormal_basis(minus.basis[:n], tol, n)
    eig_sum = subspace_sum(n_plus_first, n_minus_first)
    checks.add(
        "kernel_splits_into_eigenspace_members",
        subspace_equal(kernel, eig_sum),
        detail=f"dim N((T*)^2+I) = {kernel.dim}",
    )
    independent = eig_sum.dim == n_plus_first.dim + n_minus_first.dim
    operator_regime = t.is_operator and t_star.is_operator
    if operator_regime:
        checks.add("eigenspace_sum_direct", independent)
        dom_sum = subspace_sum(t.domain(), kernel)
        checks.add("domain_decomposition", subspace_equal(dom_sum, t_star.domain()))
        ortho = 0.0
        for f in t.domain().basis.T:
            for g in kernel.basis.T:
                ortho = max(ortho, abs(graph_inner(t_star, f, g)))
        checks.add_residual("domain_graph_norm_orthogonality", ortho, bound)
    else:
        measurements["eigenspace_sum_direct"] = independent
        checks.skip(
            "domain_decomposition",
            "adjoint is multivalued; the decomposition is expressed at graph level",
        )
    return DecompositionReport(
        "operator" if operator_regime else "relation",
        {
            "graph_t": t.graph,
            "n_hat_plus": plus,
            "n_hat_minus": minus,
            "kernel_sq": kernel,
        },
        checks,
        measurements,
    )


def race_decomposition(dp: DoubledProblem) -> DecompositionReport:
    """Defect decompositions of graph(B*) and graph(A*), with the
    self-adjointness corollary: N(I + A*B*) = {0} iff A is C-self-adjoint.

    The domain-level forms presume single-valued adjoints; outside that
    regime they are reported at graph level and the verbatim versions are
    skipped rather than silently degraded.  A and C are those of ``dp``,
    whose cached M-spaces are used.
    """
    a, c = dp.a, dp.c
    spaces = dp.spaces  # raises PreconditionError unless C-symmetric
    bound = dp.tol.bound()
    checks = CheckList()
    measurements = {}
    # graph(B*) = graph(A) + frakM and graph(A*) = graph(B) + frakM'
    for name, big, small, m_part in (
        ("bstar_decomposition", dp.b_star, a, dp.frakM),
        ("astar_decomposition", dp.a_star, dp.b, spaces.frakM_prime),
    ):
        total = subspace_sum(small.graph, m_part)
        ok = subspace_equal(total, big.graph) and _orthogonality_residual(small.graph, m_part) <= bound
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
    operator_regime = a.is_everywhere_defined and a.is_operator
    measurements["dim_kernel"] = spaces.m_bstar.dim
    measurements["two_dim_nplus"] = 2 * dp.n_plus.dim
    if operator_regime:
        checks.add(
            "kernel_dimension_vs_deficiency",
            spaces.m_bstar.dim == 2 * dp.n_plus.dim,
            detail=f"{spaces.m_bstar.dim} vs 2*{dp.n_plus.dim}",
        )
        dom_sum = subspace_sum(a.domain(), spaces.m_bstar)
        checks.add("domain_decomposition", subspace_equal(dom_sum, dp.b_star.domain()))
    else:
        checks.skip(
            "domain_decomposition",
            "domain is not everywhere defined; verbatim form needs single-valued adjoints",
        )
    return DecompositionReport(
        "operator" if operator_regime else "relation",
        {"frakM": dp.frakM, "frakM_prime": spaces.frakM_prime, "kernel": spaces.m_bstar},
        checks,
        measurements,
    )
