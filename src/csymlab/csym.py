"""C-symmetry predicates and the M-space geometry of a doubled problem.

For a conjugation C and a relation A we write B = CAC.  A is C-symmetric
when CAC is contained in A* and C-self-adjoint when they coincide.  The
extension theory lives inside the gap between graph(A) and graph(B*): its
orthogonal difference frakM carries an anti-unitary map S with S^2 = -I
whose isotropic subspaces enumerate the C-self-adjoint extensions.

C-self-adjointness is tested without forming CAC or A*: A is C-self-adjoint
iff dim graph(A) = n and the adjoint gap of the C-image of graph(A) is 0.
Proof: graph(A*) is the complement of J graph(A), J(x, y) = (y, -x), so it
has dimension 2n - dim graph(A) = dim graph(CAC) exactly when dim graph(A)
= n, and then containment of graph(CAC) in graph(A*) is equality.  C is
antiunitary, so the C-image of an orthonormal basis stays orthonormal.
is_c_symmetric keeps the adjoint route: the CLI compares it with the
adjoint-free weak form, and that check can only fail while the two are
computed independently.

m_spaces and anti_involution read A, B = CAC, A*, B* and frakM from the
DoubledProblem that owns them (doubling), which caches both results.
frakM is built there, as the complement of [graph(A), J graph(B)] with no
basis of B*, since N+- are read off its basis; m_spaces adds
frakM' = J frakM (MSpaces), the graph sums graph(A) + frakM and
graph(B) + frakM', and the kernels of I + A*B* and I + B*A*, each from one
intersect in the middle coordinate (relations.kernel_one_plus),
independent of frakM.  m_spaces is the one reader here of the graph bases
of A* and B*, which the DoubledProblem builds on that first use.

m_spaces, anti_involution, frakM and doubling.deficiency share one guard,
_require_c_symmetric: B inside A*, or PreconditionError.  It reads
DoubledProblem.c_symmetric, decided once per problem on the adjoint gap
of graph(B) against A, a dim graph(A) x dim graph(B) matrix: graph(A*) is
the complement of J graph(A), so no projection through A*'s basis is
made.  is_c_symmetric, which check reports, keeps that projection.  The
guard builds no M-space, so the extension builders, which reach it
through frakM, omega and anti_involution, never build frakM', A* or B*;
the defect
decompositions of verify-all are the only readers of m_spaces:
race_decomposition, and vn_decomposition, whose kernel of (frakA*)^2 + I
is N(I + B*A*) x N(I + A*B*), compared there with N+ + N-.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .antilinear import AntiLinearMap, Conjugation, preserves_subspace
from .errors import PreconditionError, PropertyViolationError
from .linalg import Subspace, _norm_within, _trusted, subspace_equal, subspace_sum
from .relations import LinearRelation, _adjoint_gaps, kernel_one_plus

if TYPE_CHECKING:
    from .doubling import DoubledProblem


def is_c_symmetric(a: LinearRelation, c: Conjugation) -> bool:
    """CAC contained in A*."""
    return a.conjugated(c).contained_in(a.adjoint())


def is_c_selfadjoint(a: LinearRelation, c: Conjugation) -> bool:
    """CAC = A*, read off the C-image of graph(A) without building either side."""
    image = a.conjugated_basis(c)  # raises InputError for a conjugation of another dimension
    return a.graph.dim == a.ambient_dim and _norm_within(_adjoint_gaps(a.graph.basis, image), a.tol.bound())


def weak_c_symmetry_residual(a: LinearRelation, c: Conjugation) -> float:
    """max |<Cv, x> - <Cu, y>| over graph pairs (x,y), (u,v).

    Independent of the adjoint computation; zero iff A is C-symmetric.  For
    an operator this is the pairing form <Ax, Cy> = <x, CAy> on the domain.
    """
    g = a.graph.basis
    if not g.shape[1]:
        return 0.0
    n = a.ambient_dim
    tops, bots = g[:n], g[n:]
    lhs = tops.conj().T @ (c.matrix @ np.conj(bots))  # <C v_j, x_i>
    rhs = bots.conj().T @ (c.matrix @ np.conj(tops))  # <C u_j, y_i>
    return float(np.abs(lhs - rhs).max())


def domain_criterion(a_tilde: LinearRelation, a: LinearRelation, c: Conjugation) -> bool:
    """D(adjoint of the extension) = C * D(extension)."""
    if not a.contained_in(a_tilde):
        raise PreconditionError("the candidate does not extend the given relation")
    lhs = a_tilde.adjoint().domain()
    rhs = c.map_subspace(a_tilde.domain())
    return subspace_equal(lhs, rhs)


@dataclass(frozen=True, eq=False)
class MSpaces:
    """The defect geometry between graph(A) and graph(B*) beyond frakM.

    frakM_prime = graph(A*) - graph(B) is J frakM, J(x, y) = (y, -x), with
    basis [Y; -X] for frakM's [X; Y]: J is unitary and maps graph(B*) =
    (J graph(B))^perp onto graph(B)^perp, graph(A)^perp onto graph(A*).
    bstar_sum = graph(A) + frakM and astar_sum = graph(B) + frakM' are the
    sums race_decomposition and vn_decomposition compare with graph(B*) and
    graph(A*).  m_bstar and m_astar, the kernels N(I + A* о B*) and
    N(I + B* о A*), come from kernel_one_plus, not from frakM, so that vn's
    comparison with N+ + N- compares two independent computations.
    """

    frakM_prime: Subspace
    bstar_sum: Subspace
    astar_sum: Subspace
    m_bstar: Subspace
    m_astar: Subspace


def _require_c_symmetric(dp: DoubledProblem) -> None:
    """Raise PreconditionError unless dp's B = CAC lies inside A*
    (DoubledProblem.c_symmetric, decided once per problem)."""
    if not dp.c_symmetric:
        raise PreconditionError("relation is not C-symmetric; the defect theory needs CAC inside A*")


def m_spaces(dp: DoubledProblem) -> MSpaces:
    """The M-spaces of dp's A, B, A* and B*; raises PreconditionError
    unless A is C-symmetric."""
    _require_c_symmetric(dp)
    m = dp.frakM.basis
    n = dp.ambient_dim
    frak_m_prime = _trusted(np.vstack([m[n:], -m[:n]]), dp.tol)
    return MSpaces(
        frak_m_prime,
        subspace_sum(dp.a.graph, dp.frakM),
        subspace_sum(dp.b.graph, frak_m_prime),
        kernel_one_plus(dp.a_star, dp.b_star),
        kernel_one_plus(dp.b_star, dp.a_star),
    )


def anti_involution(dp: DoubledProblem) -> AntiLinearMap:
    """The graph-level anti-unitary S(f, g) = (Cg, -Cf) with S^2 = -I.

    S maps frakM onto itself; on first components it acts as A*C, the
    classical anti-involution of the defect space.  S^2 = -I is checked on
    frakM's k basis columns M as S(S(M)) + M, two 2n x 2n by 2n x k
    products; S's dense matrix is kept, as omega is formed from it.  Raises
    PreconditionError unless A is C-symmetric, and PropertyViolationError
    when the invariance or the square fails beyond tolerance.
    """
    k = dp.c.matrix
    n = dp.ambient_dim
    z = np.zeros((n, n), dtype=complex)
    s = AntiLinearMap(np.block([[z, k], [-k, z]]), dp.tol)
    _require_c_symmetric(dp)
    frak_m = dp.frakM
    bound = frak_m.tol.bound()
    if frak_m.dim:
        if not preserves_subspace(s, frak_m):
            raise PropertyViolationError("S does not preserve frakM", {})
        square_residual = float(np.abs(s.apply(s.apply(frak_m.basis)) + frak_m.basis).max())
        if square_residual > bound:
            raise PropertyViolationError("S^2 = -I fails on frakM", {"square": square_residual})
    return s
