"""Complete parameterization of the C-self-adjoint extensions of a
C-symmetric relation.

Extensions are always constructed at the doubled level: for a unitary
U: N+ -> N- the graph of frak(A)_U is graph(frakA) plus the deficiency
span {(w - Uw, i(w + Uw)) : w in N+}, which is self-adjoint by von Neumann
theory for relations.  Every graph here is grown from a known one by its k
new directions (linalg.extend_basis), never re-orthonormalized whole; the
doubled extension needs no rank decision at all, since its new directions
are orthonormal and orthogonal to graph(frakA) as built.
extension_from_parameter returns one record carrying every check of the
extension, the L-manifold decomposition of frakM included.

The checks, too, are taken on the new columns alone (_new_columns), at
O(n^2 k) each instead of O(n^3).  The doubled extension is not built as
a 4n-row basis at all: frakA = block(A, B) puts graph(A)'s columns in the
(y, v) rows and graph(B)'s in the (x, u) rows (_row_blocks), so its checks
read the two row blocks of the k new columns against graph(A) and
graph(B).  The known block of each graph is certified once, upstream:

- by the C-symmetry guard (B inside A*, csym._require_c_symmetric, which
  every builder reaches through DoubledProblem.omega): graph(frakA)'s
  block of the doubled adjoint gap, graph(A)'s block of the adjoint gap
  of C graph(A_U), and graph(A) inside graph(B*);
- by build_doubled's guard: frakE graph(frakA) = graph(frakA);
- by construction, since the bordered bases keep those columns bit for
  bit: graph(B) inside C graph(A_U), and graph(A) inside S and graph(B)
  inside T, the slices below.

Two conditions on U play different roles.  Both read Omega =
DoubledProblem.omega, in which frakE is i Omega from N+ to N- and -i Omega
back.  The compatibility condition frakE U frakE U = I makes the doubled
extension frakE-self-adjoint; a parameter violating it is rejected as
invalid input.  On top of that the block structure of the doubled graph
survives the extension iff D U D U = I on N+, where D = diag(-I, I) maps
each deficiency space onto the other.  In the bases N+- = [Y; +-iX] read
off frakM's basis M = [X; Y], D = -I, so the block condition is U^2 = I.
With unitarity, a block-compatible U is a Hermitian involution U = 2P - I,
P the projector onto range(I + U), and the extension is
graph(A) + M range(I + U): range(I + U) is its Lagrangian in frakM.
canonical_extension runs this backwards: from an orthonormal Lagrangian
basis L it takes U = 2 L L^H - I, with no Cayley transform.  A
parameter passing the first condition but failing the second produces a
perfectly good self-adjoint relation upstairs that is not the double of
anything; that outcome is reported as a property violation carrying the
block diagnosis, because it marks the boundary where the single-valued
picture stops and not a caller mistake.

When U^2 = I holds, every element (x, y, v, u) of the doubled extension
splits into (0, y, v, 0) + (x, 0, 0, u) inside it, so the one-space
extension is read off in closed form: S = graph(A) plus the (y, v) rows of
the deficiency span, and its companion T = graph(B) plus the (x, u) rows.
The doubled extension always lies inside block_relation(S, T), so the
block check is a dimension count (dim S + dim T = dim frak(A)_U) plus one
angle between the two, taken on the row blocks of the new columns against
S and T; without the condition the split fails, the slices come out too
large, and the parameter is refused with the block diagnosis.

The D-condition is not an extra restriction on the extensions themselves:
every C-self-adjoint extension induces, through its own doubled relation,
a parameter satisfying both conditions (recover_parameter), and every such
parameter arises this way.  Soundness and completeness are both exercised
against brute force in the tests.

The brute-force sweep and enumerate's round trip run on stacks (B x m x k
arrays): numpy's stacked svd, solve and eigvalsh run the LAPACK routine of
one matrix on each, so a stack gives every candidate, hit and angle the
bits it has alone, at one call per step instead of one per candidate.  The
sweep takes its candidates SWEEP_BLOCK at a time, a block drawn only when
it is needed, and decides C-self-adjointness once per distinct survivor,
on its k/2 new columns W over graph(A) (_c_selfadjoint_grown); a hit is
its W alone.  completeness_roundtrip takes the hits ROUNDTRIP_BLOCK at a
time through the kernels of recover_parameter (_cayley_unitaries, von
Neumann's formula U = [L, -iG] [L, iG]^-1 in frakM's coordinates, with
L = M^H W and G the adjoint gap of M against CW) and extension_graph
(_rebuilt_columns), which those two run on a stack of one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .antilinear import conjugation_axiom_residuals
from .csym import _require_c_symmetric
from .doubling import DoubledProblem, _cross_residual
from .errors import InputError, PreconditionError, PropertyViolationError
from .linalg import (
    Subspace,
    _adjoint,
    _as_complex_matrix,
    _bordered,
    _check_same_ambient,
    _gram_residual,
    _norm_within,
    _norms_within,
    _outside,
    _ranked_svd,
    _spectral_norm,
    _spectral_norms,
    _trusted,
    complement,
    extend_basis,
    max_angle_sin,
    orthonormal_basis,
    subspace_equal,
    subspace_sum,
)
from .relations import LinearRelation, _adjoint_gaps, _conjugated_graphs
from .reporting import CheckList


@dataclass(frozen=True, eq=False)
class ExtensionParameter:
    """One datum in one of the three equivalent forms.

    kind "unitary": k x k matrix of U: N+ -> N- in the deficiency bases of
    the DoubledProblem.  kind "conjugation": k x k unitary symmetric matrix
    of a conjugation on N+ in the same basis.  kind "onb": 2n x k ambient
    columns forming an orthonormal basis of N+ (the basis fixed by the
    conjugation).
    """

    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.kind not in ("unitary", "onb", "conjugation"):
            raise InputError(f"unknown parameter kind {self.kind!r}")
        m = _as_complex_matrix(self.matrix, "parameter matrix").copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def frakE_condition_residual(dp: DoubledProblem, u: np.ndarray):
    """|| (frakE U)^2 - I || on N+ in coordinates, for U or each U of a stack."""
    g = -1j * dp.omega @ np.conj(u)  # anti-linear matrix of frakE о U on N+
    return np.abs(g @ np.conj(g) - np.eye(u.shape[-1])).max(axis=(-2, -1), initial=0.0)


def block_condition_residual(dp: DoubledProblem, u: np.ndarray):
    """|| D U D U - I || on N+, for U or each U of a stack; zero iff the
    doubled extension stays block.

    D = -I in the bases N+-, so this is || U^2 - I ||."""
    return np.abs(u @ u - np.eye(u.shape[-1])).max(axis=(-2, -1), initial=0.0)


def _first_over(residuals: np.ndarray, bound: float) -> float:
    """The first of a stack's residuals over bound; there is one."""
    return float(residuals[np.argmax(residuals > bound)])


def _check_unitary(dp: DoubledProblem, us: np.ndarray) -> None:
    """InputError unless every U of a stack is unitary, naming the first failure."""
    bound = dp.tol.bound()
    unit = _gram_residual(us)
    if np.any(unit > bound):
        raise InputError(f"parameter does not give a unitary map (residual {_first_over(unit, bound):.3e})")


def _check_compatible(dp: DoubledProblem, us: np.ndarray) -> None:
    """InputError unless every U of a stack satisfies the compatibility
    condition frakE U frakE U = I, naming the first failure."""
    bound = dp.tol.bound()
    frake = frakE_condition_residual(dp, us)
    if np.any(frake > bound):
        raise InputError(
            "parameter violates the compatibility condition frakE U frakE U = I "
            f"(residual {_first_over(frake, bound):.3e})"
        )


def _check_blocks(dp: DoubledProblem, us: np.ndarray) -> None:
    """PropertyViolationError, carrying the block diagnosis of the first
    failure, unless D U D U = I holds for every U of a stack."""
    over = np.atleast_1d(block_condition_residual(dp, us) > dp.tol.bound())
    if over.any():
        first = int(np.argmax(over))
        raise PropertyViolationError(
            "parameter is admissible for the doubled relation but destroys its block "
            "structure; the self-adjoint extension upstairs is not the double of any "
            "relation downstairs (D U D U = I fails)",
            {
                "block_condition": float(block_condition_residual(dp, us[first])),
                "frakE_condition": float(frakE_condition_residual(dp, us[first])),
            },
        )


def parameter_as_unitary(dp: DoubledProblem, p: ExtensionParameter) -> np.ndarray:
    """Convert any parameter form to the unitary U: N+ -> N- in coordinates.

    Validates the form's own invariant and the compatibility condition
    frakE U frakE U = I; violations are input errors.
    """
    u = _parameter_coordinates(dp, p)
    _check_unitary(dp, u[None])
    _check_compatible(dp, u[None])
    return u


def _parameter_coordinates(dp: DoubledProblem, p: ExtensionParameter) -> np.ndarray:
    """The k x k matrix of U that a parameter form gives, with the form's
    own invariant checked (InputError) but not U's."""
    k = dp.n_plus.dim
    bound = dp.tol.bound()
    if p.kind == "unitary":
        u = np.asarray(p.matrix, dtype=complex)
        if u.shape != (k, k):
            raise InputError(f"unitary parameter must be {k} x {k}, got {u.shape}")
    elif p.kind == "conjugation":
        j = np.asarray(p.matrix, dtype=complex)
        if j.shape != (k, k):
            raise InputError(f"conjugation parameter must be {k} x {k}, got {j.shape}")
        unit, symm = conjugation_axiom_residuals(j)
        if unit > bound:
            raise InputError(f"conjugation parameter is not unitary (residual {unit:.3e})")
        if symm > bound:
            raise InputError(f"conjugation parameter is not symmetric (residual {symm:.3e})")
        u = 1j * dp.omega @ np.conj(j)  # frakE: N+ -> N- is i Omega
    else:  # onb
        v = np.asarray(p.matrix, dtype=complex)
        if v.shape != (2 * dp.ambient_dim, k):
            raise InputError(f"basis parameter must be {2 * dp.ambient_dim} x {k}, got {v.shape}")
        span = orthonormal_basis(v, dp.tol)
        if span.dim != k or not subspace_equal(span, dp.n_plus):
            raise InputError("basis parameter does not span the deficiency subspace N+")
        w = dp.n_plus.basis.conj().T @ v
        gram = _gram_residual(w)
        if gram > bound:
            raise InputError(f"basis parameter is not orthonormal (Gram residual {gram:.3e})")
        u = 1j * dp.omega @ np.conj(w @ w.T)  # U = frakE о C_v with C_v fixing the basis
    return u


def parameter_as_conjugation(dp: DoubledProblem, p: ExtensionParameter) -> ExtensionParameter:
    u = parameter_as_unitary(dp, p)
    return ExtensionParameter("conjugation", -1j * dp.omega @ np.conj(u))


@dataclass(frozen=True, eq=False)
class ExtensionResult:
    """A verified extension: its checks cover the doubled extension, the
    block split, C-self-adjointness and the L-manifold decomposition."""

    a_ext: LinearRelation
    parameter: ExtensionParameter
    checks: CheckList


def _deficiency_span(dp: DoubledProblem, p: ExtensionParameter) -> tuple[np.ndarray, np.ndarray]:
    """U in coordinates and the 4n x k columns (w - Uw, i(w + Uw)), w in N+.

    Raises InputError for invalid parameter data, PropertyViolationError when
    the parameter is admissible upstairs but the doubled extension has no
    block structure (D U D U = I fails), carrying the block diagnosis.
    """
    u = parameter_as_unitary(dp, p)
    _check_blocks(dp, u[None])
    return u, _deficiency_columns(dp, u)


def _deficiency_columns(dp: DoubledProblem, u: np.ndarray) -> np.ndarray:
    """The 4n x k columns (w - Uw, i(w + Uw)), w in N+, for U or each U of
    a stack.  With frakM's basis [X; Y], N+- = [Y; +-iX], so the columns
    are (Y(I - U), iX(I + U), iY(I + U), -X(I - U)), read off frakM's blocks."""
    n = dp.ambient_dim
    x, y = dp.frakM.basis[:n], dp.frakM.basis[n:]
    eye = np.eye(u.shape[-1])
    minus, plus = eye - u, eye + u
    return np.concatenate([y @ minus, 1j * (x @ plus), 1j * (y @ plus), -(x @ minus)], axis=-2)


def extension_graph(dp: DoubledProblem, p: ExtensionParameter) -> LinearRelation:
    """The extension attached to a parameter in closed form, unverified.

    graph(A) grown by the (y, v) rows of the deficiency span.  Raises like
    extension_from_parameter on invalid or non-block parameters, and
    PropertyViolationError when the graph does not have dimension
    dim graph(A) + k/2.
    """
    us = _parameter_coordinates(dp, p)[None]
    _check_unitary(dp, us)
    new = _rebuilt_columns(dp, us)[0]
    return LinearRelation(_trusted(np.hstack([dp.a.graph.basis, new]), dp.tol))


def _rebuilt_columns(dp: DoubledProblem, us: np.ndarray) -> np.ndarray:
    """extension_graph for a stack of U in coordinates, unitary as checked
    by the caller: the k/2 columns that each adds to graph(A), one stacked
    extend_basis of the (y, v) rows of the deficiency span.  Refuses the
    stack at its first failing check, in the order frakE, block, dimension
    gap.
    """
    _check_compatible(dp, us)
    _check_blocks(dp, us)
    n, k = dp.ambient_dim, us.shape[-1]
    if not k:
        return np.zeros((len(us), 2 * n, 0), dtype=complex)
    cols = _deficiency_columns(dp, us)[:, n : 3 * n]
    if not np.isfinite(cols).all():
        raise InputError("cols contains non-finite entries")
    u, rank = _bordered(dp.a.graph, cols)
    gap = k - 2 * rank
    if gap.any():
        raise PropertyViolationError(
            "deficiency rows do not add half the deficiency to graph(A)", {"dim_gap": int(gap[gap != 0][0])}
        )
    return u[:, :, : k // 2]


def _closed_form_slices(
    dp: DoubledProblem, defect_cols: np.ndarray
) -> tuple[LinearRelation, LinearRelation]:
    """(S, T) of the doubled extension in closed form: graph(A) grown by the
    (y, v) rows of the deficiency columns and graph(B) by their (x, u) rows.

    Each column (x, y, v, u) is (0, y, v, 0) + (x, 0, 0, u), so the doubled
    extension lies in block_relation(S, T) for every parameter; the two are
    equal iff the extension is block (the tests cut S and T out of the
    doubled extension by intersection as an oracle).
    """
    s_rows, t_rows = _row_blocks(defect_cols, dp.ambient_dim)
    return LinearRelation(extend_basis(dp.a.graph, s_rows)), LinearRelation(extend_basis(dp.b.graph, t_rows))


def _row_blocks(cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (y, v) and (x, u) rows of columns (x, y, v, u) in C^(4n), or of
    a stack of them: the rows that S's and T's columns of block_relation(S, T)
    fill."""
    return cols[..., n : 3 * n, :], np.concatenate([cols[..., :n, :], cols[..., 3 * n :, :]], axis=-2)


def _new_columns(grown: LinearRelation, known: LinearRelation) -> LinearRelation:
    """The columns of grown's graph basis past known's, as a relation.

    grown's basis must be known's bordered by extend_basis (or by columns
    orthonormal as built), so these columns are orthonormal and span what
    grown adds to known."""
    return LinearRelation(_trusted(grown.graph.basis[:, known.graph.dim :], grown.tol))


def extension_from_parameter(dp: DoubledProblem, p: ExtensionParameter) -> ExtensionResult:
    """Build the extension attached to a parameter, with full verification.

    The checks cover the doubled extension (self-adjoint and
    frakE-self-adjoint), the companion block, C-self-adjointness, and the
    L-manifold decomposition: L = graph(A_U) - graph(A) and its image under
    S(f, g) = (Cg, -Cf) split frakM orthogonally, the quotient dimensions
    agree, and the domain-level sums hold as subspace identities.

    The first six are taken on the new columns of frak(A)_U, graph(A_U) and
    graph(T) (4n x k and 2n x k/2 residuals with k x k Gram matrices); the
    known block of each is certified by the guard named at the check, and
    each full-basis residual is at most its known block's plus twice the
    bordered one.

    Raises InputError for invalid parameter data, PropertyViolationError when
    the parameter is admissible upstairs but the doubled extension has no
    block structure (D U D U = I fails), carrying the block diagnosis.  When
    the closed-form slices do not reassemble the doubled extension, the
    error's ``dims`` is dim S + dim T - dim frak(A)_U: positive when the
    slices are too large, which is how a non-block extension shows.
    """
    u, defect_cols = _deficiency_span(dp, p)
    n = dp.ambient_dim
    tol = dp.tol
    bound = tol.bound()
    checks = CheckList()
    a, b = dp.a.graph.basis, dp.b.graph.basis
    # frak(A)_U = graph(frakA) + span q with no SVD: q = (w - Uw, i(w + Uw))/2
    # is orthonormal for unitary U, and orthogonal to graph(frakA) because
    # N+- are read off frakM (its members lie in graph(B*) and are orthogonal
    # to graph(A)); each check reads q's row blocks (module docstring)
    q = defect_cols / 2
    q_s, q_t = _row_blocks(q, n)
    # the gap matrix is skew-Hermitian and its graph(frakA) block is 0 by the
    # C-symmetry guard (frakA is symmetric iff B lies in A*), so q's rows
    # carry the rest: A's columns meet q's (x, u) rows, B's its (y, v) rows
    gap = np.vstack([dp.a._gap_matrix(q_t), dp.b._gap_matrix(q_s), _adjoint_gaps(q, q)])
    checks.add_residual("doubled_selfadjoint", _spectral_norm(gap), bound)
    # frakE is antiunitary, so the frakE image of q is orthonormal; frakE
    # graph(frakA) = graph(frakA) is build_doubled's guard.  The image's
    # projection onto frak(A)_U takes graph(A) on its (y, v) rows, graph(B)
    # on its (x, u) rows, and q on both with one coefficient matrix
    image = LinearRelation(_trusted(q, tol)).conjugated_basis(dp.frakC)
    e_s, e_t = _row_blocks(image, n)
    shared = _adjoint(q) @ image
    stray = np.vstack([_outside(e_s, a) - q_s @ shared, _outside(e_t, b) - q_t @ shared])
    checks.add_residual("doubled_frakE_selfadjoint", _spectral_norm(stray), bound)
    a_ext, t_block = _closed_form_slices(dp, defect_cols)
    dims = a_ext.graph.dim + t_block.graph.dim - (dp.a.graph.dim + dp.b.graph.dim + q.shape[1])
    # S and T keep graph(A)'s and graph(B)'s columns bit for bit, so at equal
    # dimensions frak(A)_U = block_relation(S, T) iff q's (y, v) rows lie in
    # graph(S) and its (x, u) rows in graph(T)
    outside = np.vstack([_outside(q_s, a_ext.graph.basis), _outside(q_t, t_block.graph.basis)])
    if dims or not _norm_within(outside, bound):
        raise PropertyViolationError(
            "extracted blocks do not reassemble the doubled extension", {"dims": dims}
        )
    a_new, t_new = _new_columns(a_ext, dp.a), _new_columns(t_block, dp.b)
    # graph(B) = C graph(A) lies in C graph(A_U) by construction, and C t lies
    # in graph(A_U) iff t lies in C graph(A_U), C being an antiunitary involution
    t_conj = _trusted(t_new.conjugated_basis(dp.c), tol)
    checks.add_residual("companion_block_is_conjugated", max_angle_sin(t_conj, a_ext.graph), bound)
    # dim graph(A*) = 2n - dim graph(A): the two sides can only agree at dim n.
    # The gap matrix of C graph(A_U) is antisymmetric and its graph(A) block is
    # 0 by the C-symmetry guard, so the C-images of the new columns carry the rest
    csa_res = a_ext.adjoint_gap(a_new.conjugated_basis(dp.c)) if a_ext.graph.dim == n else 1.0
    checks.add_residual("extension_c_selfadjoint", csa_res, bound)
    # graph(A) lies in graph(B*) by the C-symmetry guard
    l_graph = a_new.graph
    checks.add_residual("inside_bstar", max_angle_sin(l_graph, dp.b_star.graph), bound)
    # L-manifolds: L = graph(A_U) - graph(A) and its S-image split frakM
    frak_m = dp.frakM
    # S is antiunitary, so the S-image of orthonormal columns is orthonormal
    s_image = _trusted(dp.s_map.apply(l_graph.basis), tol)
    checks.add_residual("l_orthogonal_to_s_l", _cross_residual(l_graph.basis, s_image.basis), bound)
    total = subspace_sum(l_graph, s_image)
    checks.add(
        "l_plus_s_l_spans_frakM",
        subspace_equal(total, frak_m) and total.dim == l_graph.dim + s_image.dim,
        detail=f"dims {l_graph.dim}+{s_image.dim} vs {frak_m.dim}",
    )
    q_upper = dp.b_star.graph.dim - a_ext.graph.dim
    q_lower = a_ext.graph.dim - dp.a.graph.dim
    checks.add("quotient_dimensions_equal", q_upper == q_lower, detail=f"{q_upper} vs {q_lower}")
    # domain-level counterpart of the deficiency span: D(A_U) = D(A) + second components
    l_domain = orthonormal_basis(defect_cols[n : 2 * n], tol, n)
    dom_sum = subspace_sum(dp.a.domain(), l_domain)
    checks.add(
        "domain_sum",
        subspace_equal(dom_sum, a_ext.domain()),
        detail=f"dims {dp.a.domain().dim}+{l_domain.dim} vs {a_ext.domain().dim}",
    )
    # D(A_ext*) = mul(A_ext)^perp, so A_ext* is not built; D(B) = C D(A) is given
    b_domain = dp.b.domain()
    l_domain_star = dp.c.map_subspace(l_domain)
    star_domain = complement(a_ext.multivalued_part())
    star_sum = subspace_sum(b_domain, l_domain_star)
    checks.add(
        "domain_sum_star",
        subspace_equal(star_sum, star_domain),
        detail=f"dims {b_domain.dim}+{l_domain_star.dim} vs {star_domain.dim}",
    )
    return ExtensionResult(a_ext, ExtensionParameter("unitary", u), checks)


def _greedy_isotropic(
    s_coord: np.ndarray, first: np.ndarray, tol, rng=None
) -> tuple[np.ndarray, np.ndarray]:
    """Columns of isotropic L with L + S(L) = C^m in frakM coordinates, one
    L for each row of the B x m stack first.

    Each first vector is normalized and paired with its S-image.  Every
    later column is the first column of the orthogonal complement of the
    span collected so far, or with rng a random unit vector in it, drawn
    step by step: a stream passes one first vector at a time to keep its
    order.  Each new vector is automatically S-isotropic against everything
    before, so no repair step is needed.  A step is one stacked full SVD
    (the complement) and one stacked thin SVD (the span, cut per matrix like
    orthonormal_basis), the LAPACK routines that one L alone would take.
    Returns the B x m x h columns and the mask of the L whose span lost rank
    (their columns are meaningless).
    """
    count, m = first.shape
    cols = np.zeros((count, m, m // 2), dtype=complex)
    lost = np.zeros(count, dtype=bool)
    alive = np.arange(count)
    used = np.zeros((count, m, 0), dtype=complex)
    v = _unit_rows(first)
    for j in range(m // 2):
        if not alive.size:
            break
        if j:
            rest = np.linalg.svd(used, full_matrices=True)[0][:, :, 2 * j :]
            if rng is None:
                v = rest[:, :, 0]
            else:
                shape = (alive.size, m - 2 * j, 1)
                coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                v = _unit_rows((rest @ coeff)[:, :, 0])
        sv = (s_coord @ np.conj(v)[:, :, None])[:, :, 0]
        cols[alive, :, j] = v
        u, rank = _ranked_svd(np.concatenate([used, v[:, :, None], sv[:, :, None]], axis=2), tol)
        kept = rank == 2 * j + 2
        lost[alive[~kept]] = True
        alive, used = alive[kept], u[kept]
    return cols, lost


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of v over its np.linalg.norm: the bits of normalizing one
    vector, which np.linalg.norm(v, axis=1) does not round alike."""
    return v / np.array([np.linalg.norm(row) for row in v])[:, None]


def canonical_extension(dp: DoubledProblem, swap: bool = False) -> ExtensionResult:
    """Deterministic C-self-adjoint extension from a greedy Lagrangian L.

    Repeatedly picks the first complement column inside frakM and pairs it
    with its anti-involution image until frakM is exhausted; the collected
    half is an orthonormal basis L of a Lagrangian in frakM coordinates.
    Its parameter is U = 2 L L^H - I, the block-compatible U whose
    range(I + U) is L, and the extension graph(A) + M L is built from it
    by extension_from_parameter.  With swap=True the companion extension
    graph(A) + M S(L) is returned instead: S(L) = L^perp for a Lagrangian,
    so its parameter is -U.  An L that is not Lagrangian fails the
    compatibility condition frakE U frakE U = I, which is raised as a
    property violation.
    """
    s_coord = dp.omega  # raises PreconditionError unless C-symmetric
    m = dp.frakM.dim
    if m % 2:
        raise PropertyViolationError("frakM has odd dimension", {"dim": m})
    cols, lost = _greedy_isotropic(s_coord, np.eye(1, m, dtype=complex), dp.tol)
    if lost[0]:
        raise PropertyViolationError("isotropic construction lost rank", {})
    l_coords = cols[0]
    u = 2 * (l_coords @ l_coords.conj().T) - np.eye(m)
    try:
        return extension_from_parameter(dp, ExtensionParameter("unitary", -u if swap else u))
    except InputError as exc:
        raise PropertyViolationError(f"greedy L is not Lagrangian: {exc}", {}) from exc


def recover_parameter(dp: DoubledProblem, a_tilde: LinearRelation) -> ExtensionParameter:
    """Parameter of a given C-self-adjoint extension, via the Cayley transform.

    The doubled extension is self-adjoint, so V(b + ia) = b - ia over its
    graph pairs (a, b) is an everywhere-defined unitary; its restriction to
    N+ is the wanted U.  With P = B + iA and Q = B - iA from the graph basis,
    V = Q P^-1, so U = N-^H Q X for the columns X solving P X = N+.  Only the
    k doubled columns that the extension adds to graph(frakA) enter, and
    only through their frakM coordinates: U = [L, -iG] [L, iG]^-1, a k x k
    solve (see _cayley_unitaries).  Neither V nor frakA's own Cayley
    transform is formed.  Rebuilding the extension from U is left to callers.

    The relation must contain graph(A); its new columns W are those of
    extend_basis(graph(A), basis), on which C-self-adjointness is decided
    (_c_selfadjoint_grown).
    """
    _check_same_ambient(dp.a.graph, a_tilde.graph)
    graph, h = a_tilde.graph, a_tilde.graph.dim - dp.a.graph.dim
    if h < 0 or not _norm_within(_outside(dp.a.graph.basis, graph.basis), dp.tol.bound()):
        raise PreconditionError("relation does not extend A")
    u, rank = _bordered(dp.a.graph, graph.basis)
    w = u[None, :, :h]
    # C is antiunitary, so the C-images of orthonormal columns are orthonormal
    images = _conjugated_graphs(w, dp.c.matrix)
    if graph.dim != dp.ambient_dim or rank != h or not _c_selfadjoint_grown(dp, _known_gap(dp), w, images)[0]:
        raise PreconditionError("extension is not C-self-adjoint")
    return ExtensionParameter("unitary", _cayley_unitaries(dp, w, images)[0])


def _cayley_unitaries(dp: DoubledProblem, w: np.ndarray, images: np.ndarray) -> np.ndarray:
    """U in coordinates for each C-self-adjoint extension graph(A) + span W
    of a stack, W its k/2 new columns (orthonormal and orthogonal to
    graph(A)) and images their C-images.  Refuses the stack at its first
    failing guard, in the order doubled dimension, solve, unitarity.

    The doubled extension is graph(frakA) plus the k columns block(W, CW),
    so P = [P_A, P_W] and Q = [Q_A, Q_W] with P = B + iA and Q = B - iA.
    N+ is orthogonal to ran(P_A) = ran(frakA + i) and N- to
    ran(Q_A) = ran(frakA - i), since frakM is orthogonal to graph(A) and
    lies in graph(B*); so P X = N+ gives (N+^H P_W) X_W = I, and
    U = N-^H Q X = (N-^H Q_W) X_W.  With frakM's basis M, L = M^H W and
    G = _adjoint_gaps(M, CW), N+^H P_W = [L, iG] and N-^H Q_W = [L, -iG]:
    U = [L, -iG] [L, iG]^-1, von Neumann's formula in frakM's coordinates,
    a k x k solve on k x k data.  U is unitary iff the two factors have one
    Gram matrix, that is iff L^H G = 0, the Lagrangian condition of
    graph(A) + span W; the last guard checks it on U's Gram residual.
    """
    k, h = dp.n_plus.dim, w.shape[-1]
    if k == 0:
        return np.zeros((len(w), 0, 0))
    if 2 * h != k:
        dim = 2 * (dp.a.graph.dim + h)
        raise PropertyViolationError("doubled extension has the wrong graph dimension", {"dim": dim})
    m = dp.frakM.basis
    lag, gap = _adjoint(m) @ w, _adjoint_gaps(m, images)
    try:
        x = np.linalg.inv(np.concatenate([lag, 1j * gap], axis=-1))
    except np.linalg.LinAlgError as exc:
        raise PropertyViolationError(f"Cayley transform is not everywhere defined: {exc}", {})
    u = np.concatenate([lag, -1j * gap], axis=-1) @ x
    gram = _gram_residual(u)
    if np.any(gram > dp.tol.bound()):
        raise PropertyViolationError(
            "Cayley transform does not carry N+ onto N-", {"gram": _first_over(gram, dp.tol.bound())}
        )
    return u


def _known_gap(dp: DoubledProblem) -> np.ndarray:
    """graph(A)'s block of the adjoint-gap matrix of C graph(A~), for every
    A~ grown from graph(A): C graph(A) is graph(B)'s basis as built."""
    return _adjoint_gaps(dp.a.graph.basis, dp.b.graph.basis)


def _c_selfadjoint_grown(dp: DoubledProblem, known_gap: np.ndarray, w: np.ndarray, images: np.ndarray) -> np.ndarray:
    """is_c_selfadjoint of graph(A) + span W for each W of a stack, W
    orthonormal and orthogonal to graph(A), and images their C-images: its
    dimension is n and its n x n adjoint gap, assembled from known_gap
    (_known_gap) and the blocks of W, is within tol.bound()."""
    a, c_a = dp.a.graph.basis, dp.b.graph.basis
    n, d = dp.ambient_dim, a.shape[1]
    if d + w.shape[-1] != n:
        return np.zeros(w.shape[:-2], dtype=bool)
    gap = np.empty((*w.shape[:-2], n, n), dtype=complex)
    gap[..., :d, :d], gap[..., :d, d:] = known_gap, _adjoint_gaps(a, images)
    gap[..., d:, :d], gap[..., d:, d:] = _adjoint_gaps(w, c_a), _adjoint_gaps(w, images)
    return _norms_within(gap, dp.tol.bound())


# completeness_roundtrip takes its hits this many at a time: a stack per
# stage instead of a call per hit, and flat peak memory
ROUNDTRIP_BLOCK = 8


def completeness_roundtrip(dp: DoubledProblem, new: np.ndarray) -> tuple[float, int]:
    """enumerate's completeness test on brute_force_extensions' hits, their
    new columns W over graph(A): the largest angle from the new columns of
    extension_graph(recover_parameter(hit)) into the hit, over all hits,
    and the number of hits that are operators.

    Hits go through in blocks of ROUNDTRIP_BLOCK, every stage one stacked
    call, which runs the LAPACK routine of one hit alone on each; so the
    angle keeps its bits.  The sweep has decided that each hit extends A
    C-self-adjointly, so its Cayley transform is the k x k solve on W alone
    (_cayley_unitaries), which refuses a U that is not unitary; the rebuild
    (_rebuilt_columns) checks the frakE and block conditions on it but not
    unitarity again.  A block's graphs [graph(A), W] are formed for the
    angle and the operator flags, which read the top blocks' singular values
    at LinearRelation._top_svd's cut; A's is_operator answers for A.
    """
    if not new.shape[-1]:  # frakM = 0: the hit is A, rebuilt exactly
        return 0.0, int(dp.a.is_operator) * len(new)
    a, n = dp.a.graph.basis, dp.ambient_dim
    worst, operators = 0.0, 0
    for start in range(0, len(new), ROUNDTRIP_BLOCK):
        w = new[start : start + ROUNDTRIP_BLOCK]
        rebuilt = _rebuilt_columns(dp, _cayley_unitaries(dp, w, _conjugated_graphs(w, dp.c.matrix)))
        graphs = np.concatenate([np.broadcast_to(a, (len(w), *a.shape)), w], axis=-1)
        worst = max(worst, *_spectral_norms(_outside(rebuilt, graphs)).tolist())
        sines = np.linalg.svd(graphs[:, :n], compute_uv=False)
        operators += int(np.sum(np.sum(sines > dp.tol.zero_cutoff(1.0), axis=-1) == graphs.shape[-1]))
    return worst, operators


def _omega_block(omega: np.ndarray, l_coords: np.ndarray) -> np.ndarray:
    """L^H Omega conj(L), the frakM block of the adjoint-gap matrix of
    graph(A) + M L for orthonormal L (see brute_force_extensions), for L or
    each L of a stack."""
    return _adjoint(l_coords) @ omega @ np.conj(l_coords)


def _complement_formula_intersect(s1_perp: Subspace, s2: Subspace) -> Subspace:
    """S1 cap S2 as complement(s1_perp + complement(S2)), given
    s1_perp = complement(S1), the sum taken by one SVD of the stacked
    complements.  A caller that meets S1 with several S2 takes its
    complement once.

    The brute-force sweep draws its candidates in the bases of its frame and
    of its aligned pools, and its hit counts change with those bases, so
    these two (and nothing else) keep this formula.
    """
    _check_same_ambient(s1_perp, s2)
    stacked = np.hstack([s1_perp.basis, complement(s2).basis])
    return complement(orthonormal_basis(stacked, s1_perp.tol))


def _sweep_frame(dp: DoubledProblem) -> tuple[Subspace, np.ndarray]:
    """The basis M of frakM in which the brute-force sweep draws its
    candidates, and Omega = M^H S conj(M), S's matrix in it, formed as
    DoubledProblem.omega forms it.

    M spans dp.frakM in another basis: graph(B*) cap complement(graph(A))
    by the complement formula, whose bits the sweep's hit counts depend on.
    graph(B*) enters it re-orthonormalized by SVDs, unlike dp.b_star: the
    orthonormal_basis of J graph(A), J(x, y) = (y, -x), its complement
    (graph(A*)), and the orthonormal_basis of that basis's C-image.  Built
    once per sweep.
    """
    tol, n, g = dp.tol, dp.ambient_dim, dp.a.graph.basis
    a_star = complement(orthonormal_basis(np.vstack([g[n:], -g[:n]]), tol, 2 * n))
    b_star = orthonormal_basis(_conjugated_graphs(a_star.basis, dp.c.matrix), tol)
    frak_m = _complement_formula_intersect(complement(b_star), complement(dp.a.graph))
    m = frak_m.basis
    return frak_m, m.conj().T @ dp.s_map.matrix @ np.conj(m)


def _sweep_pool(dp: DoubledProblem, frak_m: Subspace) -> list[np.ndarray]:
    """The frame's basis directions plus the members of frakM aligned with
    one coordinate block (pure first or pure second component), in the
    frame's coordinates.

    The pool's basis is part of the sweep, so it keeps the complement formula.
    """
    m = frak_m.dim
    n, n2 = dp.ambient_dim, 2 * dp.ambient_dim
    pool = [np.eye(m, dtype=complex)[:, j] for j in range(m)]
    frak_m_perp = complement(frak_m)
    for block in (slice(0, n), slice(n, n2)):
        aligned = _trusted(np.eye(n2, dtype=complex)[:, block], dp.tol)
        part = _complement_formula_intersect(frak_m_perp, aligned)
        coords = frak_m.basis.conj().T @ part.basis
        pool.extend(coords[:, j] for j in range(part.dim))
    return pool


def _sweep_candidates(dp: DoubledProblem, frak_m: Subspace, s_coord: np.ndarray, budget: int, seed: int):
    """The brute-force sweep's `budget` candidates L in order, in stacks of
    at most SWEEP_BLOCK: yields (L, lost), L a B x m x h stack in the
    coordinates of the frame (frak_m, s_coord) of _sweep_frame and lost the
    mask of the candidates whose isotropic completion lost rank.  The
    structured sweep comes first, then the isotropic completions of random
    first vectors, drawn one at a time, and the raw random subspaces; a
    stack is drawn only when it is asked for.  frakM must have even
    dimension 0 < m <= 8."""
    m = frak_m.dim
    half = m // 2
    tol = dp.tol
    rng = np.random.default_rng(seed)
    pool = _sweep_pool(dp, frak_m)

    def first_vectors():
        angles = (0.0, np.pi / 4, np.pi / 2)
        phases = (1.0, 1j, -1.0, -1j)
        for i in range(len(pool)):
            for j in range(len(pool)):
                if i == j:
                    continue
                for th in angles:
                    for ph in phases:
                        v = np.cos(th) * pool[i] + np.sin(th) * ph * pool[j]
                        nv = np.linalg.norm(v)
                        if nv > 1e-8:
                            yield v / nv

    evaluated = 0
    for firsts in _blocks(itertools.islice(first_vectors(), budget)):
        evaluated += len(firsts)
        if half > 1:
            yield _greedy_isotropic(s_coord, np.array(firsts), tol)
        else:
            yield np.array(firsts)[:, :, None], np.zeros(len(firsts), dtype=bool)
    iso_share = max(0, (budget - evaluated) // 10)

    def completions():
        for _ in range(iso_share):
            first = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            yield _greedy_isotropic(s_coord, first[None], tol, rng)

    for block in _blocks(completions()):
        yield tuple(np.concatenate(part) for part in zip(*block))

    def raw_subspaces():
        for _ in range(budget - evaluated - iso_share):
            yield rng.standard_normal((m, half)) + 1j * rng.standard_normal((m, half))

    for block in _blocks(raw_subspaces()):
        u, rank = _ranked_svd(np.array(block), tol)
        yield u, rank != half


# _sweep_candidates draws and stacks this many candidates at a time: one
# LAPACK call per step for all of them, yet brute_force_extensions stops
# drawing once it holds MAX_HITS
SWEEP_BLOCK = 256


def _blocks(items):
    """Lists of SWEEP_BLOCK consecutive items (the last one shorter), each
    drawn when it is asked for."""
    items = iter(items)
    while block := list(itertools.islice(items, SWEEP_BLOCK)):
        yield block


# brute_force_extensions returns at most this many hits
MAX_HITS = 1000


def brute_force_extensions(dp: DoubledProblem, budget: int = 10000, seed: int = 0) -> np.ndarray:
    """Sampled search for C-self-adjoint extensions, independent of the
    parameterization machinery.

    Candidates are midpoint subspaces graph(A) + L with L inside frakM of
    half its dimension, drawn from a deterministic structured sweep (pairs
    of pool vectors rotated through a small angle/phase grid, completed
    greedily when half-dimension exceeds one), a stream of isotropic
    completions of random first vectors, and raw random subspaces of frakM.
    Each candidate is kept iff the direct C-self-adjointness test passes.
    Results are deduplicated and deterministic for a fixed seed.

    Returns the hits as one B x 2n x k/2 array, in the order found: each
    hit is graph(A) + span W for its new columns W = M L, orthonormal and
    orthogonal to graph(A).  When frakM = 0 the one hit, A, has no columns.

    Candidates are filtered and deduplicated in frakM coordinates, in the
    sweep's own basis of frakM (_sweep_frame), and only new survivors are
    lifted to C^(2n) for the direct test.  With M that basis, L
    orthonormal, J(x, y) = (y, -x), K^ = diag(K, K) and
    Omega = M^H S conj(M) = -(J M)^H K^ conj(M), the h x h matrix
    L^H Omega conj(L) is minus the lower-right block of the adjoint-gap
    matrix (J G)^H K^ conj(G) of G = [graph(A), M L].  A block's 2-norm
    never exceeds the matrix's, and the sign does not change it, so the
    filter never drops a candidate the direct test would accept.

    When the family is continuous nearly every half-dimension-one candidate
    is a distinct hit, so the hits are capped at MAX_HITS (no block
    of candidates is drawn once the cap is reached; the structured sweep
    runs first and is never truncated by the random streams).
    """
    _require_c_symmetric(dp)
    if dp.frakM.dim > 8:
        raise InputError(f"frakM dimension {dp.frakM.dim} exceeds the brute-force guard (8)")
    if dp.frakM.dim == 0:
        return np.zeros((1, 2 * dp.ambient_dim, 0), dtype=complex)
    if dp.frakM.dim % 2:
        raise PropertyViolationError("frakM has odd dimension", {"dim": dp.frakM.dim})
    frak_m, omega = _sweep_frame(dp)
    tol = dp.tol
    known_gap = _known_gap(dp)
    hits = [np.zeros((0, 2 * dp.ambient_dim, frak_m.dim // 2), dtype=complex)]
    seen: set[bytes] = set()  # one key per hit
    for stack, lost in _sweep_candidates(dp, frak_m, omega, budget, seed):
        # the rank test 2 dim L = m and the filter over the whole stack
        spans, rank = _ranked_svd(stack[~lost], tol)
        spans = spans[2 * rank == frak_m.dim]
        spans = spans[_norms_within(_omega_block(omega, spans), tol.bound())]
        # dedup on the rounded projector of L, which is basis-independent;
        # adding 0.0 normalizes negative zeros so keys are reproducible
        keys = [key.tobytes() for key in np.round(spans @ _adjoint(spans), 8) + 0.0]
        # frakM is orthogonal to graph(A), so the lifted columns are orthonormal
        new = frak_m.basis @ spans
        taken = _distinct_c_selfadjoint(dp, known_gap, new, keys, seen)[: MAX_HITS - len(seen)]
        seen.update(keys[i] for i in taken)
        hits.append(new[taken])  # a copy, so the block itself is not kept
        if len(seen) == MAX_HITS:
            break
    return np.concatenate(hits)


def _distinct_c_selfadjoint(
    dp: DoubledProblem, known_gap: np.ndarray, new: np.ndarray, keys: list[bytes], seen: set[bytes]
) -> list[int]:
    """The candidates graph(A) + span new[i] of a sweep block that become
    hits, in order: those whose key is not in seen and that pass the direct
    C-self-adjointness test, each key taken once, at its first passing
    candidate.  The test runs once per candidate a sequential sweep would
    test, one stacked call per round: a round takes the first open
    candidate of each open key, and only a key whose candidate failed stays
    open for the next."""
    accepted: list[int] = []
    open_ = [i for i, key in enumerate(keys) if key not in seen]
    while open_:
        first: dict[bytes, int] = {}
        for i in open_:
            first.setdefault(keys[i], i)
        tried = list(first.values())
        images = _conjugated_graphs(new[tried], dp.c.matrix)
        passed = _c_selfadjoint_grown(dp, known_gap, new[tried], images)
        accepted += [i for i, ok in zip(tried, passed) if ok]
        done = {keys[i] for i, ok in zip(tried, passed) if ok}
        open_ = [i for i in open_ if i > first[keys[i]] and keys[i] not in done]
    return sorted(accepted)
