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
O(n^2 k) each instead of O(n^3).  The known block of each graph is
certified once, upstream:

- by the C-symmetry guard (B inside A*, csym._require_c_symmetric, which
  every builder reaches through DoubledProblem.omega): graph(frakA)'s
  block of the doubled adjoint gap, graph(A)'s block of the adjoint gap
  of C graph(A_U), and graph(A) inside graph(B*);
- by build_doubled's guard: frakE graph(frakA) = graph(frakA);
- by construction, since the bordered bases keep those columns bit for
  bit: graph(B) inside C graph(A_U) and graph(frakA) inside
  block_relation(S, T).

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
angle between the two; without the condition the split fails, the slices
come out too large, and the parameter is refused with the block diagnosis.

The D-condition is not an extra restriction on the extensions themselves:
every C-self-adjoint extension induces, through its own doubled relation,
a parameter satisfying both conditions (recover_parameter), and every such
parameter arises this way.  Soundness and completeness are both exercised
against brute force in the tests.

The brute-force sweep decides in frakM coordinates and lifts only distinct
survivors to C^(2n): its filter ||L^H Omega conj(L)||_2 is the 2-norm of a
block of the direct adjoint-gap matrix of graph(A) + L, which never exceeds
the matrix's, so it cannot reject a candidate the direct test accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antilinear import conjugation_axiom_residuals
from .csym import is_c_selfadjoint
from .doubling import DoubledProblem, _orthogonality_residual, block_relation
from .errors import InputError, PreconditionError, PropertyViolationError
from .linalg import (
    Subspace,
    _as_complex_matrix,
    _complement_formula_intersect,
    _gram_residual,
    _norm_within,
    _trusted,
    complement,
    extend_basis,
    max_angle_sin,
    orthonormal_basis,
    subspace_equal,
    subspace_sum,
)
from .relations import LinearRelation
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


def frakE_condition_residual(dp: DoubledProblem, u: np.ndarray) -> float:
    """|| (frakE U)^2 - I || on N+ in coordinates."""
    g = -1j * dp.omega @ np.conj(u)  # anti-linear matrix of frakE о U on N+
    k = u.shape[0]
    return float(np.abs(g @ np.conj(g) - np.eye(k)).max()) if k else 0.0


def block_condition_residual(dp: DoubledProblem, u: np.ndarray) -> float:
    """|| D U D U - I || on N+; zero iff the doubled extension stays block.

    D = -I in the bases N+-, so this is || U^2 - I ||."""
    k = u.shape[0]
    return float(np.abs(u @ u - np.eye(k)).max()) if k else 0.0


def parameter_as_unitary(dp: DoubledProblem, p: ExtensionParameter) -> np.ndarray:
    """Convert any parameter form to the unitary U: N+ -> N- in coordinates.

    Validates the form's own invariant and the compatibility condition
    frakE U frakE U = I; violations are input errors.
    """
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
    unit = _gram_residual(u)
    if unit > bound:
        raise InputError(f"parameter does not give a unitary map (residual {unit:.3e})")
    frake = frakE_condition_residual(dp, u)
    if frake > bound:
        raise InputError(
            f"parameter violates the compatibility condition frakE U frakE U = I (residual {frake:.3e})"
        )
    return u


def parameter_as_conjugation(dp: DoubledProblem, p: ExtensionParameter) -> ExtensionParameter:
    u = parameter_as_unitary(dp, p)
    return ExtensionParameter("conjugation", -1j * dp.omega @ np.conj(u))


@dataclass(frozen=True, eq=False)
class ExtensionResult:
    """A verified extension: its checks cover the doubled extension, the
    block split, C-self-adjointness and the L-manifold decomposition."""

    a_ext: LinearRelation
    frak_ext: LinearRelation
    parameter: ExtensionParameter
    checks: CheckList


def _deficiency_span(dp: DoubledProblem, p: ExtensionParameter) -> tuple[np.ndarray, np.ndarray]:
    """U in coordinates and the 4n x k columns (w - Uw, i(w + Uw)), w in N+.

    With frakM's basis [X; Y], N+- = [Y; +-iX], so the columns are
    (Y(I - U), iX(I + U), iY(I + U), -X(I - U)), read off frakM's blocks.
    Raises InputError for invalid parameter data, PropertyViolationError when
    the parameter is admissible upstairs but the doubled extension has no
    block structure (D U D U = I fails), carrying the block diagnosis.
    """
    u = parameter_as_unitary(dp, p)
    block_res = block_condition_residual(dp, u)
    if block_res > dp.tol.bound():
        raise PropertyViolationError(
            "parameter is admissible for the doubled relation but destroys its block "
            "structure; the self-adjoint extension upstairs is not the double of any "
            "relation downstairs (D U D U = I fails)",
            {"block_condition": block_res, "frakE_condition": frakE_condition_residual(dp, u)},
        )
    n = dp.ambient_dim
    x, y = dp.frakM.basis[:n], dp.frakM.basis[n:]
    eye = np.eye(u.shape[0])
    minus, plus = eye - u, eye + u
    return u, np.vstack([y @ minus, 1j * (x @ plus), 1j * (y @ plus), -(x @ minus)])


def extension_graph(dp: DoubledProblem, p: ExtensionParameter) -> LinearRelation:
    """The extension attached to a parameter in closed form, unverified.

    graph(A) grown by the (y, v) rows of the deficiency span.  Raises like
    extension_from_parameter on invalid or non-block parameters, and
    PropertyViolationError when the graph does not have dimension
    dim graph(A) + k/2.
    """
    _, defect_cols = _deficiency_span(dp, p)
    n = dp.ambient_dim
    graph = extend_basis(dp.a.graph, defect_cols[n : 3 * n])
    gap = dp.n_plus.dim - 2 * (graph.dim - dp.a.graph.dim)
    if gap:
        raise PropertyViolationError(
            "deficiency rows do not add half the deficiency to graph(A)", {"dim_gap": gap}
        )
    return LinearRelation(graph)


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
    n = dp.ambient_dim
    s = extend_basis(dp.a.graph, defect_cols[n : 3 * n])
    t = extend_basis(dp.b.graph, np.vstack([defect_cols[:n], defect_cols[3 * n :]]))
    return LinearRelation(s), LinearRelation(t)


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
    # the columns (w - Uw, i(w + Uw))/2 are orthonormal for unitary U, and
    # orthogonal to graph(frakA) because N+- are read off frakM (its members
    # lie in graph(B*) and are orthogonal to graph(A)), so no SVD is needed
    frak_ext = LinearRelation(_trusted(np.hstack([dp.frakA.graph.basis, defect_cols / 2]), tol))
    frak_new = _new_columns(frak_ext, dp.frakA)
    # the gap matrix is skew-Hermitian and its graph(frakA) block is 0 by the
    # C-symmetry guard (frakA is symmetric iff B lies in A*), so the new columns carry the rest
    checks.add_residual("doubled_selfadjoint", frak_ext.adjoint_gap(frak_new.graph.basis), bound)
    # C is antiunitary, so the C-image of orthonormal columns is orthonormal;
    # frakE graph(frakA) = graph(frakA) is build_doubled's guard
    einv_res = max_angle_sin(_trusted(frak_new.conjugated_basis(dp.frakC), tol), frak_ext.graph)
    checks.add_residual("doubled_frakE_selfadjoint", einv_res, bound)
    a_ext, t_block = _closed_form_slices(dp, defect_cols)
    dims = a_ext.graph.dim + t_block.graph.dim - frak_ext.graph.dim
    # block_relation(S, T) keeps graph(frakA)'s columns bit for bit, so at
    # equal dimensions the new columns of frak(A)_U decide the equality
    if dims or not frak_new.contained_in(block_relation(a_ext, t_block)):
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
    checks.add_residual("l_orthogonal_to_s_l", _orthogonality_residual(l_graph, s_image), bound)
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
    return ExtensionResult(a_ext, frak_ext, ExtensionParameter("unitary", u), checks)


def _greedy_isotropic(s_coord: np.ndarray, m: int, tol, rng=None, first=None) -> np.ndarray:
    """Columns of an isotropic L with L + S(L) = C^m, in frakM coordinates.

    Candidates are the first column of the orthogonal complement of the span
    collected so far, or random unit vectors in it when rng is given.  Each
    new vector is automatically S-isotropic against everything before, so
    no repair step is needed.
    """
    cols = []
    used = np.zeros((m, 0), dtype=complex)
    while 2 * len(cols) < m:
        if cols or first is None:
            rest = complement(_trusted(used, tol)).basis
            if rng is None:
                v = rest[:, 0]
            else:
                coeff = rng.standard_normal(rest.shape[1]) + 1j * rng.standard_normal(rest.shape[1])
                v = rest @ coeff
                v = v / np.linalg.norm(v)
        else:
            v = first / np.linalg.norm(first)
        sv = s_coord @ np.conj(v)
        cols.append(v)
        used = orthonormal_basis(np.column_stack([used, v, sv]), tol, m).basis
        if used.shape[1] != 2 * len(cols):
            raise PropertyViolationError(
                "isotropic construction lost rank", {"dim": used.shape[1]}
            )
    return np.column_stack(cols) if cols else np.zeros((m, 0), dtype=complex)


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
    l_coords = _greedy_isotropic(s_coord, m, dp.tol)
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
    V = Q P^-1, so V N+ = Q X for the k columns X solving P X = N+; V itself
    is never formed.  Rebuilding the extension from U is left to callers.
    """
    if not dp.a.contained_in(a_tilde):
        raise PreconditionError("relation does not extend A")
    if not is_c_selfadjoint(a_tilde, dp.c):
        raise PreconditionError("extension is not C-self-adjoint")
    k = dp.n_plus.dim
    if k == 0:
        return ExtensionParameter("unitary", np.zeros((0, 0)))
    # C is antiunitary, so the C-image of the orthonormal graph basis is orthonormal
    conj_tilde = LinearRelation(_trusted(a_tilde.conjugated_basis(dp.c), dp.tol))
    frak_t = block_relation(a_tilde, conj_tilde)
    n2 = 2 * dp.ambient_dim
    g = frak_t.graph.basis
    if g.shape[1] != n2:
        raise PropertyViolationError(
            "doubled extension has the wrong graph dimension", {"dim": g.shape[1]}
        )
    try:
        x = np.linalg.solve(g[n2:] + 1j * g[:n2], dp.n_plus.basis)
    except np.linalg.LinAlgError as exc:
        raise PropertyViolationError(f"Cayley transform is not everywhere defined: {exc}", {})
    image = (g[n2:] - 1j * g[:n2]) @ x
    u = dp.n_minus.basis.conj().T @ image
    stray = float(np.abs(image - dp.n_minus.basis @ u).max())
    if stray > dp.tol.bound():
        raise PropertyViolationError(
            "Cayley transform does not carry N+ onto N-", {"stray": stray}
        )
    return ExtensionParameter("unitary", u)


def _omega_block(omega: np.ndarray, l_coords: np.ndarray) -> np.ndarray:
    """L^H Omega conj(L), the frakM block of the adjoint-gap matrix of
    graph(A) + M L for orthonormal L (see brute_force_extensions)."""
    return l_coords.conj().T @ omega @ np.conj(l_coords)


def _sweep_pool(dp: DoubledProblem, frak_m: Subspace) -> list[np.ndarray]:
    """frakM basis directions plus the members aligned with one coordinate
    block (pure first or pure second component), in frakM coordinates.

    The pool's basis is part of the sweep, so it keeps the complement formula.
    """
    m = frak_m.dim
    n, n2 = dp.ambient_dim, 2 * dp.ambient_dim
    pool = [np.eye(m, dtype=complex)[:, j] for j in range(m)]
    for block in (slice(0, n), slice(n, n2)):
        aligned = _trusted(np.eye(n2, dtype=complex)[:, block], dp.tol)
        part = _complement_formula_intersect(frak_m, aligned)
        coords = frak_m.basis.conj().T @ part.basis
        pool.extend(coords[:, j] for j in range(part.dim))
    return pool


def _sweep_candidates(dp: DoubledProblem, budget: int, seed: int):
    """The brute-force sweep's `budget` candidates L, m x h in frakM
    coordinates, in order; None stands for a first vector whose isotropic
    completion lost rank.  frakM must have even dimension 0 < m <= 8."""
    frak_m = dp.frakM
    m = frak_m.dim
    half = m // 2
    tol = dp.tol
    rng = np.random.default_rng(seed)
    s_coord = dp.omega
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
    for v in first_vectors():
        if evaluated >= budget:
            break
        if half > 1:
            try:
                l_coords = _greedy_isotropic(s_coord, m, tol, first=v)
            except PropertyViolationError:
                l_coords = None
            yield l_coords
        else:
            yield v.reshape(-1, 1)
        evaluated += 1
    iso_share = max(0, (budget - evaluated) // 10)
    for _ in range(iso_share):
        yield _greedy_isotropic(s_coord, m, tol, rng=rng)
    for _ in range(budget - evaluated - iso_share):
        z = rng.standard_normal((m, half)) + 1j * rng.standard_normal((m, half))
        yield orthonormal_basis(z, tol, m).basis


# brute_force_extensions returns at most this many hits
MAX_HITS = 1000


def brute_force_extensions(dp: DoubledProblem, budget: int = 10000, seed: int = 0) -> list[LinearRelation]:
    """Sampled search for C-self-adjoint extensions, independent of the
    parameterization machinery.

    Candidates are midpoint subspaces graph(A) + L with L inside frakM of
    half its dimension, drawn from a deterministic structured sweep (pairs
    of pool vectors rotated through a small angle/phase grid, completed
    greedily when half-dimension exceeds one), a stream of isotropic
    completions of random first vectors, and raw random subspaces of frakM.
    Each candidate is kept iff the direct C-self-adjointness test passes.
    Results are deduplicated and deterministic for a fixed seed.

    Candidates are filtered and deduplicated in frakM coordinates, and only
    new survivors are lifted to C^(2n) for the direct test.  With M the
    frakM basis, L orthonormal, J(x, y) = (y, -x), K^ = diag(K, K) and
    Omega = M^H S conj(M) = -(J M)^H K^ conj(M), the h x h matrix
    L^H Omega conj(L) is minus the lower-right block of the adjoint-gap
    matrix (J G)^H K^ conj(G) of G = [graph(A), M L].  A block's 2-norm
    never exceeds the matrix's, and the sign does not change it, so the
    filter never drops a candidate the direct test would accept.

    When the family is continuous nearly every half-dimension-one candidate
    is a distinct hit, so the returned list is capped at MAX_HITS (sampling
    stops once the cap is reached; the structured sweep runs first and is
    never truncated by the random streams).
    """
    omega = dp.omega  # raises PreconditionError unless C-symmetric
    frak_m = dp.frakM
    if frak_m.dim > 8:
        raise InputError(f"frakM dimension {frak_m.dim} exceeds the brute-force guard (8)")
    if frak_m.dim == 0:
        return [dp.a]
    if frak_m.dim % 2:
        raise PropertyViolationError("frakM has odd dimension", {"dim": frak_m.dim})
    tol = dp.tol
    bound = tol.bound()
    hits: list[LinearRelation] = []
    seen: set[bytes] = set()
    for l_coords in _sweep_candidates(dp, budget, seed):
        if len(hits) >= MAX_HITS:
            break
        if l_coords is None:
            continue
        span = orthonormal_basis(l_coords, tol, frak_m.dim)
        if 2 * span.dim != frak_m.dim or not _norm_within(_omega_block(omega, span.basis), bound):
            continue
        # dedup on the rounded projector of L, which is basis-independent;
        # adding 0.0 normalizes negative zeros so keys are reproducible
        key = (np.round(span.projector(), 8) + 0.0).tobytes()
        if key in seen:
            continue
        # frakM is orthogonal to graph(A), so the lifted columns are orthonormal
        lifted = np.hstack([dp.a.graph.basis, frak_m.basis @ span.basis])
        cand = LinearRelation(_trusted(lifted, tol))
        if is_c_selfadjoint(cand, dp.c):
            seen.add(key)
            hits.append(cand)
    return hits
