import sys
from functools import cached_property

import numpy as np
import pytest

import csymlab as cs


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def within(a, b, bound, equal=False):
    """max_angle_sin(a, b) <= bound, and with equal=True also dim a == dim b.

    a and b are Subspaces, LinearRelations (their graphs) or vectors (their
    spans).  The package's predicates read their bound from the operands'
    Tolerance; a test that needs a bound of its own states it here.
    """
    a, b = (
        cs.orthonormal_basis(s.reshape(-1, 1)) if isinstance(s, np.ndarray) else getattr(s, "graph", s)
        for s in (a, b)
    )
    return cs.max_angle_sin(a, b) <= bound and (not equal or a.dim == b.dim)


# C-symmetric fixtures with a nonzero defect, under the entrywise and the flip conjugation
DEFECT_SPECS = (cs.race_schrodinger(16), cs.zero_on_subspace(8), cs.fd_derivative_minimal(16))


def zero_relation(n):
    """The zero operator on the zero domain (empty graph)."""
    return cs.LinearRelation(cs.zero_subspace(2 * n))


def full_relation(n):
    """The relation H x H (everything related to everything)."""
    return cs.LinearRelation(cs.full_space(2 * n))


def count_calls(monkeypatch, owner, name):
    """Count calls of owner.name.

    owner is a module, whose function is patched in every csymlab module
    that binds it, or a class, whose method is patched on the class.  For a
    cached_property the body is counted, i.e. once per instance it builds.
    """
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    if isinstance(owner, type):
        prop = vars(owner).get(name)
        if isinstance(prop, cached_property):
            original = prop.func
            counted = cached_property(counted)
            counted.__set_name__(owner, name)
        monkeypatch.setattr(owner, name, counted)
        return calls
    patch_everywhere(monkeypatch, owner, name, counted)
    return calls


def patch_everywhere(monkeypatch, module, name, replacement):
    """Replace module.name in every csymlab module that binds it."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.partition(".")[0] == "csymlab" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def svd_adjoint_graph(rel):
    """graph(R*) by SVDs: the complement of orthonormal_basis(J graph(R)),
    J(x, y) = (y, -x), with the rank of J graph(R) decided by a cut."""
    n, g = rel.ambient_dim, rel.graph.basis
    return cs.complement(cs.orthonormal_basis(np.vstack([g[n:], -g[:n]]), rel.tol, 2 * n))


def svd_sweep_frame(dp):
    """The brute-force sweep's basis of frakM rebuilt step by step: graph(A*)
    by svd_adjoint_graph, graph(B*) as the orthonormal_basis of its C-image,
    and the complement formula's graph(B*) cap complement(graph(A))."""
    a_star = svd_adjoint_graph(dp.a)
    b_star = cs.orthonormal_basis(cs.relations._conjugated_graphs(a_star.basis, dp.c.matrix), dp.tol)
    return cs.extensions._complement_formula_intersect(cs.complement(b_star), cs.complement(dp.a.graph))


def frakM_prime_oracle(dp):
    """frakM' = graph(A*) - graph(B) by its own orthogonal_difference SVD,
    the oracle of m_spaces' J frakM."""
    return cs.orthogonal_difference(dp.a_star.graph, dp.b.graph)


def linear_map_subspace(self, s):
    """Conjugation.map_subspace with np.conj dropped: the linear image K B
    of S's basis B, a mutation of C x = K conj(x)."""
    return cs.linalg._trusted(self.matrix @ s.basis, s.tol)


def check_trusted_bases(monkeypatch):
    """Route linalg._trusted through the checked Subspace constructor, so
    every basis the package builds runs the finiteness and Gram checks."""
    patch_everywhere(monkeypatch, cs.linalg, "_trusted", cs.Subspace)


@pytest.fixture
def checked_subspaces(monkeypatch):
    check_trusted_bases(monkeypatch)


def nonblock_parameter(dp):
    """i J0 for the conjugation J0 of the canonical extension.

    It passes the frakE gate, and its unitary is -i U0, so D U D U = -I and
    the block residual is exactly 2 in every choice of deficiency bases.
    """
    j0 = cs.parameter_as_conjugation(dp, cs.canonical_extension(dp).parameter).matrix
    return cs.ExtensionParameter("conjugation", 1j * j0)


def sample_parameters(dp, count, seed=0):
    """Conjugation parameters of `count` randomly sampled extensions.

    Sampling is done on the extension side (random isotropic L inside frakM)
    and pulled back through recover_parameter, which keeps every sample
    inside the block-compatible family.
    """
    s_coord = dp.omega  # raises PreconditionError unless C-symmetric
    frak_m = dp.frakM
    if frak_m.dim == 0:
        return [cs.ExtensionParameter("conjugation", np.zeros((0, 0))) for _ in range(count)]
    rng = np.random.default_rng(seed)
    out = []
    m = frak_m.dim
    for _ in range(count):
        first = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        l_coords = cs.extensions._greedy_isotropic(s_coord, first[None], dp.tol, rng)[0][0]
        a_tilde = cs.LinearRelation(cs.extend_basis(dp.a.graph, frak_m.basis @ l_coords))
        out.append(cs.parameter_as_conjugation(dp, cs.recover_parameter(dp, a_tilde)))
    return out


def block_relation(s, t):
    """{((x, y), (v, u)) : (y, v) in S, (x, u) in T} on H + H as one 4n-row
    basis, given on D(T) x D(S) if S, T are: the oracle form of the block
    pairs the package reads instead."""
    assert s.ambient_dim == t.ambient_dim
    n = s.ambient_dim
    domain = None
    if s.given_domain is not None and t.given_domain is not None:
        ds, dt = s.given_domain.basis, t.given_domain.basis
        cols = np.block([[np.zeros((n, ds.shape[1])), dt], [ds, np.zeros((n, dt.shape[1]))]])
        domain = cs.linalg._trusted(cols, s.tol)
    # the two column groups are orthonormal and mutually orthogonal
    return cs.LinearRelation(cs.linalg._trusted(block_columns(s.graph.basis, t.graph.basis), s.tol), domain)


def block_columns(gs, gt):
    """The graph basis of block_relation(S, T) from those of S and T, or a
    stack of them from two stacks."""
    n = gs.shape[-2] // 2
    ds = gs.shape[-1]
    cols = np.zeros((*gs.shape[:-2], 4 * n, ds + gt.shape[-1]), dtype=complex)
    cols[..., n : 2 * n, :ds] = gs[..., :n, :]
    cols[..., 2 * n : 3 * n, :ds] = gs[..., n:, :]
    cols[..., :n, ds:] = gt[..., :n, :]
    cols[..., 3 * n :, ds:] = gt[..., n:, :]
    return cols


def frak_a(dp):
    """frakA = block(A, B), the doubled relation, as a 4n-row basis."""
    return block_relation(dp.a, dp.b)


def frak_a_star(dp):
    """frakA* = block(B*, A*), the adjoint of frakA (build_doubled's guard)."""
    return block_relation(dp.b_star, dp.a_star)


def imaginary_members(rel):
    """The graph elements (w, iw) and (w, -iw) of a relation: its graph
    intersected with the graphs of +-i."""
    eye = np.eye(rel.ambient_dim, dtype=complex)
    return tuple(
        cs.intersect(rel.graph, cs.linalg._trusted(np.vstack([eye, sign * 1j * eye]) / np.sqrt(2.0), rel.tol))
        for sign in (1, -1)
    )


def vn_oracle(t, t_star=None):
    """graph(T*) = graph(T) + N_hat_plus + N_hat_minus for a symmetric
    relation T given by one basis, the 4n-row oracle of
    doubling.vn_decomposition on T = frakA: N_hat_+- by imaginary_members,
    the kernel of (T*)^2 + I by kernel_one_plus(T*, T*), the first
    components of N_hat_+- by orthonormal_basis, and the report built with
    the check names and details of vn_decomposition.  t_star is T* when
    already computed."""
    if t_star is None:
        t_star = t.adjoint()
    tol = t.tol
    bound = tol.bound()
    if not t.contained_in(t_star):
        raise cs.PreconditionError("relation is not symmetric")
    n = t.ambient_dim
    checks = cs.reporting.CheckList()
    measurements = {}

    def orthogonality(s1, s2):
        return float(np.abs(s1.basis.conj().T @ s2.basis).max(initial=0.0))

    plus, minus = imaginary_members(t_star)
    checks.add_residual("graph_orth_t_nhat_plus", orthogonality(t.graph, plus), bound)
    checks.add_residual("graph_orth_t_nhat_minus", orthogonality(t.graph, minus), bound)
    checks.add_residual("graph_orth_nhat_plus_minus", orthogonality(plus, minus), bound)
    total = cs.subspace_sum(cs.subspace_sum(t.graph, plus), minus)
    checks.add(
        "graph_decomposition_spans_adjoint",
        cs.subspace_equal(total, t_star.graph) and total.dim == t.graph.dim + plus.dim + minus.dim,
        detail=f"dims {t.graph.dim}+{plus.dim}+{minus.dim} vs {t_star.graph.dim}",
    )
    kernel = cs.kernel_one_plus(t_star, t_star)
    n_plus_first = cs.orthonormal_basis(plus.basis[:n], tol, n)
    n_minus_first = cs.orthonormal_basis(minus.basis[:n], tol, n)
    eig_sum = cs.subspace_sum(n_plus_first, n_minus_first)
    checks.add(
        "kernel_splits_into_eigenspace_members",
        cs.subspace_equal(kernel, eig_sum),
        detail=f"dim N((T*)^2+I) = {kernel.dim}",
    )
    if t.regime != "operator":
        measurements["eigenspace_sum_direct"] = eig_sum.dim == n_plus_first.dim + n_minus_first.dim
        reason = "adjoint is multivalued; the decomposition is expressed at graph level"
        checks.skip("domain_decomposition", reason)
    subspaces = {"graph_t": t.graph, "n_hat_plus": plus, "n_hat_minus": minus, "kernel_sq": kernel}
    return cs.doubling.DecompositionReport(t.regime, subspaces, checks, measurements)


def cayley_oracle(dp, graph, drop_c=False):
    """(U, stray) of recover_parameter for one graph basis by the dense
    Cayley solve, the oracle of extensions._cayley_unitaries: P = B + iA
    and Q = B - iA from the whole 4n x 2n basis of the doubled extension
    block(A~, C A~ C), P X = N+ solved in 2n dimensions, U = N-^H Q X and
    the stray of Q X from N-.

    drop_c, in a graph that begins with graph(A)'s basis, puts the columns
    past graph(A)'s in place of their C-images, the round-trip tests'
    mutation: the doubled relation is then not self-adjoint, and U not
    unitary."""
    n, d = dp.ambient_dim, dp.a.graph.dim
    images = cs.relations._conjugated_graphs(graph, dp.c.matrix)
    if drop_c:
        images[:, d:] = graph[:, d:]
    g = block_columns(graph, images)
    second, first = g[2 * n :], g[: 2 * n]
    image = (second - 1j * first) @ np.linalg.solve(second + 1j * first, dp.n_plus.basis)
    u = dp.n_minus.basis.conj().T @ image
    return u, float(np.abs(image - dp.n_minus.basis @ u).max())


def hit_relations(dp, new):
    """The hits of brute_force_extensions as relations: graph(A) + span W
    for each W of the B x 2n x k/2 array, with graph(A)'s basis first."""
    return [cs.LinearRelation(cs.linalg._trusted(np.hstack([dp.a.graph.basis, w]), dp.tol)) for w in new]


def parameter_as_onb(dp, p):
    """Orthonormal basis of N+ fixed by the parameter's conjugation, ambient columns."""
    j = cs.parameter_as_conjugation(dp, p).matrix
    k = j.shape[0]
    if k == 0:
        return cs.ExtensionParameter("onb", np.zeros((2 * dp.ambient_dim, 0)))
    whole = cs.linalg._trusted(np.eye(k, dtype=complex), dp.tol)
    coords = cs.invariant_onb(cs.AntiLinearMap(j, dp.tol), whole)
    return cs.ExtensionParameter("onb", dp.n_plus.basis @ coords)


def doubled_extension(dp, defect_cols):
    """graph(frak(A)_U) as one 4n-row basis, the oracle of the block-form
    checks of extension_from_parameter: graph(frakA) = block(A, B)
    bordered by the deficiency columns halved, which are orthonormal and
    orthogonal to it as built."""
    return cs.LinearRelation(cs.linalg._trusted(np.hstack([frak_a(dp).graph.basis, defect_cols / 2]), dp.tol))


def bordered_doubled_residuals(dp, defect_cols, s, t):
    """The doubled checks of extension_from_parameter taken on the 4n-row
    basis of doubled_extension, on its new columns q: the adjoint gap of q,
    the angle from frakE q into frak(A)_U, and the angle from q into
    block_relation(S, T), the reassembly guard's residual."""
    frak = doubled_extension(dp, defect_cols)
    q = cs.linalg._trusted(frak.graph.basis[:, dp.a.graph.dim + dp.b.graph.dim :], dp.tol)
    frake = cs.linalg._trusted(cs.LinearRelation(q).conjugated_basis(dp.frakC), dp.tol)
    return {
        "doubled_selfadjoint": frak.adjoint_gap(q.basis),
        "doubled_frakE_selfadjoint": cs.max_angle_sin(frake, frak.graph),
        "reassembly": cs.max_angle_sin(q, block_relation(s, t).graph),
    }


def block_slices(r):
    """(S, T) cut out of a relation on H + H by intersection, the oracle of
    extensions._closed_form_slices.

    S = {(y, v) : (0, y, v, 0) in graph}, T = {(x, u) : (x, 0, 0, u) in graph}.
    For genuinely block relations block_relation(S, T) reproduces the input.
    """
    n = r.ambient_dim // 2
    tol = r.tol
    eye = np.eye(4 * n, dtype=complex)
    hit_s = cs.intersect(r.graph, cs.linalg._trusted(eye[:, n : 3 * n], tol))
    hit_t = cs.intersect(r.graph, cs.linalg._trusted(np.hstack([eye[:, :n], eye[:, 3 * n :]]), tol))
    s = cs.LinearRelation(cs.orthonormal_basis(hit_s.basis[n : 3 * n], tol, 2 * n))
    t = cs.LinearRelation(cs.orthonormal_basis(np.vstack([hit_t.basis[:n], hit_t.basis[3 * n :]]), tol, 2 * n))
    return s, t


def greedy_isotropic_oracle(s_coord, m, tol, rng=None, first=None):
    """extensions._greedy_isotropic one L at a time, the oracle of the
    stacked one: complement and span are one SVD each per step, and a span
    that loses rank raises PropertyViolationError."""
    cols = []
    used = np.zeros((m, 0), dtype=complex)
    while 2 * len(cols) < m:
        if cols or first is None:
            rest = cs.complement(cs.linalg._trusted(used, tol)).basis
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
        used = cs.orthonormal_basis(np.column_stack([used, v, sv]), tol, m).basis
        if used.shape[1] != 2 * len(cols):
            raise cs.PropertyViolationError("isotropic construction lost rank", {"dim": used.shape[1]})
    return np.column_stack(cols) if cols else np.zeros((m, 0), dtype=complex)


def sweep_oracle(dp, budget, seed):
    """The brute-force sweep one candidate at a time, the oracle of the
    stacked one: (candidates, hits), the candidates L in order (None where
    the isotropic completion lost rank) and the graph bases of the hits.
    Like the sweep it draws in the sweep's frame, not in dp.frakM's basis."""
    (frak_m, omega), tol = cs.extensions._sweep_frame(dp), dp.tol
    m = frak_m.dim
    half = m // 2
    rng = np.random.default_rng(seed)
    pool = cs.extensions._sweep_pool(dp, frak_m)
    firsts = []
    for i in range(len(pool)):
        for j in range(len(pool)):
            for th in (0.0, np.pi / 4, np.pi / 2):
                for ph in (1.0, 1j, -1.0, -1j):
                    v = np.cos(th) * pool[i] + np.sin(th) * ph * pool[j]
                    nv = np.linalg.norm(v)
                    if i != j and nv > 1e-8 and len(firsts) < budget:
                        firsts.append(v / nv)

    def completed(**kwargs):
        try:
            return greedy_isotropic_oracle(omega, m, tol, **kwargs)
        except cs.PropertyViolationError:
            return None

    candidates = [completed(first=v) if half > 1 else v.reshape(-1, 1) for v in firsts]
    iso_share = max(0, (budget - len(firsts)) // 10)
    candidates += [completed(rng=rng) for _ in range(iso_share)]
    for _ in range(budget - len(firsts) - iso_share):
        z = rng.standard_normal((m, half)) + 1j * rng.standard_normal((m, half))
        candidates.append(cs.orthonormal_basis(z, tol, m).basis)
    hits, seen = [], set()
    for l_coords in candidates:
        if len(hits) >= cs.extensions.MAX_HITS:
            break
        if l_coords is None:
            continue
        span = cs.orthonormal_basis(l_coords, tol, m)
        block = span.basis.conj().T @ omega @ np.conj(span.basis)
        if 2 * span.dim != m or not cs.linalg._norm_within(block, tol.bound()):
            continue
        key = (np.round(span.projector(), 8) + 0.0).tobytes()
        if key in seen:
            continue
        lifted = np.hstack([dp.a.graph.basis, frak_m.basis @ span.basis])
        if cs.is_c_selfadjoint(cs.LinearRelation(cs.linalg._trusted(lifted, tol)), dp.c):
            seen.add(key)
            hits.append(lifted)
    return candidates, hits
