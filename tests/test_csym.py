"""C-symmetry predicates, weak form, defect spaces, anti-involution."""

import numpy as np
import pytest

import csymlab as cs
from csymlab.fixtures import EXAMPLE_BUILDERS

from conftest import (
    DEFECT_SPECS,
    count_calls,
    frakM_prime_oracle,
    full_relation,
    linear_map_subspace,
    random_complex,
    within,
    zero_relation,
)


def test_entrywise_csym_is_transpose_symmetry(rng):
    c = cs.entrywise_conjugation(4)
    s = cs.random_symmetric(4, rng)
    assert cs.is_c_selfadjoint(cs.from_matrix(s), c)
    ns = s.copy()
    ns[0, 1] += 1.0
    assert not cs.is_c_selfadjoint(cs.from_matrix(ns), c)


def test_matrix_condition(rng):
    # A is C-self-adjoint iff AK symmetric, K the conjugation matrix
    for _ in range(20):
        n = int(rng.integers(1, 7))
        c = cs.random_conjugation(n, rng)
        a = cs.random_csym_matrix(n, rng, c)
        ak = a @ c.matrix
        np.testing.assert_allclose(ak, ak.T, atol=1e-10)
        assert cs.is_c_selfadjoint(cs.from_matrix(a), c)


def test_restriction_is_symmetric_not_selfadjoint(rng):
    spec = cs.random_restriction(5, seed=11)
    rel, c = spec.relation(), spec.conjugation()
    assert cs.is_c_symmetric(rel, c)
    assert not cs.is_c_selfadjoint(rel, c)


def test_weak_form_residual_tracks_predicate(rng):
    c = cs.entrywise_conjugation(3)
    sym = cs.from_matrix(cs.random_symmetric(3, rng))
    assert cs.weak_c_symmetry_residual(sym, c) <= 1e-10
    asym = cs.from_matrix(random_complex(rng, 3, 3) + np.diag([5.0, 0, 0]))
    if not cs.is_c_symmetric(asym, c):
        assert cs.weak_c_symmetry_residual(asym, c) > 1e-8


def test_adjoint_pair_relations(rng):
    spec = cs.zero_on_subspace(4)
    dp = spec.doubled()
    # B = CAC and the adjoint pair inclusions
    assert within(dp.b, dp.a.conjugated(dp.c), 1e-10, equal=True)
    assert within(dp.b, dp.a_star, 1e-10)
    assert within(dp.a, dp.b_star, 1e-10)
    # conjugating the adjoint gives the adjoint of the conjugate
    assert within(dp.b_star, dp.a_star.conjugated(dp.c), 1e-10, equal=True)
    assert within(dp.b_star, dp.b.adjoint(), 1e-10, equal=True)


def test_m_spaces_two_path_identity():
    # frakM first components = N(I + A*B*), both computed independently
    for spec in (cs.minimal_identity(), cs.zero_on_subspace(4), cs.random_restriction(6, seed=3)):
        dp = spec.doubled()
        spaces = cs.m_spaces(dp)
        n = dp.ambient_dim
        first = cs.orthonormal_basis(dp.frakM.basis[:n], ambient_dim=n)
        assert within(spaces.m_bstar, first, 1e-9, equal=True)
        # frakM orthogonal to graph(A) inside graph(B*)
        if dp.frakM.dim and dp.a.graph.dim:
            overlap = np.abs(dp.a.graph.basis.conj().T @ dp.frakM.basis).max()
            assert overlap <= 1e-10
        total = cs.subspace_sum(dp.a.graph, dp.frakM)
        assert within(total, dp.b_star, 1e-9, equal=True)


# every shipped fixture at n=16, and race at the default h over a sweep of n
M_SPACE_SPECS = (
    *(build(n=16) for build in EXAMPLE_BUILDERS.values()),
    *(cs.race_schrodinger(n) for n in range(8, 33, 2)),
)


@pytest.mark.parametrize("spec", M_SPACE_SPECS, ids=lambda s: f"{s.name}_n{s.dim}")
def test_m_spaces_frakM_prime_matches_the_orthogonal_difference(spec):
    # frakM' = J frakM, J(x, y) = (y, -x), against graph(A*) - graph(B)
    # by its own SVD: the same subspace, both ways
    dp = spec.doubled()
    mine, oracle = dp.spaces.frakM_prime, frakM_prime_oracle(dp)
    assert mine.dim == oracle.dim == dp.frakM.dim
    assert max(cs.max_angle_sin(mine, oracle), cs.max_angle_sin(oracle, mine)) <= 1e-12


def test_m_spaces_trivial_for_selfadjoint(rng):
    c = cs.entrywise_conjugation(3)
    dp = cs.build_doubled(cs.from_matrix(cs.random_symmetric(3, rng)), c)
    assert dp.frakM.dim == 0
    assert cs.m_spaces(dp).m_bstar.dim == 0


def test_m_spaces_requires_symmetry(rng):
    c = cs.entrywise_conjugation(2)
    bad = cs.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(cs.InputError):
        cs.m_spaces(cs.build_doubled(bad, c))


def test_anti_involution_square_and_invariance():
    spec = cs.zero_on_subspace(4)
    dp = spec.doubled()
    s = cs.anti_involution(dp)
    frak_m = dp.frakM
    # S^2 = -I on frakM and S frakM = frakM
    for v in frak_m.basis.T:
        np.testing.assert_allclose(s.apply(s.apply(v)), -v, atol=1e-10)
        assert within(s.apply(v), frak_m, 1e-9)
    # S is anti-isometric on pairs
    u, w = frak_m.basis[:, 0], frak_m.basis[:, -1]
    assert cs.inner(s.apply(u), s.apply(w)) == pytest.approx(cs.inner(w, u), abs=1e-10)


@pytest.mark.parametrize(
    "spec", [*DEFECT_SPECS, cs.random_restriction(9, seed=7), cs.random_restriction(12, seed=3)], ids=lambda s: s.name
)
def test_anti_involution_square_residual_matches_the_dense_product(spec):
    # anti_involution checks S^2 = -I as S(S(M)) + M on frakM's basis M; the
    # dense S conj(S) it no longer forms is the oracle
    dp = spec.doubled()
    s, m = dp.s_map, dp.frakM.basis
    columnwise = np.abs(s.apply(s.apply(m)) + m).max()
    dense = np.abs(s.matrix @ np.conj(s.matrix) @ m + m).max()
    assert abs(columnwise - dense) <= 8 * np.finfo(float).eps


def test_anti_involution_square_check_fails_without_conjugating(monkeypatch):
    # mutation: S applied as the linear map x -> S x.  For a K that is not
    # real, S S = -diag(K K, K K) is not -I on frakM; the invariance check
    # reads S's matrix and still passes
    dp = cs.random_restriction(9, seed=7).doubled()
    monkeypatch.setattr(cs.AntiLinearMap, "apply", lambda self, x: self.matrix @ np.asarray(x, dtype=complex))
    with pytest.raises(cs.PropertyViolationError, match="S\\^2 = -I fails"):
        cs.anti_involution(dp)


def test_domain_criterion_on_extension():
    spec = cs.minimal_identity()
    rel, c = spec.relation(), spec.conjugation()
    dp = cs.build_doubled(rel, c)
    res = cs.canonical_extension(dp)
    if res.a_ext.is_operator:
        assert cs.domain_criterion(res.a_ext, rel, c)
    # the full adjoint is too large to satisfy the criterion
    assert not cs.domain_criterion(rel.adjoint(), rel, c)


def _lifted_sweep(example, n):
    """(dp, Omega, L, graph(A) + M L) for every candidate L of the budget-200
    sweep at seed 0, L orthonormalized in frakM coordinates, M the sweep's
    basis of frakM and Omega S's matrix in it."""
    spec = cs.build_example(example, n=n)
    dp = cs.build_doubled(spec.relation(), spec.conjugation())
    frak_m, w = cs.extensions._sweep_frame(dp)
    for stack, lost in cs.extensions._sweep_candidates(dp, frak_m, w, 200, 0):
        for l_coords in stack[~lost]:
            span = cs.orthonormal_basis(l_coords, dp.tol, frak_m.dim).basis
            graph = cs.Subspace(np.hstack([dp.a.graph.basis, frak_m.basis @ span]), dp.tol)
            yield dp, w, span, cs.LinearRelation(graph)


def test_selfadjoint_predicate_agrees_with_adjoint_route_on_sweep():
    # every candidate of the brute-force sweep, hits and misses: the frakM
    # residual that filters candidates is a block of the direct adjoint-gap
    # matrix, so it never exceeds the direct gap, and the direct test agrees
    # with the definition CAC = A* with both sides built
    verdicts = []
    fixtures = (
        ("race_schrodinger", 16),
        ("zero_on_subspace", 16),
        ("fd_derivative_minimal", 16),
        ("race_schrodinger", 32),
    )
    for example, n in fixtures:
        for dp, w, span, cand in _lifted_sweep(example, n):
            direct = cand.adjoint_gap(cand.conjugated_basis(dp.c))
            assert cs.linalg._spectral_norm(cs.extensions._omega_block(w, span)) <= direct + 1e-14
            fast = cs.is_c_selfadjoint(cand, dp.c)
            assert fast == cand.conjugated(dp.c).equals(cand.adjoint())
            verdicts.append(fast)
    assert len(verdicts) == 800
    assert 0 < sum(verdicts) < len(verdicts)


def test_sweep_residual_without_conj_fails(monkeypatch):
    # mutation: L^H W L instead of L^H W conj(L) is no block of the direct
    # gap matrix; it exceeds the direct gap and drops every hit
    def unconjugated(w, l_coords):
        return np.swapaxes(l_coords.conj(), -1, -2) @ w @ l_coords

    monkeypatch.setattr(cs.extensions, "_omega_block", unconjugated)
    above = [
        cs.linalg._spectral_norm(cs.extensions._omega_block(w, span))
        > cand.adjoint_gap(cand.conjugated_basis(dp.c)) + 1e-14
        for dp, w, span, cand in _lifted_sweep("race_schrodinger", 16)
    ]
    assert any(above)
    spec = cs.build_example("race_schrodinger", n=16)
    dp = cs.build_doubled(spec.relation(), spec.conjugation())
    assert len(cs.brute_force_extensions(dp, budget=200, seed=0)) != 57


def test_selfadjoint_needs_graph_dimension_n(rng):
    # the C-image lies in graph(A*) for the zero relation and for a
    # C-symmetric restriction, so only the dimension count rejects them
    c = cs.random_conjugation(4, rng)
    spec = cs.random_restriction(4, seed=11)
    for rel, conj in ((zero_relation(4), c), (spec.relation(), spec.conjugation())):
        assert rel.graph.dim != 4 and cs.is_c_symmetric(rel, conj)
        assert not cs.is_c_selfadjoint(rel, conj)
    assert not cs.is_c_selfadjoint(full_relation(4), c)


def test_selfadjoint_rejects_conjugation_of_other_dimension(rng):
    rel = cs.from_matrix(cs.random_symmetric(3, rng))
    with pytest.raises(cs.InputError):
        cs.is_c_selfadjoint(rel, cs.entrywise_conjugation(4))
    with pytest.raises(cs.InputError):
        cs.is_c_selfadjoint(zero_relation(3), cs.entrywise_conjugation(2))


def test_selfadjoint_builds_neither_conjugate_nor_adjoint(monkeypatch):
    spec = cs.random_csym(6)
    adjoints = count_calls(monkeypatch, cs.LinearRelation, "adjoint")
    conjugates = count_calls(monkeypatch, cs.LinearRelation, "conjugated")
    assert cs.is_c_selfadjoint(spec.relation(), spec.conjugation())
    assert (len(adjoints), len(conjugates)) == (0, 0)


def test_selfadjoint_fails_without_conjugating(monkeypatch):
    # mutation: C applied as the linear map K instead of x -> K conj(x)
    spec = cs.random_csym(6)
    rel, c = spec.relation(), spec.conjugation()
    assert cs.is_c_selfadjoint(rel, c)

    class LinearC:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def conj(x):
            return x

    monkeypatch.setattr(cs.relations, "np", LinearC())  # conjugated_basis applies C
    assert not cs.is_c_selfadjoint(rel, c)


def test_selfadjoint_fails_for_nonsymmetric_k(rng):
    # mutation: K times a unitary near I stays unitary but is not symmetric
    spec = cs.random_csym(6)
    rel, k = spec.relation(), spec.conjugation().matrix
    q, _ = np.linalg.qr(np.eye(6) + 1e-3 * random_complex(rng, 6, 6))
    perturbed = cs.AntiLinearMap(k @ q)
    assert cs.conjugation_axiom_residuals(perturbed.matrix)[1] > 1e-5
    assert not cs.is_c_selfadjoint(rel, perturbed)


def test_domain_criterion_fails_without_conjugating(monkeypatch, rng):
    # mutation: C D(T) taken as the linear image K D(T).  No operator input
    # shows it: D(A*) is C^n, so the criterion holds iff dim D(A) = n, with
    # or without np.conj.  The relation T = D x C(D^perp) under a random
    # conjugation is C-self-adjoint with the complex domain D != C^n
    n = 6
    c = cs.random_conjugation(n, rng)
    d = cs.orthonormal_basis(random_complex(rng, n, 2))
    e = c.map_subspace(cs.complement(d))
    graph = np.zeros((2 * n, n), dtype=complex)
    graph[:n, :2], graph[n:, 2:] = d.basis, e.basis
    t = cs.LinearRelation(cs.Subspace(graph))
    assert cs.is_c_selfadjoint(t, c) and cs.domain_criterion(t, t, c) and not t.is_everywhere_defined
    monkeypatch.setattr(cs.Conjugation, "map_subspace", linear_map_subspace)
    assert not cs.domain_criterion(t, t, c)


@pytest.mark.parametrize("name", sorted(EXAMPLE_BUILDERS))
def test_domain_criterion_is_c_selfadjointness_on_operator_inputs(name):
    # every CLI input is an operator, so D(A*) = mul(A)^perp = C^n and the
    # criterion D(A*) = C D(A) holds iff dim D(A) = n: for a C-symmetric
    # input that is C-self-adjointness.  This is why check reports no
    # domain criterion; the extensions check it by domain_sum and
    # domain_sum_star
    for n in (6, 16):
        spec = cs.build_example(name, n=n)
        rel, c = spec.relation(), spec.conjugation()
        assert rel.is_operator and rel.adjoint().domain().dim == n
        assert cs.is_c_symmetric(rel, c)
        assert cs.domain_criterion(rel, rel, c) == cs.is_c_selfadjoint(rel, c) == (rel.domain().dim == n)


@pytest.mark.xfail(strict=True, reason="D(A*) is read off A*'s top-block SVD, cut at eps (ROADMAP item 1)")
def test_adjoint_of_an_extreme_operator_is_everywhere_defined():
    # the 1 x 1 operator 1e308 has A* = 1e308 on C^1; the only singular value
    # of A*'s top block is about 1e-308 and the cut drops it
    rel = cs.from_matrix(np.array([[1e308]], dtype=complex))
    assert rel.adjoint().domain().dim == 1
