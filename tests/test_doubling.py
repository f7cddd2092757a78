"""Doubled operator, deficiency subspaces, decomposition reports."""

import dataclasses

import numpy as np
import pytest

import csymlab as cs

from conftest import (
    DEFECT_SPECS,
    block_relation,
    block_slices,
    frak_a,
    frak_a_star,
    imaginary_members,
    linear_map_subspace,
    random_complex,
    vn_oracle,
    within,
)


def doubled(spec):
    return cs.build_doubled(spec.relation(), spec.conjugation())


def test_block_relation_slices_roundtrip(rng):
    s = cs.from_matrix(random_complex(rng, 3, 3))
    t = cs.from_matrix(random_complex(rng, 3, 3))
    frak = block_relation(s, t)
    s2, t2 = block_slices(frak)
    assert within(s2, s, 1e-10, equal=True) and within(t2, t, 1e-10, equal=True)


def test_block_relation_acts_as_block_matrix(rng):
    a = random_complex(rng, 3, 3)
    b = random_complex(rng, 3, 3)
    frak = block_relation(cs.from_matrix(a), cs.from_matrix(b))
    x = random_complex(rng, 3)
    y = random_complex(rng, 3)
    # (x, y) -> (Ay, Bx), and not (Bx, Ay)
    assert frak.graph.contains_vector(np.concatenate([x, y, a @ y, b @ x]))
    assert not frak.graph.contains_vector(np.concatenate([x, y, b @ x, a @ y]))


def test_doubled_conjugation_swaps_components(rng):
    c = cs.random_conjugation(3, rng)
    frak_c = cs.doubled_conjugation(c)
    x, y = random_complex(rng, 3), random_complex(rng, 3)
    out = frak_c.apply(np.concatenate([x, y]))
    np.testing.assert_allclose(out[:3], c.apply(y), atol=1e-12)
    np.testing.assert_allclose(out[3:], c.apply(x), atol=1e-12)


def test_doubled_conjugation_has_the_axiom_residuals_of_c(rng):
    # frakE's Gram matrix is diag(K^H K, K^H K) and its transpose residual
    # is K's, so doubled_conjugation does not check them again: the dense
    # 2n x 2n residuals are the oracle, equal up to the rounding of the Gram
    # products on fixtures and random conjugations
    specs = (*DEFECT_SPECS, cs.minimal_identity(), cs.random_csym(6), cs.random_restriction(9, seed=7))
    conjugations = [spec.conjugation() for spec in specs]
    conjugations += [cs.random_conjugation(n, rng) for n in (1, 2, 3, 5, 17, 33, 64) for _ in range(3)]
    for c in conjugations:
        frak_c = cs.doubled_conjugation(c)
        assert isinstance(frak_c, cs.Conjugation) and not frak_c.matrix.flags.writeable
        unit, symm = cs.conjugation_axiom_residuals(c.matrix)
        frak_unit, frak_symm = cs.conjugation_axiom_residuals(frak_c.matrix)
        assert frak_symm == symm
        assert abs(frak_unit - unit) <= 4 * np.finfo(float).eps


def test_symmetry_equivalence(rng):
    # frakA and frakA* are the block forms of (A, B) and (B*, A*), so the
    # doubled angle is the one-space angle: A is C-symmetric iff frakA is
    # symmetric, on C-symmetric and non-symmetric inputs alike
    for trial in range(30):
        n = int(rng.integers(1, 6))
        c = cs.random_conjugation(n, rng)
        if trial % 2 == 0:
            a = cs.from_matrix(cs.random_csym_matrix(n, rng, c))
        else:
            a = cs.from_matrix(random_complex(rng, n, n))
        dp = cs.build_doubled(a, c)
        one_space = cs.max_angle_sin(dp.b.graph, dp.a_star.graph)
        doubled_angle = cs.max_angle_sin(frak_a(dp).graph, frak_a_star(dp).graph)
        assert abs(one_space - doubled_angle) <= 1e-14
        assert frak_a(dp).contained_in(frak_a_star(dp)) == cs.is_c_symmetric(a, c)


@pytest.mark.parametrize(
    "spec",
    [cs.race_schrodinger(16), cs.zero_on_subspace(4), cs.minimal_identity(), cs.random_restriction(5, seed=7)],
    ids=lambda spec: spec.name,
)
def test_block_form_adjoint_matches_built_adjoint(spec):
    dp = doubled(spec)
    assert within(frak_a_star(dp), frak_a(dp).adjoint(), 1e3 * np.finfo(float).eps, equal=True)


@pytest.mark.parametrize("mutation", ["swapped", "symmetric_part"])
def test_build_doubled_rejects_wrong_block_adjoint(monkeypatch, mutation):
    # mutations of the block form of frakA* = block(B*, A*) at the guard that
    # decides it on the one-space graphs: A* and B* swapped (a positive
    # adjoint gap), or B and A in their places, which gives frakA itself,
    # inside frakA* with gap 0 but of too small a dimension
    spec = cs.race_schrodinger(16)
    original = cs.doubling._require_block_adjoint

    def mutated(a, b, s, t):
        # build_doubled passes frakA = block(A, B) and frakA* = block(B*, A*)
        s, t = (t, s) if mutation == "swapped" else (a, b)
        return original(a, b, s, t)

    monkeypatch.setattr(cs.doubling, "_require_block_adjoint", mutated)
    with pytest.raises(cs.PropertyViolationError, match="adjoint of the doubled relation") as info:
        doubled(spec)
    assert (info.value.residuals["angle"] > 1e-3) == (mutation == "swapped")


def test_frakE_checks_fail_without_conjugating(monkeypatch):
    # mutation: C applied as the linear map x -> Kx to every graph but those
    # of A and A*, so B = CAC and B* = CA*C stay true while the frakE guard
    # and the extension check take linear images
    spec = cs.race_schrodinger(16)
    dp = doubled(spec)
    param = cs.canonical_extension(dp).parameter
    original = cs.LinearRelation.conjugated_basis

    def linear(self, c):
        if self is dp.a or self is dp.a_star:
            return original(self, c)
        n = self.ambient_dim
        g = self.graph.basis
        return np.vstack([c.matrix @ g[:n], c.matrix @ g[n:]])

    monkeypatch.setattr(cs.LinearRelation, "conjugated_basis", linear)
    with pytest.raises(cs.PropertyViolationError, match="frakE frakA frakE = frakA fails"):
        doubled(spec)
    res = cs.extension_from_parameter(dp, param)
    assert {c.name: c.status for c in res.checks}["doubled_frakE_selfadjoint"] == "fail"


@pytest.mark.parametrize("spec", [cs.race_schrodinger(16), cs.random_restriction(8, seed=1)], ids=lambda s: s.name)
def test_b_star_without_conjugating_fails_the_doubled_guard(monkeypatch, spec):
    # mutation: B* = C A* C taken as the linear image (K X; K Y) of A*'s
    # basis [X; Y].  Both inputs are complex, so that image is not the
    # adjoint of B and the block form of frakA* fails its adjoint gap
    a = spec.relation()
    a_star = a.adjoint()
    original = cs.LinearRelation.conjugated_basis

    def linear(self, c):
        if self is not a_star:
            return original(self, c)
        n = self.ambient_dim
        g = self.graph.basis
        return np.vstack([c.matrix @ g[:n], c.matrix @ g[n:]])

    monkeypatch.setattr(cs.LinearRelation, "conjugated_basis", linear)
    with pytest.raises(cs.PropertyViolationError, match="adjoint of the doubled relation") as info:
        cs.build_doubled(a, spec.conjugation())
    assert info.value.residuals["angle"] > 1e-3


@pytest.mark.parametrize("wrong_slot", [False, True], ids=["true_adjoint", "random_a_star_slot"])
@pytest.mark.parametrize(
    "spec", [*DEFECT_SPECS, cs.random_restriction(8, seed=1)], ids=lambda spec: spec.name
)
def test_doubled_gap_blocks_match_the_whole_gap(spec, wrong_slot):
    # oracle: the 2n-row blocks A._gap_matrix(graph(A*)) and
    # B._gap_matrix(graph(B*)) that build_doubled's guard decides on are the
    # nonzero blocks of the whole 4n-row gap matrix of frakA against
    # block(B*, A*), up to rounding, and give its yes/no and its angle, for
    # the true frakA* and for one whose A* slot is a random relation of the
    # same dimension
    dp = doubled(spec)
    t = dp.a_star
    if wrong_slot:
        rng = np.random.default_rng(0)
        t = cs.LinearRelation(cs.orthonormal_basis(random_complex(rng, 2 * dp.ambient_dim, t.graph.dim)))
    whole = frak_a(dp)._gap_matrix(block_relation(dp.b_star, t).graph.basis)
    blocks = dp.a._gap_matrix(t.graph.basis), dp.b._gap_matrix(dp.b_star.graph.basis)
    d, k = dp.a.graph.dim, dp.b_star.graph.dim
    rounding = 8 * np.finfo(float).eps
    assert np.abs(whole[:d, k:] - blocks[0]).max() <= rounding
    assert np.abs(whole[d:, :k] - blocks[1]).max() <= rounding
    assert not whole[:d, :k].any() and not whole[d:, k:].any()
    bound = dp.tol.bound()
    assert cs.linalg._norm_within(whole, bound) == (not wrong_slot)
    angle = max(cs.linalg._spectral_norm(m) for m in blocks)
    assert abs(angle - cs.linalg._spectral_norm(whole)) <= rounding * max(1.0, angle)
    if not wrong_slot:
        cs.doubling._require_block_adjoint(dp.a, dp.b, dp.b_star, t)
        return
    with pytest.raises(cs.PropertyViolationError, match="adjoint of the doubled relation") as info:
        cs.doubling._require_block_adjoint(dp.a, dp.b, dp.b_star, t)
    assert info.value.residuals["angle"] == angle


def test_frozen_deficiency_dims():
    assert doubled(cs.minimal_identity()).n_plus.dim == 2
    assert doubled(cs.zero_on_subspace(4)).n_plus.dim == 4
    assert doubled(cs.race_schrodinger(16)).n_plus.dim == 4
    # everywhere-defined C-self-adjoint matrices have no defect
    assert doubled(cs.random_csym(5, seed=2)).n_plus.dim == 0


def test_deficiency_report_checks():
    for spec in (cs.minimal_identity(), cs.zero_on_subspace(4), cs.race_schrodinger(8)):
        dp = doubled(spec)
        checks = cs.deficiency(dp)
        assert checks.all_pass, checks.to_list()
        assert dp.n_plus.dim == dp.n_minus.dim
        image = dp.frakC.map_subspace(dp.n_plus)
        assert within(image, dp.n_minus, 1e-9, equal=True)


def test_deficiency_rejects_nonsymmetric():
    c = cs.entrywise_conjugation(2)
    dp = cs.build_doubled(cs.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])), c)
    with pytest.raises(cs.InputError):
        cs.deficiency(dp)


def test_imaginary_members_on_explicit_relation():
    # graph of multiplication by i in C^1: the +i members are everything
    rel = cs.from_matrix(np.array([[1j]]))
    plus, minus = imaginary_members(rel)
    assert (plus.dim, minus.dim) == (1, 0)
    assert within(plus, np.array([1.0, 1j]), 1e-14)


def _nonsymmetric_spec():
    # a random matrix restricted to a 3-dimensional domain in C^6: not
    # C-symmetric, with frakM of dimension 6
    rng = np.random.default_rng(5)
    domain = np.linalg.qr(random_complex(rng, 6, 3))[0]
    images = random_complex(rng, 6, 6) @ domain
    return cs.ProblemSpec("nonsymmetric", 6, "entrywise", None, domain, images, cs.DEFAULT_TOL)


ORACLE_SPECS = [
    cs.race_schrodinger(16, h=0.02),
    cs.race_schrodinger(32, h=0.02),
    cs.fd_derivative_minimal(16),
    cs.zero_on_subspace(8),
    *(cs.random_restriction(8, seed=seed) for seed in range(4)),
    _nonsymmetric_spec(),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda spec: spec.name)
def test_deficiency_spaces_match_imaginary_members_of_frakA_star(spec):
    # N+- are read off frakM; the oracle intersects graph(frakA*) with the
    # graphs of +-i in C^(4n) and keeps the first blocks.  The identity needs
    # no C-symmetry, so the non-symmetric input is covered too
    dp = doubled(spec)
    n2 = 2 * dp.ambient_dim
    assert dp.n_plus.dim > 0
    for mine, members in zip((dp.n_plus, dp.n_minus), imaginary_members(frak_a_star(dp))):
        assert cs.subspace_equal(mine, cs.orthonormal_basis(members.basis[:n2], dp.tol, n2))


def _statuses(checks):
    return {check.name: check.status for check in checks}


def test_nplus_from_wrong_sign_fails_componentwise_characterization():
    # mutation: N+ built from (y, -ix) instead of (y, ix), (x, y) in frakM
    dp = doubled(cs.race_schrodinger(16, h=0.02))
    n = dp.ambient_dim
    m = dp.frakM.basis
    wrong = cs.Subspace(np.vstack([m[n:], -1j * m[:n]]), dp.tol)
    assert _statuses(cs.deficiency(dp))["componentwise_characterization"] == "pass"
    status = _statuses(cs.deficiency(dataclasses.replace(dp, n_plus=wrong)))
    assert status["componentwise_characterization"] == "fail"
    assert status["dim_nplus_equals_dim_nminus"] == "pass"


def test_c_image_checks_fail_without_conjugating(monkeypatch):
    # mutation: the trusted C-images drop np.conj.  race's potential is
    # complex, so N+, N- and the kernels are not real and the linear image
    # misses them; the entrywise C of real data (zero_on_subspace,
    # fd_derivative_minimal) would not notice
    dp = doubled(cs.race_schrodinger(16))
    assert _statuses(cs.deficiency(dp))["frakE_maps_nplus_onto_nminus"] == "pass"
    assert _statuses(cs.race_decomposition(dp).checks)["c_maps_kernels"] == "pass"
    monkeypatch.setattr(cs.Conjugation, "map_subspace", linear_map_subspace)
    assert _statuses(cs.deficiency(dp))["frakE_maps_nplus_onto_nminus"] == "fail"
    assert _statuses(cs.race_decomposition(dp).checks)["c_maps_kernels"] == "fail"


def test_frakM_missing_a_column_fails_the_von_neumann_count(monkeypatch):
    # mutation: frakM loses its last basis column, so N+ and N- still have
    # equal dimensions, one short of (dim graph(frakA*) - dim graph(frakA))/2
    original = cs.linalg.orthogonal_difference

    def short(s1, s2):
        full = original(s1, s2)
        return cs.Subspace(full.basis[:, :-1], full.tol)

    monkeypatch.setattr(cs.doubling, "orthogonal_difference", short)
    dp = doubled(cs.race_schrodinger(16, h=0.02))
    status = _statuses(cs.deficiency(dp))
    assert status["dim_nplus_equals_dim_nminus"] == "fail"
    assert status["componentwise_characterization"] == "pass"


def _unpadded_difference(s1, s2):
    """orthogonal_difference without the zero cosines of the directions of S1
    that S2^H S1 has no singular value for (dim S2 < dim S1)."""
    _, cosines, vh = np.linalg.svd(s2.basis.conj().T @ s1.basis)
    outside = cosines <= s1.tol.zero_cutoff(1.0)
    return cs.linalg._trusted(s1.basis @ vh[: cosines.size][outside].conj().T, s1.tol)


@pytest.mark.parametrize("kernel", [cs.intersect, _unpadded_difference], ids=["cut_on_sines", "unpadded"])
@pytest.mark.parametrize("spec", [*DEFECT_SPECS, cs.race_schrodinger(16, h=0.02)], ids=lambda s: s.name)
def test_frakM_kernel_mutations_fail_the_von_neumann_count(monkeypatch, kernel, spec):
    # mutation: frakM cut on sines (graph(B*) cap graph(A) = graph(A)) or
    # missing the directions of graph(B*) beyond dim graph(A)
    monkeypatch.setattr(cs.doubling, "orthogonal_difference", kernel)
    assert _statuses(cs.deficiency(doubled(spec)))["dim_nplus_equals_dim_nminus"] == "fail"


def test_vn_oracle_operator_regime(rng):
    # the 4n-row oracle on a symmetric everywhere-defined matrix, not a
    # doubled one: zero defect, checks exact
    h = cs.random_symmetric(4, rng)
    h = cs.from_matrix(h + np.conj(h.T))  # hermitian
    rep = vn_oracle(h.adjoint())
    assert rep.regime == "operator"
    assert rep.checks.all_pass
    assert rep.subspaces["n_hat_plus"].dim == 0


def test_vn_decomposition_with_defect():
    # doubled minimal identity: symmetric with defect (2, 2)
    dp = doubled(cs.minimal_identity())
    rep = cs.vn_decomposition(dp)
    assert rep.checks.all_pass, rep.checks.to_list()
    assert rep.subspaces["n_plus"].dim == 2
    assert rep.subspaces["n_minus"].dim == 2
    assert frak_a(dp).graph.dim + 4 == frak_a_star(dp).graph.dim


def test_vn_decomposition_relation_regime_measures_independence():
    # F_zero doubled: adjoint is multivalued, domain form degrades honestly
    dp = doubled(cs.zero_on_subspace(4))
    rep = cs.vn_decomposition(dp)
    assert rep.regime == "relation"
    assert rep.checks.all_pass
    assert rep.measurements["eigenspace_sum_direct"] is False
    skipped = [c.name for c in rep.checks if c.status == "skip"]
    assert "domain_decomposition" in skipped


def test_vn_rejects_nonsymmetric():
    with pytest.raises(cs.InputError):
        cs.vn_decomposition(doubled(_nonsymmetric_spec()))


VN_ORACLE_SPECS = [
    *(cs.build_example(name, n=16) for name in sorted(cs.fixtures.EXAMPLE_BUILDERS)),
    *(cs.race_schrodinger(n) for n in (8, 24, 26, 28, 32)),
]


@pytest.mark.parametrize("spec", VN_ORACLE_SPECS, ids=lambda spec: spec.name)
def test_vn_decomposition_matches_the_4n_row_oracle(spec):
    # oracle: the generic von Neumann decomposition of frakA on its 4n-row
    # bases (intersects with the graphs of +-i in C^(4n), kernel_one_plus of
    # frakA* with itself).  The block-pair form reports the same regime,
    # checks, statuses and details, and every residual of both lies within
    # the bound; race n=24 and 26 fail the kernel split in both
    dp = doubled(spec)
    mine = cs.vn_decomposition(dp)
    oracle = vn_oracle(frak_a(dp), frak_a_star(dp))
    assert mine.regime == oracle.regime
    rows = [[(c.name, c.status, c.detail) for c in rep.checks] for rep in (mine, oracle)]
    assert rows[0] == rows[1]
    bound = dp.tol.bound()
    assert all(c.residual <= bound for rep in (mine, oracle) for c in rep.checks if c.residual is not None)
    assert mine.measurements == oracle.measurements
    assert mine.subspaces["kernel_sq"].dim == oracle.subspaces["kernel_sq"].dim


def _vn_failures(dp):
    """The failing checks of vn_decomposition on dp."""
    checks = cs.vn_decomposition(dp).checks
    return {name for name, status in _statuses(checks).items() if status == "fail"}


def _turned(basis, towards):
    """basis with its first column turned by 0.1 rad towards the unit vector
    `towards`, orthogonal to every column of basis."""
    b = basis.copy()
    b[:, 0] = np.cos(0.1) * b[:, 0] + np.sin(0.1) * towards
    return b


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_vn_member_orthogonal_to_graph_catches_a_tilted_member(sign):
    # mutation: one column w of N+- turned towards a unit d orthogonal to
    # N+-.  d = (g_x, -+i g_y) for a column g = (g_x, g_y) of graph(B), so
    # the (x, u) block (d_x, +-i d_y) of (d, +-id) is g: the N_hat member
    # (w, +-iw)/sqrt(2) leans into graph(frakA), and w leaves
    # N((T*)^2 + I), so the kernel split fails with it.  d is orthogonal to
    # N+- = [Y; +-iX] because JM = [Y; -X] is orthogonal to graph(B),
    # M = [X; Y] frakM's basis
    dp = doubled(cs.race_schrodinger(16))
    assert _vn_failures(dp) == set()
    n = dp.ambient_dim
    g = dp.b.graph.basis[:, 0]
    unit = 1j if sign == "plus" else -1j
    towards = np.concatenate([g[:n], -unit * g[n:]])
    space = dp.n_plus if sign == "plus" else dp.n_minus
    assert np.abs(space.basis.conj().T @ towards).max() <= 1e-12
    tilted = cs.Subspace(_turned(space.basis, towards), dp.tol)
    mutated = dataclasses.replace(dp, **{f"n_{sign}": tilted})
    assert _vn_failures(mutated) == {f"graph_orth_t_nhat_{sign}", "kernel_splits_into_eigenspace_members"}


def test_vn_members_orthogonal_to_each_other_catches_a_tilted_member(monkeypatch):
    # mutation: N_hat_plus's first column turned towards N_hat_minus's, in
    # both row blocks; the graph sums and N+- keep their spans, so this
    # check alone fails
    dp = doubled(cs.race_schrodinger(16))
    original = cs.doubling._imaginary_pair
    minus = original(dp.n_minus.basis, -1)

    def tilted(w, sign):
        pair = original(w, sign)
        if sign < 0:
            return pair
        # the first columns of the two blocks are one unit column of C^(4n)
        return tuple(_turned(block, other[:, 0]) for block, other in zip(pair, minus))

    monkeypatch.setattr(cs.doubling, "_imaginary_pair", tilted)
    assert _vn_failures(dp) == {"graph_orth_nhat_plus_minus"}


def test_vn_decomposition_catches_a_short_graph_sum(monkeypatch):
    # mutation: the graph-level sums graph(A) + M and graph(B) + JM, built
    # once by m_spaces, lose their last direction; the kernel split sums N+
    # and N-, one level down, and keeps its own
    dp = doubled(cs.race_schrodinger(16))
    subspace_sum = cs.csym.subspace_sum

    def short(s1, s2):
        total = subspace_sum(s1, s2)
        return cs.Subspace(total.basis[:, :-1]) if s1 is dp.a.graph or s1 is dp.b.graph else total

    monkeypatch.setattr(cs.csym, "subspace_sum", short)
    assert _vn_failures(dp) == {"graph_decomposition_spans_adjoint"}


def test_vn_graph_sum_counts_catch_a_dependent_frakM_column():
    # mutation: frakM's basis repeats a column after N+- are built, so the
    # sums still span graph(B*) and graph(A*) but fall one short of
    # dim graph(A) + dim frakM: the dimension count alone refuses it
    dp = doubled(cs.race_schrodinger(16))
    m = dp.frakM.basis
    object.__setattr__(dp, "frakM", cs.linalg._trusted(np.hstack([m, m[:, :1]]), dp.tol))
    assert _vn_failures(dp) == {"graph_decomposition_spans_adjoint"}


def test_race_decomposition_fixture_measurements():
    spec = cs.zero_on_subspace(4)
    rep = cs.race_decomposition(cs.build_doubled(spec.relation(), spec.conjugation()))
    assert rep.regime == "relation"
    assert rep.checks.all_pass, rep.checks.to_list()
    # kernel dim 2 but 2 dim N+ = 8: the operator-regime count fails here,
    # which is why it is recorded as a measurement rather than asserted
    assert rep.measurements == {"dim_kernel": 2, "two_dim_nplus": 8}


def test_race_decomposition_operator_regime(rng):
    c = cs.random_conjugation(4, rng)
    a = cs.from_matrix(cs.random_csym_matrix(4, rng, c))
    rep = cs.race_decomposition(cs.build_doubled(a, c))
    assert rep.regime == "operator"
    assert rep.checks.all_pass
    assert rep.measurements["dim_kernel"] == 0


def test_race_corollary_detects_nonselfadjoint():
    spec = cs.random_restriction(5, seed=4)
    rep = cs.race_decomposition(cs.build_doubled(spec.relation(), spec.conjugation()))
    assert rep.measurements["dim_kernel"] > 0
    assert rep.checks.all_pass  # the corollary check passes because both sides agree


def _race_statuses(dp):
    return _statuses(cs.race_decomposition(dp).checks)


RACE_CHECKS = ("bstar_decomposition", "astar_decomposition", "c_maps_kernels", "selfadjointness_corollary")


def _race_failures_with_short_sum(field):
    """The failing RACE_CHECKS of race_schrodinger(16) after the M-spaces'
    sum `field` loses a direction, once the honest run passes them all."""
    dp = doubled(cs.race_schrodinger(16))
    assert set(_race_statuses(dp)[name] for name in RACE_CHECKS) == {"pass"}
    spaces = dp.spaces
    short = cs.linalg._trusted(getattr(spaces, field).basis[:, 1:], dp.tol)
    dp.__dict__["spaces"] = dataclasses.replace(spaces, **{field: short})
    status = _race_statuses(dp)
    return [name for name in RACE_CHECKS if status[name] == "fail"]


def test_race_decomposition_frakM_missing_a_column_fails_bstar_decomposition():
    # mutation: graph(A) + frakM, the sum m_spaces builds once for race and
    # vn, falls one short of graph(B*)
    assert _race_failures_with_short_sum("bstar_sum") == ["bstar_decomposition"]


def test_race_decomposition_frakM_prime_missing_a_column_fails_astar_decomposition():
    # mutation: graph(B) + frakM', frakM' = graph(A*) - graph(B), falls one
    # short of graph(A*)
    assert _race_failures_with_short_sum("astar_sum") == ["astar_decomposition"]


def _gap_only(a, c):
    """is_c_selfadjoint without its test dim graph(A) = n: the adjoint gap of
    C graph(A), which every C-symmetric A passes."""
    return cs.linalg._norm_within(a._gap_matrix(a.conjugated_basis(c)), a.tol.bound())


@pytest.mark.parametrize(
    "spec, regime, predicate",
    [(cs.race_schrodinger(16), "relation", _gap_only), (cs.random_csym(6), "operator", lambda a, c: False)],
    ids=["race_n16", "random_csym_n6"],
)
def test_race_corollary_fails_with_a_wrong_selfadjointness_predicate(monkeypatch, spec, regime, predicate):
    # mutation, in each regime: the restriction has a nonzero kernel and the
    # gap-only predicate calls it C-self-adjoint; the everywhere-defined
    # matrix has a zero kernel and the predicate denies it
    dp = doubled(spec)
    assert cs.race_decomposition(dp).regime == regime
    monkeypatch.setattr(cs.doubling, "is_c_selfadjoint", predicate)
    status = _race_statuses(dp)
    assert [name for name in RACE_CHECKS if status[name] == "fail"] == ["selfadjointness_corollary"]


def _csym_from_matrix_n5():
    rng = np.random.default_rng(0)
    c = cs.random_conjugation(5, rng)
    return cs.build_doubled(cs.from_matrix(cs.random_csym_matrix(5, rng, c)), c)


def _complex_symmetric_n32():
    m = cs.random_symmetric(32, np.random.default_rng([0, 2]))
    spec = cs.ProblemSpec("complex_symmetric_n32", 32, "entrywise", None, None, m, cs.DEFAULT_TOL)
    return doubled(spec)


@pytest.mark.parametrize(
    "build",
    [
        lambda: doubled(cs.random_csym(6)),
        lambda: doubled(cs.random_csym(64)),
        _complex_symmetric_n32,
        _csym_from_matrix_n5,
    ],
    ids=["random_csym_n6", "random_csym_n64", "complex_symmetric_n32", "from_matrix_n5"],
)
def test_operator_regime_has_no_defect(build):
    # why vn and race check no domain-level form in the operator regime: an
    # everywhere-defined C-symmetric A has CAC = A*, so frakA = frakA* and
    # every defect space is {0}
    dp = build()
    assert frak_a(dp).equals(frak_a_star(dp))
    vn = cs.vn_decomposition(dp)
    assert vn.regime == "operator"
    assert [vn.subspaces[name].dim for name in ("kernel_sq", "n_plus", "n_minus")] == [0, 0, 0]
    race = cs.race_decomposition(dp)
    assert race.regime == "operator"
    assert race.measurements == {"dim_kernel": 0, "two_dim_nplus": 0}
