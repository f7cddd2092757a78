"""Extension parameterization: forms, gates, completeness, L-manifolds."""

import json

import numpy as np
import pytest

import csymlab as cs
from csymlab.cli import main
from csymlab.extensions import (
    _closed_form_slices,
    _deficiency_span,
    _new_columns,
    block_condition_residual,
    frakE_condition_residual,
    parameter_as_unitary,
)

from conftest import (
    DEFECT_SPECS,
    block_relation,
    block_slices,
    bordered_doubled_residuals,
    cayley_oracle,
    completion_matrix,
    completion_oracle,
    count_calls,
    doubled_extension,
    frak_a,
    frakM_oracle,
    greedy_isotropic_oracle,
    hit_relations,
    nonblock_parameter,
    parameter_as_onb,
    random_complex,
    sample_parameters,
    svd_adjoint_graph,
    svd_sweep_frame,
    sweep_oracle,
    within,
)

FIXTURES = lambda: (
    cs.minimal_identity(),
    cs.zero_on_subspace(4),
    cs.race_schrodinger(8),
    cs.random_restriction(5, seed=7),
)


def doubled(spec):
    return cs.build_doubled(spec.relation(), spec.conjugation())


L_MANIFOLD_CHECKS = (
    "l_orthogonal_to_s_l",
    "l_plus_s_l_spans_frakM",
    "quotient_dimensions_equal",
    "domain_sum",
    "domain_sum_star",
)

DEFECT_FIXTURES = pytest.mark.parametrize("spec", DEFECT_SPECS, ids=lambda spec: spec.name)


def test_parameter_kind_validation():
    with pytest.raises(cs.InputError):
        cs.ExtensionParameter("weird", np.eye(2))
    with pytest.raises(cs.InputError):
        cs.ExtensionParameter("unitary", np.zeros(3))


@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
def test_parameter_rejects_nonfinite_entries(entry):
    # a NaN passes every "residual > bound" gate of parameter_as_unitary
    dp = doubled(cs.minimal_identity())
    k = dp.n_plus.dim
    with pytest.raises(cs.InputError, match="non-finite"):
        parameter_as_unitary(dp, cs.ExtensionParameter("unitary", np.full((k, k), entry)))


def test_unitary_form_shape_and_gates():
    dp = doubled(cs.minimal_identity())
    with pytest.raises(cs.InputError):
        parameter_as_unitary(dp, cs.ExtensionParameter("unitary", np.eye(3)))
    with pytest.raises(cs.InputError):
        parameter_as_unitary(dp, cs.ExtensionParameter("unitary", 2.0 * np.eye(2)))


def test_frakE_gate_rejects_generic_unitary():
    # a generic unitary N+ -> N- fails frakE U frakE U = I at the input gate
    dp = doubled(cs.minimal_identity())
    bad = cs.haar_unitary(2, np.random.default_rng(2))
    assert frakE_condition_residual(dp, bad) > 1e-2
    with pytest.raises(cs.InputError):
        parameter_as_unitary(dp, cs.ExtensionParameter("unitary", bad))


def test_extension_builders_refuse_a_non_unitary_parameter_first():
    # 2U fails unitarity and the frakE condition; both builders name
    # unitarity, which the round trip leaves to its Cayley kernel
    dp = doubled(cs.minimal_identity())
    u = 2.0 * cs.canonical_extension(dp).parameter.matrix
    for build in (cs.extension_from_parameter, cs.extension_graph):
        with pytest.raises(cs.InputError, match="does not give a unitary map"):
            build(dp, cs.ExtensionParameter("unitary", u))


def test_phase_twist_keeps_frakE_but_breaks_block():
    # the frakE condition is blind to a global phase (antilinear composition
    # cancels it) while the block condition picks up the squared phase:
    # the twisted parameter passes the input gate and fails downstairs
    dp = doubled(cs.minimal_identity())
    u = cs.canonical_extension(dp).parameter.matrix
    twisted = np.exp(1j * np.pi / 4) * u
    assert frakE_condition_residual(dp, twisted) <= 1e-9
    assert block_condition_residual(dp, twisted) == pytest.approx(np.sqrt(2), abs=1e-9)
    errors = []
    for build in (cs.extension_from_parameter, cs.extension_graph):
        with pytest.raises(cs.PropertyViolationError) as info:
            build(dp, cs.ExtensionParameter("unitary", twisted))
        errors.append((str(info.value), info.value.residuals))
    assert errors[0] == errors[1]
    assert "D U D U = I fails" in errors[0][0]


def test_negated_parameter_is_also_admissible():
    dp = doubled(cs.minimal_identity())
    u = cs.canonical_extension(dp).parameter.matrix
    res = cs.extension_from_parameter(dp, cs.ExtensionParameter("unitary", -u))
    assert res.checks.all_pass


def test_block_condition_counterexample_raises():
    # i J0 passes the frakE gate by construction but its doubled extension
    # is not block: this separates the two admissibility conditions at
    # relation regime
    for spec in (cs.zero_on_subspace(4), cs.minimal_identity()):
        dp = doubled(spec)
        p = nonblock_parameter(dp)
        u = parameter_as_unitary(dp, p)  # frakE gate passes
        assert block_condition_residual(dp, u) > 1e-2
        with pytest.raises(cs.PropertyViolationError) as info:
            cs.extension_from_parameter(dp, p)
        assert info.value.residuals["block_condition"] > 1e-2
        assert info.value.residuals["frakE_condition"] <= 1e-9


@pytest.mark.parametrize(
    "spec",
    [
        cs.race_schrodinger(16),
        cs.fd_derivative_minimal(16),
        cs.zero_on_subspace(8),
        cs.random_csym(8, seed=3),  # C-self-adjoint: frakM = 0, k = 0
    ],
    ids=lambda spec: spec.name,
)
def test_closed_form_matches_verified_extension(spec):
    dp = doubled(spec)
    bound = 1e3 * np.finfo(float).eps
    for p in sample_parameters(dp, 4, seed=4):
        closed = cs.extension_graph(dp, p).graph
        full = cs.extension_from_parameter(dp, p).a_ext.graph
        assert closed.dim == full.dim == dp.a.graph.dim + dp.n_plus.dim // 2
        assert cs.max_angle_sin(closed, full) <= bound
        assert cs.max_angle_sin(full, closed) <= bound


@DEFECT_FIXTURES
def test_extension_basis_begins_with_graph_a(spec):
    # the extension is grown from graph(A) by extend_basis, which keeps
    # graph(A)'s basis as its first columns, so A is contained in every
    # extension by construction and no check of that containment can fail
    dp = doubled(spec)
    d = dp.a.graph.dim
    params = [cs.canonical_extension(dp, swap=swap).parameter for swap in (False, True)]
    for p in params + sample_parameters(dp, 3, seed=3):
        res = cs.extension_from_parameter(dp, p)
        np.testing.assert_array_equal(res.a_ext.graph.basis[:, :d], dp.a.graph.basis)


def test_three_forms_produce_identical_graphs():
    for spec in FIXTURES():
        dp = doubled(spec)
        for p in sample_parameters(dp, 5, seed=1):
            graphs = []
            for form in (
                p,
                parameter_as_onb(dp, p),
                cs.ExtensionParameter("unitary", parameter_as_unitary(dp, p)),
            ):
                graphs.append(cs.extension_from_parameter(dp, form).a_ext.graph)
            assert within(graphs[0], graphs[1], 1e-9, equal=True)
            assert within(graphs[0], graphs[2], 1e-9, equal=True)


def test_extension_soundness_on_fixtures():
    for spec in FIXTURES():
        dp = doubled(spec)
        for p in sample_parameters(dp, 6, seed=2):
            res = cs.extension_from_parameter(dp, p)
            assert res.checks.all_pass, (spec.name, res.checks.to_list())
            assert within(dp.a, res.a_ext, 1e-9)
            assert within(res.a_ext.conjugated(dp.c), res.a_ext.adjoint(), 1e-9, equal=True)


def test_canonical_extension_and_swap():
    dp = doubled(cs.zero_on_subspace(4))
    plain = cs.canonical_extension(dp)
    swapped = cs.canonical_extension(dp, swap=True)
    assert plain.checks.all_pass and swapped.checks.all_pass
    assert not plain.a_ext.equals(swapped.a_ext)
    # both are midpoints between A and B*
    for res in (plain, swapped):
        assert res.a_ext.graph.dim == dp.a.graph.dim + dp.n_plus.dim // 2 + (dp.n_plus.dim % 2)


def test_canonical_extension_selfadjoint_input():
    dp = doubled(cs.random_csym(4, seed=9))
    res = cs.canonical_extension(dp)
    assert within(res.a_ext, dp.a, 1e-10, equal=True)
    assert res.parameter.matrix.shape == (0, 0)


def test_canonical_extension_deterministic():
    dp = doubled(cs.race_schrodinger(8))
    g1 = cs.canonical_extension(dp).a_ext.graph
    g2 = cs.canonical_extension(dp).a_ext.graph
    np.testing.assert_array_equal(g1.basis, g2.basis)


def test_recover_parameter_roundtrip():
    for spec in FIXTURES():
        dp = doubled(spec)
        res = cs.canonical_extension(dp)
        p = cs.recover_parameter(dp, res.a_ext)
        rebuilt = cs.extension_from_parameter(dp, p)
        assert within(rebuilt.a_ext, res.a_ext, 1e-9, equal=True)
        np.testing.assert_allclose(p.matrix, res.parameter.matrix, atol=1e-9)


def test_recover_parameter_rejects_non_extensions():
    spec = cs.minimal_identity()
    dp = doubled(spec)
    with pytest.raises(cs.InputError):
        cs.recover_parameter(dp, dp.b_star)  # contains A but not C-self-adjoint
    other = cs.from_matrix(np.diag([5.0, 5.0]).astype(complex))
    with pytest.raises(cs.InputError):
        cs.recover_parameter(dp, other)  # C-self-adjoint but does not extend A


def test_recover_parameter_refuses_another_ambient_dimension():
    # a relation on C^3 handed to a problem on C^2 is a caller mistake,
    # refused before any stacked product mixes the two dimensions
    dp = doubled(cs.minimal_identity())
    other = doubled(cs.race_schrodinger(8)).a
    assert other.ambient_dim != dp.ambient_dim
    with pytest.raises(cs.InputError, match="ambient dimensions differ"):
        cs.recover_parameter(dp, other)


def test_l_manifold_decomposition():
    for spec in FIXTURES():
        dp = doubled(spec)
        for swap in (False, True):
            res = cs.canonical_extension(dp, swap=swap)
            assert res.checks.all_pass, (spec.name, swap, res.checks.to_list())
            assert set(L_MANIFOLD_CHECKS) <= {c.name for c in res.checks}
            # the domain increment (second components of the deficiency
            # span) can be smaller than L when the extension picks up a
            # multivalued part; never larger
            n = dp.ambient_dim
            _, defect_cols = _deficiency_span(dp, res.parameter)
            l_dom = cs.orthonormal_basis(defect_cols[n : 2 * n], dp.tol, n)
            assert l_dom.dim <= res.a_ext.graph.dim - dp.a.graph.dim


def test_sample_parameters_deterministic_and_valid():
    dp = doubled(cs.zero_on_subspace(4))
    first = sample_parameters(dp, 4, seed=5)
    second = sample_parameters(dp, 4, seed=5)
    for p, q in zip(first, second):
        np.testing.assert_array_equal(p.matrix, q.matrix)
        assert p.kind == "conjugation"
        inv, symm = cs.conjugation_axiom_residuals(p.matrix)
        assert inv <= 1e-9 and symm <= 1e-9


def test_brute_force_f_min_members():
    # extensions of the identity on span{e1} in C^2 are diag(1, c) plus one
    # multivalued relation; the structured sweep must find the landmarks
    dp = doubled(cs.minimal_identity())
    hits = hit_relations(dp, cs.brute_force_extensions(dp, budget=2000, seed=0))
    assert len(hits) >= 4
    landmarks = [np.diag([1.0, 0.0]), np.diag([1.0, 1.0]), np.diag([1.0, 1j])]
    for m in landmarks:
        target = cs.from_matrix(m.astype(complex))
        assert any(within(h, target, 1e-9, equal=True) for h in hits), m
    assert any(not h.is_operator for h in hits)
    # every hit is a genuine extension that round-trips through the parameter
    for h in hits[:50]:
        p = cs.recover_parameter(dp, h)
        rebuilt = cs.extension_from_parameter(dp, p)
        assert within(rebuilt.a_ext, h, 1e-9, equal=True)


def test_brute_force_respects_cap_and_determinism(monkeypatch):
    dp = doubled(cs.minimal_identity())
    monkeypatch.setattr(cs.extensions, "MAX_HITS", 10)
    few = cs.brute_force_extensions(dp, budget=500, seed=3)
    assert few.shape == (10, 2 * dp.ambient_dim, dp.frakM.dim // 2)
    np.testing.assert_array_equal(few, cs.brute_force_extensions(dp, budget=500, seed=3))


@pytest.mark.parametrize("command", ["enumerate", "verify-all"])
def test_enumerate_skips_the_roundtrip_when_frakM_is_zero(capsys, command):
    # a C-self-adjoint input: the one hit is A itself and nothing is rebuilt,
    # so the round trip has nothing to test and says so instead of a 0.0
    # residual that cannot fail
    assert main([command, "--example", "random_csym", "--n", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    prefix = "enumerate" if command == "verify-all" else ""
    check = next(c for c in out["check_list"] if c["name"] == prefix + "completeness_roundtrip")
    assert check["status"] == "skip" and "frakM = 0" in check["detail"] and "residual" not in check
    assert out["all_pass"] is True
    results = out["results"]["enumerate"] if command == "verify-all" else out["results"]
    assert results["hits"] == 1


def test_brute_force_selfadjoint_input_returns_input():
    dp = doubled(cs.random_csym(3, seed=1))
    hits = cs.brute_force_extensions(dp, budget=50, seed=0)
    assert hits.shape == (1, 2 * dp.ambient_dim, 0)
    assert within(hit_relations(dp, hits)[0], dp.a, 1e-10, equal=True)
    assert cs.extensions.completeness_roundtrip(dp, hits) == (0.0, 1)  # A is an operator


def test_brute_force_lifts_only_distinct_survivors(monkeypatch):
    # the sweep decides in frakM coordinates: apart from its frame and its
    # pool, each built once per sweep, it runs no SVD with more than m rows,
    # and the direct test in C^(2n), on the new columns over graph(A), runs
    # once per distinct survivor (every survivor is a hit here)
    dp = doubled(cs.race_schrodinger(32))
    m = dp.frakM.dim
    assert dp.s_map  # the problem's cached geometry is built before counting
    svd = np.linalg.svd
    exempt, rows, built = [], [], []

    def counted_once(name):
        original = getattr(cs.extensions, name)

        def counted(*args):
            exempt.append(True)
            built.append(name)
            try:
                return original(*args)
            finally:
                exempt.pop()

        monkeypatch.setattr(cs.extensions, name, counted)

    def counted_svd(a, *args, **kwargs):
        if not exempt:
            rows.append(np.shape(a)[-2])  # a stack counts by its matrices' rows
        return svd(a, *args, **kwargs)

    counted_once("_sweep_frame")
    counted_once("_sweep_pool")
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    grown, direct = cs.extensions._c_selfadjoint_grown, []

    def counted_grown(dp, known_gap, w, images):
        direct.extend(w)  # a stack counts by its candidates
        return grown(dp, known_gap, w, images)

    monkeypatch.setattr(cs.extensions, "_c_selfadjoint_grown", counted_grown)
    hits = cs.brute_force_extensions(dp, budget=200, seed=0)
    assert rows and max(rows) <= m
    assert built == ["_sweep_frame", "_sweep_pool"]
    assert len(direct) == len(hits) == 93


def test_enumerate_decides_c_selfadjointness_once_per_hit(monkeypatch, capsys):
    # the sweep decides every hit on its new columns, and the round trip
    # takes that decision as made: 93 candidates at race n=32, all of them
    # tested before brute_force_extensions returns
    grown, brute_force, direct, at_return = cs.extensions._c_selfadjoint_grown, cs.cli.brute_force_extensions, [], []

    def counted_grown(dp, known_gap, w, images):
        direct.extend(w)
        return grown(dp, known_gap, w, images)

    def counted_brute_force(*args, **kwargs):
        hits = brute_force(*args, **kwargs)
        at_return.append(len(direct))
        return hits

    monkeypatch.setattr(cs.extensions, "_c_selfadjoint_grown", counted_grown)
    monkeypatch.setattr(cs.cli, "brute_force_extensions", counted_brute_force)
    assert main(["enumerate", "--example", "race_schrodinger", "--n", "32", "--budget", "200"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["hits"] == 93
    assert at_return == [len(direct)] == [93]


# fixtures with frakM of dimension 4 (race, fd, zero), 6 and 8
SWEEP_FIXTURES = (
    cs.race_schrodinger(16),
    cs.race_schrodinger(32),
    cs.fd_derivative_minimal(16),
    cs.zero_on_subspace(16),
    cs.random_restriction(10, seed=6),
    cs.random_restriction(9, seed=7),
)
SWEEP_SPECS = pytest.mark.parametrize("spec", SWEEP_FIXTURES, ids=lambda s: s.name)


# a random operator on the first 4 coordinates of C^6 under the entrywise
# conjugation: not C-symmetric, with frakM of dimension 4
NON_C_SYMMETRIC = cs.ProblemSpec(
    "non_c_symmetric",
    6,
    "entrywise",
    None,
    np.eye(6)[:, :4],
    random_complex(np.random.default_rng(5), 6, 4),
    cs.DEFAULT_TOL,
)


ORACLE_SPECS = pytest.mark.parametrize(
    "spec",
    [*DEFECT_SPECS, *SWEEP_FIXTURES, cs.race_schrodinger(128, h=0.02), NON_C_SYMMETRIC],
    ids=lambda s: s.name,
)


@ORACLE_SPECS
def test_frakM_spans_the_complement_formula(spec):
    # oracle: frakM, the complement of [graph(A), J graph(B)], spans the
    # complement formula's graph(B*) cap complement(graph(A)), the sweep's
    # frame.  Without C-symmetry that frame exists but frakM is not built
    dp = doubled(spec)
    frame = svd_sweep_frame(dp)
    assert frame.dim > 0
    if not dp.c_symmetric:
        with pytest.raises(cs.PreconditionError, match="not C-symmetric"):
            dp.frakM
        return
    assert within(dp.frakM, frame, dp.tol.bound(), equal=True) and within(frame, dp.frakM, dp.tol.bound())


@ORACLE_SPECS
def test_qr_adjoints_span_the_svd_complement(spec):
    # oracle: graph(R*) from the complete QR of J graph(R) spans the
    # complement of orthonormal_basis(J graph(R)), for A, for B = CAC and for
    # relations given by their graphs alone (frakA, and the canonical
    # extension where A is C-symmetric); B* = C A* C spans B's adjoint
    dp = doubled(spec)
    bound = dp.tol.bound()
    rels = [dp.a, dp.b, frak_a(dp)]
    if cs.is_c_symmetric(dp.a, dp.c):
        rels.append(cs.canonical_extension(dp).a_ext)
    for rel in rels:
        assert within(rel.adjoint(), svd_adjoint_graph(rel), bound, equal=True)
    assert within(dp.b_star, svd_adjoint_graph(dp.b), bound, equal=True)


@SWEEP_SPECS
def test_sweep_frame_keeps_the_bits_of_the_svd_chain(spec):
    # the sweep's hit counts depend on its frame's bits, which come from the
    # SVD chain of graph(B*), not from dp.b_star's QR and C-image
    dp = doubled(spec)
    frame, omega = cs.extensions._sweep_frame(dp)
    m = svd_sweep_frame(dp).basis
    assert np.array_equal(frame.basis, m)
    assert np.array_equal(omega, m.conj().T @ dp.s_map.matrix @ np.conj(m))


@SWEEP_SPECS
@pytest.mark.parametrize("budget", [200, 2000])
def test_stacked_sweep_matches_one_candidate_at_a_time(spec, budget):
    # the stacked SVDs, solves and filter run the LAPACK routine of one
    # candidate alone on each matrix: same candidates, masks and hits, bit for bit
    dp = doubled(spec)
    for seed in range(3):
        candidates, hit_bases = sweep_oracle(dp, budget, seed)
        stacks = list(cs.extensions._sweep_candidates(dp, *cs.extensions._sweep_frame(dp), budget, seed))
        stacked = np.concatenate([cols for cols, _ in stacks])
        lost = np.concatenate([mask for _, mask in stacks])
        assert lost.tolist() == [c is None for c in candidates]
        kept = [c for c in candidates if c is not None]
        assert all(np.array_equal(c, o) for c, o in zip(stacked[~lost], kept))
        hits = hit_relations(dp, cs.brute_force_extensions(dp, budget=budget, seed=seed))
        assert len(hits) == len(hit_bases)
        assert all(np.array_equal(h.graph.basis, o) for h, o in zip(hits, hit_bases))


@SWEEP_SPECS
@pytest.mark.parametrize("budget", [200, 2000])
def test_cayley_kernel_matches_the_dense_solve(spec, budget):
    # the k x k solve on each hit's new columns against the dense solve on
    # its whole doubled graph; recover_parameter reads the new columns of a
    # relation off extend_basis, so a hit whose basis is rotated by a random
    # unitary, and no longer begins with graph(A)'s basis, keeps its parameter
    dp = doubled(spec)
    new = cs.brute_force_extensions(dp, budget=budget, seed=0)
    us = cs.extensions._cayley_unitaries(dp, new, cs.relations._conjugated_graphs(new, dp.c.matrix))
    graphs = [hit.graph.basis for hit in hit_relations(dp, new)]
    for graph, u in zip(graphs, us):
        np.testing.assert_allclose(u, cayley_oracle(dp, graph)[0], rtol=0, atol=1e-12)
    n = dp.ambient_dim
    rotated = graphs[-1] @ np.linalg.qr(random_complex(np.random.default_rng(budget), n, n))[0]
    assert not np.array_equal(rotated[:, : dp.a.graph.dim], dp.a.graph.basis)
    u = cs.recover_parameter(dp, cs.LinearRelation(cs.Subspace(rotated))).matrix
    np.testing.assert_allclose(u, cayley_oracle(dp, rotated)[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(u, us[-1], rtol=0, atol=1e-12)


@SWEEP_SPECS
def test_grown_c_selfadjointness_matches_the_whole_gap(spec):
    # the n x n gap assembled from graph(A)'s block and the new columns'
    # against is_c_selfadjoint on the whole basis: hits pass; random
    # half-dimensional L in frakM (not Lagrangian) and random columns
    # orthogonal to graph(A) (outside frakM) fail, and the Cayley kernel
    # refuses them
    dp = doubled(spec)
    rng = np.random.default_rng(5)
    a, m = dp.a.graph.basis, dp.frakM.dim
    new = list(cs.brute_force_extensions(dp, budget=200, seed=0)[:6])
    for _ in range(6):
        new.append(dp.frakM.basis @ cs.orthonormal_basis(random_complex(rng, m, m // 2)).basis)
        new.append(cs.extend_basis(dp.a.graph, random_complex(rng, 2 * dp.ambient_dim, m // 2)).basis[:, a.shape[1] :])
    stack = np.stack(new)
    images = cs.relations._conjugated_graphs(stack, dp.c.matrix)
    grown = cs.extensions._c_selfadjoint_grown(dp, cs.extensions._known_gap(dp), stack, images)
    relations = [cs.LinearRelation(cs.Subspace(np.hstack([a, w]))) for w in new]
    assert grown.tolist() == [cs.is_c_selfadjoint(r, dp.c) for r in relations] == [True] * 6 + [False] * 12
    for relation in relations[6:8]:
        with pytest.raises(cs.PreconditionError, match="not C-self-adjoint"):
            cs.recover_parameter(dp, relation)


def test_grown_c_selfadjointness_reads_the_cross_blocks():
    # frakM of dimension 2: one new column w, whose own 1 x 1 block of the
    # antisymmetric gap vanishes, so only its blocks against graph(A)
    # refuse a w orthogonal to graph(A) outside frakM
    dp = doubled(cs.random_restriction(4, seed=0))
    assert dp.frakM.dim == 2
    a = dp.a.graph.basis
    w = cs.extend_basis(dp.a.graph, random_complex(np.random.default_rng(3), 2 * dp.ambient_dim, 1)).basis[:, -1:]
    images = cs.relations._conjugated_graphs(w, dp.c.matrix)
    assert abs(cs.csym._adjoint_gaps(w, images)).max() < 1e-15
    relation = cs.LinearRelation(cs.Subspace(np.hstack([a, w])))
    assert not cs.is_c_selfadjoint(relation, dp.c)
    assert not cs.extensions._c_selfadjoint_grown(dp, cs.extensions._known_gap(dp), w[None], images[None])[0]
    with pytest.raises(cs.PreconditionError, match="not C-self-adjoint"):
        cs.recover_parameter(dp, relation)


@SWEEP_SPECS
def test_stacked_greedy_matches_one_completion_at_a_time(spec):
    # the canonical L from e1, and the random stream one draw at a time
    dp = doubled(spec)
    m = dp.frakM.dim
    cols, lost = cs.extensions._greedy_isotropic(dp.omega, np.eye(1, m, dtype=complex), dp.tol)
    assert not lost[0] and np.array_equal(cols[0], greedy_isotropic_oracle(dp.omega, m, dp.tol))
    rng, oracle_rng = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(5):
        first = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        cols, lost = cs.extensions._greedy_isotropic(dp.omega, first[None], dp.tol, rng)
        oracle = greedy_isotropic_oracle(dp.omega, m, dp.tol, rng=oracle_rng)
        assert not lost[0] and np.array_equal(cols[0], oracle)


def _degenerate_firsts(rng, m):
    """Real and complex first vectors: under S conj(v) = conj(v) the real
    ones lose rank at once, the complex ones do not."""
    real = rng.standard_normal((3, m)).astype(complex)
    return np.concatenate([real, random_complex(rng, 3, m)])[[0, 3, 1, 4, 2, 5]]


def test_stacked_greedy_masks_what_loses_rank():
    # S conj(v) = conj(v) is no anti-involution: the oracle raises exactly
    # for the real first vectors, and the stack masks exactly those
    m = 6
    s_coord, tol = np.eye(m, dtype=complex), cs.DEFAULT_TOL
    firsts = _degenerate_firsts(np.random.default_rng(0), m)
    cols, lost = cs.extensions._greedy_isotropic(s_coord, firsts, tol)
    for v, c, masked in zip(firsts, cols, lost):
        try:
            expected = greedy_isotropic_oracle(s_coord, m, tol, first=v)
        except cs.PropertyViolationError:
            expected = None
        assert masked == (expected is None)
        assert masked or np.array_equal(c, expected)
    assert lost.tolist() == [True, False] * 3


def test_stacked_greedy_mask_needs_the_rank_cut(monkeypatch):
    # mutation: a stacked rank cut that keeps every column lets the
    # candidates that lost rank through as completed
    m = 6
    firsts = _degenerate_firsts(np.random.default_rng(0), m)
    ranked = cs.extensions._ranked_svd
    monkeypatch.setattr(
        cs.extensions, "_ranked_svd", lambda a, tol: (ranked(a, tol)[0], np.full(len(a), a.shape[-1]))
    )
    _, lost = cs.extensions._greedy_isotropic(np.eye(m, dtype=complex), firsts, cs.DEFAULT_TOL)
    assert not lost.any()


def test_brute_force_drops_masked_candidates(monkeypatch):
    # candidates masked as lost never become hits, although here their
    # columns are the honest completions: the hits are exactly those of the
    # unmasked candidates
    dp = doubled(cs.random_restriction(10, seed=6))
    honest = hit_relations(dp, cs.brute_force_extensions(dp, budget=200, seed=0))
    greedy = cs.extensions._greedy_isotropic

    def losing_every_other(s_coord, first, tol, rng=None):
        cols, lost = greedy(s_coord, first, tol, rng)
        lost[::2] = True
        return cols, lost

    monkeypatch.setattr(cs.extensions, "_greedy_isotropic", losing_every_other)
    kept = {(np.round(h.graph.basis @ h.graph.basis.conj().T, 8) + 0.0).tobytes() for h in honest}
    hits = hit_relations(dp, cs.brute_force_extensions(dp, budget=200, seed=0))
    masked_keys = {(np.round(h.graph.basis @ h.graph.basis.conj().T, 8) + 0.0).tobytes() for h in hits}
    assert 0 < len(hits) < len(honest) and masked_keys < kept


def test_sweep_draws_no_block_once_the_cap_is_reached(monkeypatch):
    # frakM of dimension 2: nearly every line is a distinct hit.  The sweep
    # stops in the block that brings the MAX_HITS-th hit, so the budget's
    # size costs nothing; one block less does not reach the cap
    dp = doubled(cs.random_restriction(4, seed=0))
    assert dp.frakM.dim == 2
    monkeypatch.setattr(cs.extensions, "MAX_HITS", 5)
    monkeypatch.setattr(cs.extensions, "SWEEP_BLOCK", 4)
    sweep = cs.extensions._sweep_candidates
    drawn = []

    def counted(*args):
        for stack, lost in sweep(*args):
            drawn.append(len(stack))
            yield stack, lost

    monkeypatch.setattr(cs.extensions, "_sweep_candidates", counted)
    hits = cs.brute_force_extensions(dp, budget=10**6, seed=0)
    blocks = len(drawn)
    assert len(hits) == 5 and drawn == [4] * blocks
    monkeypatch.setattr(cs.extensions, "MAX_HITS", 10**6)
    # these budgets stay inside the structured sweep, which comes first
    assert len(cs.brute_force_extensions(dp, budget=4 * blocks, seed=0)) >= 5
    assert len(cs.brute_force_extensions(dp, budget=4 * blocks - 4, seed=0)) < 5


def test_blocked_roundtrip_matches_hit_by_hit():
    # 93 hits, 11 full blocks and a partial one: the angle of each hit run
    # alone, bit for bit, and every operator decision as is_operator gives
    # it; recover_parameter and extension_graph, which border the relation
    # afresh, reproduce every hit too
    dp = doubled(cs.race_schrodinger(32))
    new = cs.brute_force_extensions(dp, budget=200, seed=0)
    assert len(new) > cs.extensions.ROUNDTRIP_BLOCK and len(new) % cs.extensions.ROUNDTRIP_BLOCK
    worst, operators = cs.extensions.completeness_roundtrip(dp, new)
    assert worst == max(cs.extensions.completeness_roundtrip(dp, w[None])[0] for w in new)
    hits = hit_relations(dp, new)
    for hit in hits:
        rebuilt = cs.extension_graph(dp, cs.recover_parameter(dp, hit))
        assert cs.max_angle_sin(_new_columns(rebuilt, dp.a).graph, hit.graph) <= dp.tol.bound()
    assert worst <= dp.tol.bound()
    assert operators == sum(hit.is_operator for hit in hits) == 88


def test_roundtrip_decides_unitarity_once_per_block(monkeypatch):
    # _cayley_unitaries refuses a non-unitary U on its Gram residual, so the
    # rebuild checks only the frakE and block conditions on the same stack
    dp = doubled(cs.race_schrodinger(32))
    new = cs.brute_force_extensions(dp, budget=200, seed=0)
    calls = count_calls(monkeypatch, cs.linalg, "_gram_residual")
    cs.extensions.completeness_roundtrip(dp, new)
    assert len(calls) == -(-len(new) // cs.extensions.ROUNDTRIP_BLOCK)


@pytest.mark.parametrize(
    "spec",
    [cs.race_schrodinger(16), cs.race_schrodinger(32), cs.fd_derivative_minimal(16), cs.zero_on_subspace(16)],
    ids=lambda s: s.name,
)
def test_values_only_operator_flags_match_is_operator(spec):
    # the round trip's flags read the top blocks' singular values alone; on
    # every hit, taken as a block of one, they give is_operator, whose
    # _top_svd computes vectors too
    dp = doubled(spec)
    new = cs.brute_force_extensions(dp, budget=200, seed=0)
    flags = [cs.extensions.completeness_roundtrip(dp, w[None])[1] for w in new]
    assert flags == [hit.is_operator for hit in hit_relations(dp, new)]
    assert cs.extensions.completeness_roundtrip(dp, new)[1] == sum(flags)


def test_roundtrip_solves_k_by_k_and_takes_top_block_values_only(monkeypatch):
    # no dense Cayley solve: every solve or inverse of the round trip is
    # k x k, it takes no pseudo-inverse, and no SVD of an n-row top block
    # computes singular vectors
    dp = doubled(cs.race_schrodinger(32))
    n, k = dp.ambient_dim, dp.n_plus.dim
    hits = cs.brute_force_extensions(dp, budget=200, seed=0)
    sizes, top_vectors, pinv_sizes = [], [], []
    pinv = np.linalg.pinv

    def counted_pinv(a, *args, **kwargs):
        pinv_sizes.append(np.shape(a)[-1])
        return pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counted_pinv)
    for name in ("solve", "inv"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, **kwargs):
            sizes.append(np.shape(a)[-1])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        if np.shape(a)[-2] == n:
            top_vectors.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    assert cs.extensions.completeness_roundtrip(dp, hits)[1] == 88
    assert sizes and max(sizes) <= k
    assert not pinv_sizes
    assert top_vectors and not any(top_vectors)


def _drop_c(w, images):
    """The Cayley kernel's mutation: each hit's own columns W in place of
    its C-images, so G = _adjoint_gaps(M, W) and L^H G is not 0."""
    return w


def _zero_gap(w, images):
    """The Cayley kernel's mutation to G = 0: [L, iG] is then singular."""
    return np.zeros_like(images)


@pytest.mark.parametrize(
    "name, n, target, mutation, error",
    [
        ("race_schrodinger", 32, -1, _drop_c, "Cayley transform does not carry N+ onto N-"),
        ("zero_on_subspace", 16, -2, _zero_gap, "Cayley transform is not everywhere defined: Singular matrix"),
    ],
    ids=["drop_c", "zero_gap"],
)
def test_roundtrip_refuses_a_wrong_cayley_transform_in_the_last_block(
    monkeypatch, capsys, name, n, target, mutation, error
):
    # the mutation on one hit, which sits in the last block; the CLI
    # rebuilds the same hits
    dp = doubled(getattr(cs, name)(n))
    new = cs.brute_force_extensions(dp, budget=200, seed=0)[target]
    cayley_unitaries = cs.extensions._cayley_unitaries

    def mutated(dp, w, images):
        hit = np.array([np.array_equal(cols, new) for cols in w])
        return cayley_unitaries(dp, w, np.where(hit[:, None, None], mutation(w, images), images))

    monkeypatch.setattr(cs.extensions, "_cayley_unitaries", mutated)
    assert main(["enumerate", "--example", name, "--n", str(n), "--budget", "200"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == error


def test_wrong_cayley_transform_strays_as_in_the_dense_solve(monkeypatch):
    # the drop-C mutation on every hit: the guard's Gram residual of U is
    # that of the dense solve's U, which also forms frakA's own part
    dp = doubled(cs.race_schrodinger(32))
    hits = cs.brute_force_extensions(dp, budget=200, seed=0)
    cayley_unitaries = cs.extensions._cayley_unitaries
    monkeypatch.setattr(cs.extensions, "_cayley_unitaries", lambda dp, w, images: cayley_unitaries(dp, w, w))
    for hit in hit_relations(dp, hits):
        with pytest.raises(cs.PropertyViolationError, match="does not carry N\\+ onto N-") as err:
            cs.recover_parameter(dp, hit)
        gram = cs.linalg._gram_residual(cayley_oracle(dp, hit.graph.basis, drop_c=True)[0])
        assert err.value.residuals["gram"] == pytest.approx(gram, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("swap", [[], ["--swap"]], ids=["plain", "swap"])
def test_extend_report_builds_no_m_spaces(monkeypatch, capsys, swap):
    # extend reads frakM and omega only; the C-symmetry guard needs no M-spaces
    calls = count_calls(monkeypatch, cs.csym, "m_spaces")
    assert main(["extend", "--example", "race_schrodinger", "--n", "16", *swap]) == 0
    capsys.readouterr()
    assert len(calls) == 0


def test_extension_builders_refuse_non_c_symmetric_input_with_zero_frakm():
    # A = [[0, 1], [0, 0]] under entrywise C: CAC = A is not inside A* = A^H,
    # and frakM = 0, so a guard placed after the frakM.dim == 0 return misses it
    a = cs.from_matrix([[0.0, 1.0], [0.0, 0.0]])
    c = cs.entrywise_conjugation(2)
    assert frakM_oracle(cs.build_doubled(a, c)).dim == 0
    for build in (
        cs.canonical_extension,
        cs.brute_force_extensions,
        lambda dp: sample_parameters(dp, 2),
        cs.m_spaces,
        cs.anti_involution,
        cs.deficiency,
    ):
        with pytest.raises(cs.PreconditionError, match="not C-symmetric"):
            build(cs.build_doubled(a, c))


def test_doubled_problem_caches_defect_geometry():
    spec = cs.zero_on_subspace(4)
    dp = spec.doubled()
    assert spec.doubled() is dp
    assert dp.spaces is dp.spaces and dp.s_map is dp.s_map
    rebuilt = cs.build_doubled(dp.a, dp.c)
    assert within(dp.frakM, rebuilt.frakM, 1e-10, equal=True)
    fresh = cs.m_spaces(rebuilt)
    for name in ("frakM_prime", "bstar_sum", "astar_sum", "m_bstar", "m_astar"):
        assert within(getattr(dp.spaces, name), getattr(fresh, name), 1e-10, equal=True)


def test_extend_fails_when_adjoint_gap_sign_is_flipped(monkeypatch, tmp_path, capsys):
    # mutation: (J G)^H q with J(x, y) = (y, x), i.e. the adjoint's sign dropped
    example = ["--example", "race_schrodinger", "--n", "16"]
    spec = cs.race_schrodinger(16)
    dp = cs.build_doubled(spec.relation(), spec.conjugation())
    param = cs.canonical_extension(dp).parameter.matrix
    path = tmp_path / "param.json"
    path.write_text(json.dumps({"kind": "unitary", "matrix": cs.problems.encode_matrix(param)}))

    def flipped(self, q):
        n = self.ambient_dim
        g = self.graph.basis
        return g[n:].conj().T @ q[:n] + g[:n].conj().T @ q[n:]

    monkeypatch.setattr(cs.LinearRelation, "_gap_matrix", flipped)
    # the C-symmetry guard decides with the same gap, so the CLI refuses there
    assert main(["extend", *example, "--param", str(path)]) == 2
    assert "not C-symmetric" in capsys.readouterr().err
    # dp and the parameter were built before the patch
    res = cs.extension_from_parameter(dp, cs.ExtensionParameter("unitary", param))
    status = {c.name: c.status for c in res.checks}
    assert status["doubled_selfadjoint"] == status["extension_c_selfadjoint"] == "fail"


@DEFECT_FIXTURES
def test_closed_form_slices_match_intersection_oracle(spec):
    # S and T grown from graph(A) and graph(B) are the slices that
    # block_slices cuts out of the doubled extension by intersection
    dp = doubled(spec)
    for p in sample_parameters(dp, 3, seed=6):
        _, defect_cols = _deficiency_span(dp, p)
        s, t = _closed_form_slices(dp, defect_cols)
        oracle_s, oracle_t = block_slices(doubled_extension(dp, defect_cols))
        assert s.equals(oracle_s) and t.equals(oracle_t)


@DEFECT_FIXTURES
def test_block_check_refuses_nonblock_parameter_past_its_gate(monkeypatch, spec):
    # mutation: with the D U D U = I gate disabled, the non-block parameter
    # reaches the slices, which come out too large by k in all
    dp = doubled(spec)
    p = nonblock_parameter(dp)
    monkeypatch.setattr(cs.extensions, "block_condition_residual", lambda dp, u: 0.0)
    with pytest.raises(cs.PropertyViolationError, match="blocks do not reassemble") as info:
        cs.extension_from_parameter(dp, p)
    assert info.value.residuals["dims"] == dp.n_plus.dim


def _turn_first_new_column(grown, known):
    """grown with its first column past known's turned by 0.1 rad towards a
    random unit vector orthogonal to grown; the basis stays orthonormal."""
    g = grown.graph.basis.copy()
    w = random_complex(np.random.default_rng(5), g.shape[0])
    for _ in range(2):
        w -= g @ (g.conj().T @ w)
    j = known.graph.dim
    g[:, j] = np.cos(0.1) * g[:, j] + np.sin(0.1) * w / np.linalg.norm(w)
    return cs.LinearRelation(cs.Subspace(g))


@pytest.mark.parametrize("slice_", ["s", "t"])
@DEFECT_FIXTURES
def test_block_check_refuses_a_turned_slice(monkeypatch, spec, slice_):
    # mutation: a new column of S, or of T, turned out of the doubled
    # extension; the dimensions still add up, so the containment of
    # frak(A)_U's new columns in block_relation(S, T), their (y, v) rows in
    # S and their (x, u) rows in T, has to refuse it
    dp = doubled(spec)
    p = cs.canonical_extension(dp).parameter

    def turned(dp, cols):
        s, t = _closed_form_slices(dp, cols)
        if slice_ == "s":
            return _turn_first_new_column(s, dp.a), t
        return s, _turn_first_new_column(t, dp.b)

    monkeypatch.setattr(cs.extensions, "_closed_form_slices", turned)
    with pytest.raises(cs.PropertyViolationError, match="blocks do not reassemble") as info:
        cs.extension_from_parameter(dp, p)
    assert info.value.residuals["dims"] == 0


@DEFECT_FIXTURES
def test_bordered_checks_fail_on_a_turned_new_column(monkeypatch, spec):
    # mutation: a new column of S turned, and the doubled columns rebuilt
    # from the turned slices, so that they still reassemble
    dp = doubled(spec)
    p = cs.canonical_extension(dp).parameter

    def turned(dp, p):
        u, cols = _deficiency_span(dp, p)
        s, t = _closed_form_slices(dp, cols)
        s_new = _new_columns(_turn_first_new_column(s, dp.a), dp.a)
        return u, 2 * block_relation(s_new, _new_columns(t, dp.b)).graph.basis

    monkeypatch.setattr(cs.extensions, "_deficiency_span", turned)
    status = {c.name: c.status for c in cs.extension_from_parameter(dp, p).checks}
    for name in ("companion_block_is_conjugated", "extension_c_selfadjoint", "inside_bstar"):
        assert status[name] == "fail", name


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("spec", [*DEFECT_SPECS, cs.random_restriction(8, seed=1)], ids=lambda s: s.name)
def test_canonical_parameter_matches_cayley_transform(spec, swap):
    # oracle: graph(X) of the least-norm completion X solved densely
    # (conftest.completion_oracle), its S-image with swap, bordered on
    # graph(A) and its parameter recovered by the Cayley transform;
    # random_restriction(8, 1) has frakM of dimension 14, past the
    # brute-force guard
    dp = doubled(spec)
    n = dp.ambient_dim
    graph = cs.orthonormal_basis(np.vstack([np.eye(n), completion_oracle(dp)]), dp.tol)
    new = cs.linalg._outside(graph.basis, dp.a.graph.basis)
    if swap:
        new = dp.s_map.apply(new)
    a_tilde = cs.LinearRelation(cs.extend_basis(dp.a.graph, new))
    u = cs.recover_parameter(dp, a_tilde).matrix
    res = cs.canonical_extension(dp, swap=swap)
    assert res.checks.all_pass
    assert np.abs(res.parameter.matrix - u).max() <= dp.tol.bound()


def test_cli_extend_recovers_no_parameter(monkeypatch, capsys):
    # the canonical parameter is the Cayley transform of the completion's
    # new columns, solved once per problem, not recovered from a relation
    calls = count_calls(monkeypatch, cs.extensions, "recover_parameter")
    for swap in ([], ["--swap"]):
        assert main(["extend", "--example", "race_schrodinger", "--n", "16", *swap]) == 0
    capsys.readouterr()
    assert calls == []


COMPLETION_SPECS = pytest.mark.parametrize(
    "spec",
    [
        *DEFECT_SPECS,
        cs.zero_on_subspace(16),
        cs.minimal_identity(),
        cs.random_restriction(10, seed=3),
        cs.random_restriction(12, seed=5),
        cs.race_schrodinger(64, h=0.02),
        cs.random_csym(6),
    ],
    ids=lambda s: s.name,
)


@COMPLETION_SPECS
def test_minimum_norm_completion_is_the_canonical_operator_extension(spec):
    # X D = AD and XK symmetric (C-self-adjoint, C = K conj), X equals the
    # dense least-norm solve, and the canonical extension is graph(X): an
    # operator, passing every check
    dp = doubled(spec)
    n = dp.ambient_dim
    x = completion_matrix(dp)
    d, ad, k = dp.a.given_domain.basis, dp.a.given_images, dp.c.matrix
    scale = max(1.0, float(np.linalg.norm(x)))
    assert np.abs(x @ d - ad).max() <= 1e-12 * scale
    assert np.abs(x @ k - (x @ k).T).max() <= 1e-12 * scale
    assert np.abs(x - completion_oracle(dp)).max() <= 1e-10 * scale
    res = cs.canonical_extension(dp)
    assert res.checks.all_pass and res.a_ext.is_operator
    assert within(res.a_ext, cs.orthonormal_basis(np.vstack([np.eye(n), x])), 1e-10, equal=True)


@COMPLETION_SPECS
def test_minimum_norm_completion_is_stationary(spec):
    # the completions are Z + E S, S complex symmetric d x d and
    # E = K conj(D_perp); Z is orthogonal to every E S, so it has least norm
    dp = doubled(spec)
    d_perp, z = cs.extensions._minimum_norm_completion(dp)
    e = dp.c.matrix @ np.conj(d_perp)
    d, ad = dp.a.given_domain.basis, dp.a.given_images
    rng = np.random.default_rng(7)
    for _ in range(5):
        s = random_complex(rng, d_perp.shape[1], d_perp.shape[1])
        step = e @ (s + s.T)
        other = ad @ d.conj().T + (z + step) @ d_perp.conj().T
        assert np.abs(other @ dp.c.matrix - (other @ dp.c.matrix).T).max() <= 1e-12 * max(1.0, np.linalg.norm(other))
        assert abs(np.vdot(step, z).real) <= 1e-10 * max(1.0, np.linalg.norm(z)) * np.linalg.norm(step)


def test_minimum_norm_completion_moves_with_a_c_commuting_unitary():
    # Q = V R V^H, R real orthogonal and K = V V^T, commutes with C = K conj,
    # so it maps the completions of A onto those of Q A Q^H at equal norm:
    # both canonical extensions of the rotated problem are (Q + Q) times
    # the original's, in whatever basis frakM is built
    rng = np.random.default_rng(11)
    n = 9
    v = cs.haar_unitary(n, rng)
    k = v @ v.T
    a = cs.random_csym_matrix(n, rng, cs.Conjugation(k))
    domain = cs.orthonormal_basis(random_complex(rng, n, 6)).basis
    q = v @ np.linalg.qr(rng.standard_normal((n, n)))[0] @ v.conj().T
    assert np.abs(q @ k - k @ np.conj(q)).max() <= 1e-13
    specs = [
        cs.ProblemSpec(name, n, "matrix", k, rotation @ domain, rotation @ a @ domain, cs.DEFAULT_TOL)
        for name, rotation in (("plain", np.eye(n)), ("rotated", q))
    ]
    plain, rotated = (spec.doubled() for spec in specs)
    for swap in (False, True):
        g = cs.canonical_extension(plain, swap=swap).a_ext.graph.basis
        moved = cs.Subspace(np.vstack([q @ g[:n], q @ g[n:]]))
        assert within(moved, cs.canonical_extension(rotated, swap=swap).a_ext, 1e-10, equal=True)


def test_minimum_norm_completion_reads_no_particular_domain_basis():
    # the same restriction given on non-orthonormal domain columns (which
    # operator_relation orthonormalizes, with a warning) and on an
    # orthonormal basis of their span has one canonical extension
    rng = np.random.default_rng(4)
    n = 7
    c = cs.random_conjugation(n, rng)
    a = cs.random_csym_matrix(n, rng, c)
    cols = random_complex(rng, n, 4)
    q = np.linalg.qr(cols)[0]
    specs = [cs.ProblemSpec("p", n, "matrix", c.matrix, d, a @ d, cs.DEFAULT_TOL) for d in (cols, q)]
    with pytest.warns(UserWarning, match="not orthonormal"):
        given = cs.canonical_extension(specs[0].doubled())
    assert given.checks.all_pass and given.a_ext.is_operator
    assert within(given.a_ext, cs.canonical_extension(specs[1].doubled()).a_ext, 1e-10, equal=True)


def _completion_with(dp, conj_images, conj_k):
    """_minimum_norm_completion with (AD)^H for (AD)^T, or K for conj(K)."""
    d, ad, k = dp.a.given_domain.basis, dp.a.given_images, dp.c.matrix
    d_perp = cs.linalg._complement_columns(d, dp.ambient_dim - d.shape[1], "test")
    images = ad.conj().T if conj_images else ad.T
    return d_perp, k @ (np.conj(d) @ (images @ ((k if conj_k else np.conj(k)) @ d_perp)))


def _zero_completion(dp):
    d_perp, z = _completion_with(dp, False, False)
    return d_perp, np.zeros_like(z)


COMPLETION_MUTATIONS = {
    "zero": _zero_completion,
    "adjoint_images": lambda dp: _completion_with(dp, True, False),
    "unconjugated_k": lambda dp: _completion_with(dp, False, True),
}


@pytest.mark.parametrize(
    "mutation, spec",
    [
        ("zero", cs.race_schrodinger(16)),
        ("zero", cs.fd_derivative_minimal(16)),
        ("adjoint_images", cs.fd_derivative_minimal(16)),
        ("unconjugated_k", cs.random_restriction(8, seed=1)),
    ],
    ids=lambda value: getattr(value, "name", value),
)
def test_canonical_extension_refuses_a_wrong_completion(monkeypatch, mutation, spec):
    # mutations of Z on inputs where they change it.  A wrong Z still gives
    # some valid extension through its Cayley transform, which every check
    # of extension_from_parameter passes; the guard that the completion's
    # new columns lie in graph(B*) (or the Cayley transform's unitarity)
    # refuses it, naming the completion
    mutated = COMPLETION_MUTATIONS[mutation]
    dp = doubled(spec)
    z = cs.extensions._minimum_norm_completion(dp)[1]
    assert np.abs(mutated(dp)[1] - z).max() > 1e-3 * max(1.0, np.abs(z).max())
    monkeypatch.setattr(cs.extensions, "_minimum_norm_completion", mutated)
    for swap in (False, True):
        with pytest.raises(cs.PropertyViolationError, match="minimum-norm completion|Cayley transform"):
            cs.canonical_extension(doubled(spec), swap=swap)


def test_canonical_extension_refuses_a_parameter_that_misses_the_completion(monkeypatch):
    # mutation: the Cayley transform negated, the parameter of the swap; it
    # is a valid parameter, but its extension does not hold the completion's
    # new columns, so the second guard refuses it
    original = cs.extensions._cayley_unitaries
    monkeypatch.setattr(cs.extensions, "_cayley_unitaries", lambda dp, w, images: -original(dp, w, images))
    with pytest.raises(cs.PropertyViolationError, match="not the extension rebuilt from its parameter") as info:
        cs.canonical_extension(doubled(cs.race_schrodinger(16)))
    assert info.value.residuals["residual"] > 1.0


OMEGA_FIXTURES = pytest.mark.parametrize(
    "spec",
    [
        cs.race_schrodinger(16),
        cs.race_schrodinger(64, h=0.02),
        cs.zero_on_subspace(16),
        cs.fd_derivative_minimal(16),
        cs.random_restriction(8, seed=1),
        cs.random_restriction(8, seed=3),
    ],
    ids=["race_n16", "race_n64_h0.02", "zero_n16", "fd_n16", "restriction_n8_s1", "restriction_n8_s3"],
)


_DEFECT_NAMES = {spec.name for spec in DEFECT_FIXTURES.args[1]}
BORDERED_FIXTURES = pytest.mark.parametrize(
    "spec",
    [*DEFECT_FIXTURES.args[1], *(s for s in OMEGA_FIXTURES.args[1] if s.name not in _DEFECT_NAMES)],
    ids=lambda spec: spec.name,
)


@BORDERED_FIXTURES
def test_bordered_checks_against_full_basis_oracle(spec):
    # each check taken over the whole basis: the bordered residual is a block
    # of it (up to rounding), and a guard certifies the rest, so a bordered
    # pass with the guards passing is a full-basis pass.  The doubled checks
    # read the row blocks of the deficiency columns against the one-space
    # graphs; the oracle takes them on the 4n-row basis of frak(A)_U
    dp = doubled(spec)  # build_doubled's guards raise on failure
    cs.csym._require_c_symmetric(dp)
    n, bound = dp.ambient_dim, dp.tol.bound()
    rounding = 8 * np.finfo(float).eps
    for p in sample_parameters(dp, 3, seed=4):
        res = cs.extension_from_parameter(dp, p)
        reported = {c.name: c for c in res.checks}
        a_ext, defect_cols = res.a_ext, _deficiency_span(dp, p)[1]
        frak = doubled_extension(dp, defect_cols)
        s, t = _closed_form_slices(dp, defect_cols)
        conj = cs.LinearRelation(cs.Subspace(a_ext.conjugated_basis(dp.c)))
        frake = cs.Subspace(frak.conjugated_basis(dp.frakC))
        full = {
            "doubled_selfadjoint": frak.adjoint_gap(frak.graph.basis),
            "doubled_frakE_selfadjoint": cs.max_angle_sin(frake, frak.graph),
            "companion_block_is_conjugated": cs.max_angle_sin(t.graph, conj.graph),
            "extension_c_selfadjoint": a_ext.adjoint_gap(conj.graph.basis),
            "inside_bstar": cs.max_angle_sin(a_ext.graph, dp.b_star.graph),
        }
        for name, value in full.items():
            assert reported[name].residual <= value + rounding, name
            assert reported[name].status == "pass" and value <= bound, name
        # the block-form residuals against the bordered 4n-row ones; the
        # block reassembly raises instead of reporting, so its residual is
        # taken here as the guard takes it
        bordered = bordered_doubled_residuals(dp, defect_cols, s, t)
        q_s, q_t = cs.extensions._row_blocks(defect_cols / 2, n)
        outside = np.vstack([cs.linalg._outside(q_s, s.graph.basis), cs.linalg._outside(q_t, t.graph.basis)])
        block_form = {name: reported[name].residual for name in ("doubled_selfadjoint", "doubled_frakE_selfadjoint")}
        block_form["reassembly"] = cs.linalg._spectral_norm(outside)
        for name, value in block_form.items():
            assert abs(value - bordered[name]) <= rounding, name
        # at equal dimensions the largest angle is the same both ways
        block = block_relation(s, t)
        assert bordered["reassembly"] <= cs.max_angle_sin(block.graph, frak.graph) + rounding <= bound


@OMEGA_FIXTURES
def test_omega_gives_every_defect_coordinate_matrix(spec):
    # the generic products that Omega replaced, from the bases of N+- and
    # frakM, against i Omega, -i Omega, -I and -Omega
    dp = doubled(spec)
    n, k = dp.ambient_dim, dp.n_plus.dim
    bp, bm, k2 = dp.n_plus.basis, dp.n_minus.basis, dp.frakC.matrix
    signs = np.concatenate([-np.ones(n), np.ones(n)])
    top, bot = dp.frakM.basis[:n], dp.frakM.basis[n:]
    kk = dp.c.matrix
    w = bot.conj().T @ (kk @ np.conj(top)) - top.conj().T @ (kk @ np.conj(bot))
    omega = dp.omega
    for reference, expected in (
        (bm.conj().T @ k2 @ np.conj(bp), 1j * omega),  # frakE: N+ -> N-
        (bp.conj().T @ k2 @ np.conj(bm), -1j * omega),  # frakE: N- -> N+
        (bp.conj().T @ (signs[:, None] * bm), -np.eye(k)),  # D = diag(-I, I): N- -> N+
        (w, -omega),  # omega(x, y) = <Jx, Cy>, J(x, y) = (y, -x)
    ):
        np.testing.assert_allclose(expected, reference, rtol=0, atol=1e-14)


@OMEGA_FIXTURES
def test_deficiency_span_matches_ambient_unitary(spec):
    # the columns read off frakM's blocks against (w - Uw, i(w + Uw)) with U
    # lifted to C^(2n)
    dp = doubled(spec)
    u, cols = cs.extensions._deficiency_span(dp, cs.canonical_extension(dp).parameter)
    w = dp.n_plus.basis
    u_amb = dp.n_minus.basis @ u @ w.conj().T
    np.testing.assert_allclose(cols, np.vstack([w - u_amb @ w, 1j * (w + u_amb @ w)]), rtol=0, atol=1e-14)


@DEFECT_FIXTURES
def test_recover_parameter_matches_full_cayley_transform(spec):
    # on extension_graph and extension_from_parameter results, against the
    # whole V and against the dense Cayley solve
    dp = doubled(spec)
    n2 = 2 * dp.ambient_dim
    for p in sample_parameters(dp, 3, seed=8):
        for a_tilde in (cs.extension_graph(dp, p), cs.extension_from_parameter(dp, p).a_ext):
            u = cs.recover_parameter(dp, a_tilde).matrix
            # reference: V = Q P^-1 on all of C^(2n), restricted to N+ afterwards
            conj = cs.LinearRelation(cs.Subspace(a_tilde.conjugated_basis(dp.c)))
            g = block_relation(a_tilde, conj).graph.basis
            v = np.linalg.solve((g[n2:] + 1j * g[:n2]).T, (g[n2:] - 1j * g[:n2]).T).T
            reference = dp.n_minus.basis.conj().T @ v @ dp.n_plus.basis
            np.testing.assert_allclose(u, reference, rtol=0, atol=1e-12)
            np.testing.assert_allclose(u, cayley_oracle(dp, a_tilde.graph.basis)[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("swap", [False, True], ids=["plain", "swap"])
def test_extension_path_svds_are_bordered(monkeypatch, swap):
    # graphs are grown by their k new directions: no SVD under the extension
    # path with 2n rows or more has more than k columns, and none has more
    # than 2n rows, since graph(frakA) grows by columns orthonormal as built
    # (the problem's cached defect geometry is built before counting)
    dp = doubled(cs.race_schrodinger(32, h=0.02))
    n, k = dp.ambient_dim, dp.n_plus.dim
    assert dp.omega is not None and dp.b.domain()
    svd = np.linalg.svd
    shapes = []

    def counted_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    cs.canonical_extension(dp, swap=swap)
    tall = [shape for shape in shapes if shape[0] >= 2 * n]
    assert max(rows for rows, _ in tall) == 2 * n
    assert all(cols <= k for _, cols in tall), tall


@pytest.mark.parametrize("swap", [False, True], ids=["plain", "swap"])
def test_extension_path_eigvalsh_are_bordered(monkeypatch, swap):
    # every 2-norm under the extension path is taken over new columns:
    # no Gram matrix is larger than k x k
    dp = doubled(cs.race_schrodinger(32, h=0.02))
    assert dp.omega is not None and dp.b.domain()
    eigvalsh = np.linalg.eigvalsh
    sizes = []

    def counted_eigvalsh(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    cs.canonical_extension(dp, swap=swap)
    assert sizes and max(sizes) <= dp.n_plus.dim, sizes
