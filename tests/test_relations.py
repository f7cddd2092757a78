"""Linear relations: adjoints, kernels of I + RS, regime predicates.

Expected dims and membership conditions for the two small fixtures were
computed by hand from the orthogonality definition of the adjoint and are
frozen here as literals.
"""

import numpy as np
import pytest
import scipy.linalg

import csymlab as cs

from conftest import (
    DEFECT_SPECS,
    frak_a,
    frak_a_star,
    full_relation,
    hit_relations,
    random_complex,
    within,
    zero_relation,
)


def random_relation(rng, n, k):
    return cs.LinearRelation(cs.orthonormal_basis(random_complex(rng, 2 * n, k), ambient_dim=2 * n))


def test_from_matrix_roundtrip(rng):
    m = random_complex(rng, 4, 4)
    rel = cs.from_matrix(m)
    assert rel.is_operator and rel.is_everywhere_defined
    x = random_complex(rng, 4)
    assert rel.graph.contains_vector(np.concatenate([x, m @ x]))
    assert not rel.graph.contains_vector(np.concatenate([x, m @ x + 1e-3 * random_complex(rng, 4)]))


def test_from_matrix_keeps_a_column_small_against_the_norm():
    # [I; diag(1, 1e11)] has singular values sqrt(2) and about 1e11: a rank
    # cut relative to the norm (1e-10 * 1e11 = 10) dropped the first column
    rel = cs.from_matrix(np.diag([1.0, 1e11]))
    assert rel.graph.dim == 2
    assert rel.is_operator and rel.is_everywhere_defined and rel.regime == "operator"
    assert rel.graph.contains_vector(np.array([1.0, 0.0, 1.0, 0.0]))


@pytest.mark.parametrize(
    "spec",
    [
        cs.race_schrodinger(64, h=0.02),
        cs.fd_derivative_minimal(16),
        cs.zero_on_subspace(16),
        cs.random_csym(64),
        cs.random_restriction(9, seed=7),
    ],
    ids=lambda spec: spec.name,
)
def test_operator_graph_is_the_cut_basis_bit_for_bit(spec):
    # the uncut SVD basis of [D; AD] is what orthonormal_basis returns where
    # its cut keeps every column: frakM, and so the sweep's hit counts, are
    # built from these bits
    domain = np.eye(spec.dim, dtype=complex) if spec.domain_basis is None else spec.domain_basis
    reference = cs.orthonormal_basis(np.vstack([domain, spec.images]), spec.tol)
    assert spec.relation().graph.basis.tobytes() == reference.basis.tobytes()


@pytest.mark.parametrize(
    "spec", [*DEFECT_SPECS, cs.random_restriction(6, seed=2), cs.random_csym(5)], ids=lambda spec: spec.name
)
def test_given_domain_matches_the_graph(spec):
    # oracle: A, B = CAC and frakA = block(A, B) carry their domains; the
    # same graphs without them read domain, operator test and regime off
    # the top-block SVD
    dp = cs.build_doubled(spec.relation(), spec.conjugation())
    for rel in (dp.a, dp.b, frak_a(dp)):
        bare = cs.LinearRelation(rel.graph)
        assert rel.given_domain is not None and bare.given_domain is None
        assert within(rel.domain(), bare.domain(), 1e-9, equal=True)
        assert (rel.is_operator, rel.multivalued_part().dim, rel.regime) == (bare.is_operator, 0, bare.regime)


def test_zero_on_subspace_adjoint_frozen():
    # A = 0 on span{e2, e3} in C^4.  Adjoint pairs (u, v) need
    # <0, u> = <x, v> for all x in the domain, i.e. v orthogonal to e2, e3:
    # graph(A*) = C^4 x span{e1, e4}, dimension 6.
    rel = cs.zero_on_subspace(4).relation()
    assert rel.graph.dim == 2
    adj = rel.adjoint()
    assert adj.graph.dim == 6
    e = np.eye(4, dtype=complex)
    z = np.zeros(4, dtype=complex)
    for u in e.T:
        for v in (e[:, 0], e[:, 3], z):
            assert within(np.concatenate([u, v]), adj, 1e-10)
    assert not adj.graph.contains_vector(np.concatenate([z, e[:, 1]]))
    assert not adj.is_operator
    assert adj.multivalued_part().dim == 2


def test_minimal_identity_adjoint_frozen():
    # A = I on span{e1} in C^2: graph(A*) = {(u, v) : u1 = v1}, dimension 3.
    rel = cs.minimal_identity().relation()
    assert rel.graph.dim == 1
    adj = rel.adjoint()
    assert adj.graph.dim == 3
    assert within(np.array([1.0, 0, 1.0, 0], dtype=complex), adj, 1e-10)
    assert within(np.array([0, 1.0, 0, 0], dtype=complex), adj, 1e-10)
    assert within(np.array([0, 0, 0, 1.0], dtype=complex), adj, 1e-10)
    assert not adj.graph.contains_vector(np.array([1.0, 0, 0, 0], dtype=complex))


def test_adjoint_is_involution(rng):
    for _ in range(60):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, 2 * n + 1))
        rel = random_relation(rng, n, k) if k else zero_relation(n)
        again = rel.adjoint().adjoint()
        assert within(again, rel, 1e-9, equal=True)


def test_adjoint_of_matrix_is_conjugate_transpose(rng):
    m = random_complex(rng, 5, 5)
    adj = cs.from_matrix(m).adjoint()
    expected = cs.from_matrix(m.conj().T)
    assert within(adj, expected, 1e-10, equal=True)


def test_adjoint_reverses_inclusion(rng):
    n = 3
    big = random_relation(rng, n, 4)
    sub = cs.LinearRelation(cs.orthonormal_basis(big.graph.basis[:, :2], ambient_dim=2 * n))
    assert within(sub, big, 1e-10)
    assert within(big.adjoint(), sub.adjoint(), 1e-10)


def test_kernel_multivalued(rng):
    m = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    rel = cs.from_matrix(m)
    # N(I - m) = span{e1}
    assert within(cs.kernel_one_plus(cs.from_matrix(-np.eye(2)), rel), np.array([1.0, 0]), 1e-12, equal=True)
    assert rel.multivalued_part().dim == 0
    assert full_relation(2).multivalued_part().dim == 2


def _with_kernel(rng, n, d):
    """(R, S) with S invertible and I + RS of rank n - d."""
    s = random_complex(rng, n, n)
    w = random_complex(rng, n, n - d) @ random_complex(rng, n - d, n)
    return (w - np.eye(n)) @ np.linalg.inv(s), s


@pytest.mark.parametrize("n, d", [(1, 1), (3, 0), (4, 2), (6, 1), (8, 5)])
def test_kernel_one_plus_matches_null_space(rng, n, d):
    r, s = _with_kernel(rng, n, d)
    kernel = cs.kernel_one_plus(cs.from_matrix(r), cs.from_matrix(s))
    expected = scipy.linalg.null_space(np.eye(n) + r @ s)
    assert expected.shape[1] == d
    assert within(kernel, cs.Subspace(expected), 1e-9, equal=True)


def test_kernel_one_plus_with_restricted_inner():
    # inner = identity on span{e1}: the kernel is span{e1} or 0 as outer maps e1 to -e1 or not
    e1 = np.eye(3)[:, :1]
    inner_rel = cs.LinearRelation(cs.orthonormal_basis(np.vstack([e1, e1]), ambient_dim=6))
    assert inner_rel.domain().dim == 1
    flip = cs.from_matrix(np.diag([-1.0, -1.0, 4.0]))
    assert within(cs.kernel_one_plus(flip, inner_rel), e1[:, 0], 1e-12)
    assert cs.kernel_one_plus(flip, inner_rel).dim == 1
    assert cs.kernel_one_plus(cs.from_matrix(np.diag([2.0, -1.0, 4.0])), inner_rel).dim == 0


@pytest.mark.parametrize("ratio", [0.0, 0.5, 1.2, 2.0, 10.0, 1e4])
def test_kernel_one_plus_cut_is_intersects(rng, ratio):
    # the meet of [Y1; X1] and [-X2; Y2] shares q2 exactly and q0 up to the
    # angle theta = ratio * cutoff: the kernel keeps q0's direction exactly
    # when intersect does, also between intersect's cut on sin theta and the
    # sqrt(2) sin(theta/2) of a null-space solve (ratio 1.2)
    n = 6
    theta = ratio * cs.DEFAULT_TOL.zero_cutoff(1.0)
    q = cs.orthonormal_basis(random_complex(rng, 2 * n, 3)).basis
    tilted = np.cos(theta) * q[:, :1] + np.sin(theta) * q[:, 1:2]
    swapped_inner = cs.Subspace(q[:, [0, 2]])
    flipped_outer = cs.orthonormal_basis(np.hstack([tilted, q[:, 2:]]))
    inner = cs.LinearRelation(cs.Subspace(np.vstack([swapped_inner.basis[n:], swapped_inner.basis[:n]])))
    outer = cs.LinearRelation(cs.Subspace(np.vstack([-flipped_outer.basis[:n], flipped_outer.basis[n:]])))
    kernel = cs.kernel_one_plus(outer, inner)
    assert kernel.dim == cs.intersect(swapped_inner, flipped_outer).dim == (2 if ratio <= 0.5 else 1)
    # the direction shared exactly is q2's bottom rows, X1 of that pair; a
    # principal direction a gap theta from the next is fixed to about eps/theta
    assert within(q[n:, 2], kernel, 1e-5)


def test_kernel_one_plus_with_multivalued_outer(rng):
    # outer = graph(M) + ({0} x span w): x + M S x in span w, so the kernel
    # is span (I + MS)^-1 w
    n = 4
    m, s, w = random_complex(rng, n, n), random_complex(rng, n, n), random_complex(rng, n)
    cols = np.hstack([np.vstack([np.eye(n), m]), np.concatenate([np.zeros(n), w])[:, None]])
    outer = cs.LinearRelation(cs.orthonormal_basis(cols))
    assert outer.multivalued_part().dim == 1
    kernel = cs.kernel_one_plus(outer, cs.from_matrix(s))
    assert kernel.dim == 1
    assert within(kernel, np.linalg.solve(np.eye(n) + m @ s, w), 1e-10)


def test_kernel_one_plus_with_empty_graph(rng):
    n = 3
    some = cs.from_matrix(random_complex(rng, n, n))
    for outer, inner_rel in ((some, zero_relation(n)), (zero_relation(n), some), (zero_relation(n), zero_relation(n))):
        assert cs.kernel_one_plus(outer, inner_rel).dim == 0
    # every (y, -x) lies in H x H: the kernel is all of dom S
    assert cs.kernel_one_plus(full_relation(n), some).dim == n
    with pytest.raises(cs.InputError):
        cs.kernel_one_plus(some, zero_relation(n + 1))


def test_conjugated_relation(rng):
    c = cs.random_conjugation(3, rng)
    m = random_complex(rng, 3, 3)
    k = c.matrix
    expected = cs.from_matrix(k @ np.conj(m) @ np.conj(k))
    assert within(cs.from_matrix(m).conjugated(c), expected, 1e-10, equal=True)


def test_identity_and_zero_relations():
    z = zero_relation(3)
    assert z.graph.dim == 0
    assert within(z.adjoint(), full_relation(3), 1e-10, equal=True)
    assert full_relation(3).adjoint().graph.dim == 0


MACHINE_EPS = np.finfo(float).eps


def test_adjoint_gap_matches_angle_into_built_adjoint(rng):
    # graph dims 0..2n, plus multivalued relations carrying (0, y) columns;
    # q ranges over random subspaces (zero columns included) and the two graphs
    multivalued = 0
    for _ in range(80):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, 2 * n + 1))
        rel = random_relation(rng, n, k) if k else zero_relation(n)
        if 0 < k <= n and rng.random() < 0.5:
            mv = np.vstack([np.zeros((n, k)), random_complex(rng, n, k)])
            mixed = np.hstack([rel.graph.basis[:, : k // 2], mv[:, : k - k // 2]])
            rel = cs.LinearRelation(cs.orthonormal_basis(mixed, ambient_dim=2 * n))
        multivalued += not rel.is_operator
        star = rel.adjoint().graph
        qdim = int(rng.integers(0, 2 * n + 1))
        q = cs.orthonormal_basis(random_complex(rng, 2 * n, qdim), ambient_dim=2 * n)
        for s in (q, rel.graph, star):
            assert abs(rel.adjoint_gap(s.basis) - cs.max_angle_sin(s, star)) <= 1e3 * MACHINE_EPS
    assert multivalued >= 20


def test_adjoint_gap_detects_multivalued_part():
    # graph(full) = C^2n, so graph(full*) = 0 and every direction is at angle pi/2
    full = full_relation(2)
    assert full.adjoint_gap(np.eye(4, dtype=complex)[:, :1]) == pytest.approx(1.0)
    assert full.adjoint_gap(np.zeros((4, 0), dtype=complex)) == 0.0
    with pytest.raises(cs.InputError):
        full.adjoint_gap(np.eye(3, dtype=complex))


def test_domain_is_built_once(rng):
    rel = random_relation(rng, 4, 3)
    first = rel.domain()
    assert rel.domain() is first
    assert first.dim == 3


def _multivalued_reference(rel):
    """{y : (0, y) in graph} by the intersect route, independent of the top-block SVD."""
    n = rel.ambient_dim
    hit = cs.intersect(rel.graph, cs.Subspace(np.eye(2 * n, dtype=complex)[:, n:]))
    return cs.orthonormal_basis(hit.basis[n:], ambient_dim=n)


def test_is_operator_matches_multivalued_part(rng):
    # the top-block SVD's multivalued part and operator test against the
    # intersect route on every fixture relation (with its doubled relations),
    # every enumerate hit, planted multivalued parts and graphs with dim > n
    rels = []
    for spec in (
        cs.race_schrodinger(16),
        cs.fd_derivative_minimal(16),
        cs.zero_on_subspace(16),
        cs.random_csym(8),
        cs.random_restriction(4, 3),
    ):
        dp = cs.build_doubled(spec.relation(), spec.conjugation())
        rels += [dp.a, dp.b, dp.a_star, dp.b_star, frak_a(dp), frak_a_star(dp)]
        rels += hit_relations(dp, cs.brute_force_extensions(dp, budget=200, seed=0))
    n = 5
    for k in range(1, 2 * n + 1):
        rels.append(random_relation(rng, n, k))
    for mul in (1, 2):
        cols = np.vstack([random_complex(rng, n, 3), random_complex(rng, n, 3)])
        cols[:n, :mul] = 0.0
        rels.append(cs.LinearRelation(cs.orthonormal_basis(cols)))
    rels += [zero_relation(3), full_relation(3), cs.from_matrix(np.zeros((3, 3)))]
    references = [_multivalued_reference(rel) for rel in rels]
    for rel, reference in zip(rels, references):
        assert within(rel.multivalued_part(), reference, 1e-9, equal=True)
    verdicts = [rel.is_operator for rel in rels]
    assert verdicts == [reference.dim == 0 for reference in references]
    assert any(verdicts) and not all(verdicts)
    assert not random_relation(rng, n, n + 1).is_operator
