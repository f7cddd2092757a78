"""Subspace arithmetic against a Gram-determinant rank oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csymlab as cs

from conftest import random_complex


def gram_rank(vectors, tol=1e-10):
    """Independent rank count: greedy Gram-Schmidt with explicit renormalization."""
    basis = []
    for v in np.asarray(vectors, dtype=complex).T:
        w = v.copy()
        for b in basis:
            w = w - np.vdot(b, w) * b
        norm = np.linalg.norm(w)
        if norm > tol * max(1.0, np.linalg.norm(v)):
            basis.append(w / norm)
    return len(basis)


def test_inner_is_linear_in_first_argument():
    u = np.array([1.0, 2j])
    v = np.array([1j, 1.0])
    assert cs.inner(2j * u, v) == pytest.approx(2j * cs.inner(u, v))
    assert cs.inner(u, 2j * v) == pytest.approx(-2j * cs.inner(u, v))
    assert cs.inner(u, u).imag == pytest.approx(0.0)


def test_orthonormal_basis_matches_gram_rank(rng):
    for _ in range(50):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, 6))
        cols = random_complex(rng, n, k)
        # inject dependent columns half the time
        if k >= 2 and rng.random() < 0.5:
            cols[:, -1] = cols[:, 0] * (1 + 2j)
        s = cs.orthonormal_basis(cols)
        assert s.dim == gram_rank(cols)
        gram = s.basis.conj().T @ s.basis
        np.testing.assert_allclose(gram, np.eye(s.dim), atol=1e-12)
        # span unchanged
        for v in cols.T:
            assert s.contains_vector(v)


def test_projector_properties(rng):
    s = cs.orthonormal_basis(random_complex(rng, 6, 3))
    p = s.projector()
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    np.testing.assert_allclose(p.conj().T, p, atol=1e-12)
    assert np.trace(p).real == pytest.approx(s.dim)


def test_complement_and_sum(rng):
    for _ in range(20):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 1))
        s = cs.orthonormal_basis(random_complex(rng, n, k)) if k else cs.zero_subspace(n)
        comp = cs.complement(s)
        assert s.dim + comp.dim == n
        assert cs.subspace_equal(cs.subspace_sum(s, comp), cs.full_space(n))
        overlap = cs.intersect(s, comp)
        assert overlap.dim == 0


def test_intersect_dimension_formula(rng):
    # dim(S1 + S2) + dim(S1 ^ S2) = dim S1 + dim S2
    for _ in range(30):
        n = int(rng.integers(2, 9))
        s1 = cs.orthonormal_basis(random_complex(rng, n, int(rng.integers(1, n + 1))))
        s2 = cs.orthonormal_basis(random_complex(rng, n, int(rng.integers(1, n + 1))))
        total = cs.subspace_sum(s1, s2)
        meet = cs.intersect(s1, s2)
        assert total.dim + meet.dim == s1.dim + s2.dim


def test_intersect_exact_overlap(rng):
    base = random_complex(rng, 7, 3)
    extra1 = random_complex(rng, 7, 2)
    extra2 = random_complex(rng, 7, 2)
    s1 = cs.orthonormal_basis(np.hstack([base, extra1]))
    s2 = cs.orthonormal_basis(np.hstack([base, extra2]))
    meet = cs.intersect(s1, s2)
    assert meet.dim == 3
    assert cs.is_subspace_of(cs.orthonormal_basis(base), meet)


def test_max_angle_sin_extremes(rng):
    s = cs.orthonormal_basis(random_complex(rng, 5, 2))
    assert cs.max_angle_sin(s, s) == pytest.approx(0.0, abs=1e-12)
    e1 = cs.orthonormal_basis(np.eye(4)[:, :1])
    e2 = cs.orthonormal_basis(np.eye(4)[:, 1:2])
    assert cs.max_angle_sin(e1, e2) == pytest.approx(1.0)


def test_subspace_equal_is_basis_independent(rng):
    cols = random_complex(rng, 6, 3)
    mix = cols @ random_complex(rng, 3, 3)
    if gram_rank(mix) == 3:
        assert cs.subspace_equal(cs.orthonormal_basis(cols), cs.orthonormal_basis(mix))


def test_map_subspace(rng):
    m = random_complex(rng, 5, 5)
    s = cs.orthonormal_basis(random_complex(rng, 5, 2))
    image = cs.map_subspace(m, s)
    for v in s.basis.T:
        assert image.contains_vector(m @ v)


def test_tolerance_validation():
    with pytest.raises(cs.InputError):
        cs.Tolerance(eps=-1.0)
    assert cs.DEFAULT_TOL.zero_cutoff(10.0) == pytest.approx(10.0 * cs.DEFAULT_TOL.eps)


def test_zero_and_full():
    z = cs.zero_subspace(4)
    f = cs.full_space(4)
    assert z.dim == 0 and f.dim == 4
    assert cs.subspace_equal(cs.complement(z), f)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**32 - 1))
def test_double_complement_identity(n, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, n + 1))
    s = cs.orthonormal_basis(random_complex(rng, n, k)) if k else cs.zero_subspace(n)
    assert cs.subspace_equal(cs.complement(cs.complement(s)), s)


MACHINE_EPS = np.finfo(float).eps


def complement_formula(s1, s2):
    """Reference intersection: complement(complement(S1) + complement(S2))."""
    return cs.complement(cs.subspace_sum(cs.complement(s1), cs.complement(s2)))


def assert_same_subspace(a, b):
    assert a.dim == b.dim
    assert max(cs.max_angle_sin(a, b), cs.max_angle_sin(b, a)) <= 1e3 * MACHINE_EPS


def test_intersect_matches_complement_formula_with_planted_overlap(rng):
    for n in (8, 32, 128, 256):
        for _ in range(3):
            k = int(rng.integers(1, n // 4 + 1))
            base = random_complex(rng, n, k)
            s1 = cs.orthonormal_basis(np.hstack([base, random_complex(rng, n, int(rng.integers(0, n // 3)))]))
            s2 = cs.orthonormal_basis(np.hstack([base, random_complex(rng, n, int(rng.integers(0, n // 3)))]))
            meet = cs.intersect(s1, s2)
            assert meet.dim == k
            assert_same_subspace(meet, complement_formula(s1, s2))
            assert_same_subspace(meet, cs.intersect(s2, s1))
            np.testing.assert_allclose(meet.basis.conj().T @ meet.basis, np.eye(k), atol=1e3 * MACHINE_EPS)


def test_intersect_edge_cases(rng):
    n = 16
    s = cs.orthonormal_basis(random_complex(rng, n, 6))
    inner = cs.orthonormal_basis(s.basis @ random_complex(rng, 6, 3))
    empty = cs.zero_subspace(n)
    assert cs.intersect(empty, s).dim == 0
    assert cs.intersect(s, empty).dim == 0
    for s1, s2, expected in ((inner, s, inner), (s, inner, inner), (s, s, s)):
        assert_same_subspace(cs.intersect(s1, s2), expected)
        assert_same_subspace(complement_formula(s1, s2), expected)


@pytest.mark.parametrize("angle, merged", [(1e-13, True), (1e-6, False)])
def test_intersect_angle_threshold(rng, angle, merged):
    # span{q0, q2} and span{cos(angle) q0 + sin(angle) q1, q2} share q2 exactly
    q = cs.orthonormal_basis(random_complex(rng, 12, 3)).basis
    tilted = np.cos(angle) * q[:, :1] + np.sin(angle) * q[:, 1:2]
    s1 = cs.Subspace(q[:, [0, 2]])
    s2 = cs.orthonormal_basis(np.hstack([tilted, q[:, 2:]]))
    expected = 2 if merged else 1
    assert cs.intersect(s1, s2).dim == expected
    assert complement_formula(s1, s2).dim == expected
    assert cs.intersect(cs.Subspace(q[:, :1]), cs.Subspace(tilted)).dim == expected - 1
