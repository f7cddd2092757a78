"""Conjugations, partial conjugations, invariant bases, semilinear words."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csymlab as cs

from conftest import count_calls, random_complex, within


def test_entrywise_and_flip_are_conjugations():
    for c in (cs.entrywise_conjugation(4), cs.flip_conjugation(5)):
        inv, iso = cs.conjugation_axiom_residuals(c.matrix)
        assert inv <= 1e-14 and iso <= 1e-14
        x = np.arange(c.dim) + 1j
        np.testing.assert_allclose(c.apply(c.apply(x)), x, atol=1e-14)


def test_flip_reverses_coordinates():
    c = cs.flip_conjugation(3)
    np.testing.assert_allclose(c.apply(np.array([1.0, 2j, 3.0])), [3.0, -2j, 1.0])


def test_random_conjugation_axioms(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        c = cs.random_conjugation(n, rng)
        x = random_complex(rng, n)
        y = random_complex(rng, n)
        assert np.linalg.norm(c.apply(c.apply(x)) - x) <= 1e-12 * (1 + np.linalg.norm(x))
        lhs = cs.inner(c.apply(x), c.apply(y))
        rhs = cs.inner(y, x)
        assert abs(lhs - rhs) <= 1e-10


def test_conjugation_rejects_nonsymmetric_unitary():
    # unitary but K^T != K: fails the involution
    k = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    with pytest.raises(cs.InputError):
        cs.Conjugation(k)


def test_antilinearity_of_apply(rng):
    c = cs.random_conjugation(4, rng)
    x = random_complex(rng, 4)
    np.testing.assert_allclose(c.apply(2j * x), -2j * c.apply(x), atol=1e-12)


def test_invariant_onb_properties(rng):
    for _ in range(40):
        n = int(rng.integers(1, 9))
        c = cs.random_conjugation(n, rng)
        k = int(rng.integers(1, n + 1))
        # C-invariant subspace: span of fixed vectors v + Cv
        raw = random_complex(rng, n, k)
        fixed = raw + np.column_stack([c.apply(v) for v in raw.T])
        s = cs.orthonormal_basis(fixed)
        if s.dim == 0:
            continue
        onb = cs.invariant_onb(c, s)
        assert onb.shape == (n, s.dim)
        np.testing.assert_allclose(onb.conj().T @ onb, np.eye(s.dim), atol=1e-10)
        for v in onb.T:
            assert np.linalg.norm(c.apply(v) - v) <= 1e-9
            assert within(v, s, 1e-9)


def test_invariant_onb_deterministic(rng):
    c = cs.random_conjugation(5, rng)
    raw = random_complex(rng, 5, 3)
    fixed = raw + np.column_stack([c.apply(v) for v in raw.T])
    s = cs.orthonormal_basis(fixed)
    first = cs.invariant_onb(c, s)
    second = cs.invariant_onb(c, s)
    np.testing.assert_array_equal(first, second)


def test_invariant_onb_rejects_noninvariant_subspace(rng):
    c = cs.flip_conjugation(4)
    s = cs.orthonormal_basis(np.array([[1.0], [1j], [0.0], [0.0]]))
    assert not cs.antilinear.preserves_subspace(c, s)
    with pytest.raises(cs.InputError):
        cs.invariant_onb(c, s)


def test_conjugation_from_onb_roundtrip(rng):
    c = cs.random_conjugation(6, rng)
    onb = cs.invariant_onb(c, cs.full_space(6))
    # the conjugation fixing every column of an orthonormal basis V is V V^T
    np.testing.assert_allclose(onb @ onb.T, c.matrix, atol=1e-9)


def test_partial_conjugation_axioms(rng):
    # restriction of a conjugation to an invariant subspace, zero elsewhere
    c = cs.random_conjugation(5, rng)
    onb = cs.invariant_onb(c, cs.full_space(5))[:, :3]
    p = onb @ onb.conj().T
    m = p @ c.matrix @ p.T
    j = cs.PartialConjugation(m)
    x = random_complex(rng, 5)
    inside = p @ x
    np.testing.assert_allclose(j.apply(j.apply(inside)), inside, atol=1e-10)
    outside = x - inside
    np.testing.assert_allclose(j.apply(outside), 0.0, atol=1e-10)


def test_partial_conjugation_makes_no_svd(monkeypatch):
    # it checks the axioms on its matrix and builds no basis of its initial space
    calls = count_calls(monkeypatch, cs.linalg, "orthonormal_basis")
    cs.PartialConjugation(np.diag([1.0, 0.0]).astype(complex))
    assert calls == []


def test_partial_conjugation_rejects_defective_matrix():
    with pytest.raises(cs.InputError):
        cs.PartialConjugation(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_conjugation_isometry_property(n, seed):
    rng = np.random.default_rng(seed)
    c = cs.random_conjugation(n, rng)
    x = random_complex(rng, n)
    assert np.linalg.norm(c.apply(x)) == pytest.approx(np.linalg.norm(x), abs=1e-10)
