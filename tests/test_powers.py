"""Block powers of the doubled operator, norm identities, quasi-analytic sums."""

import numpy as np
import pytest

import csymlab as cs
from csymlab import powers

from conftest import random_complex


def ac_apply(a, c, x, m):
    """(AC)^m x by m literal applications of A after C."""
    for _ in range(m):
        x = a @ c.apply(x)
    return x


def brute_power(a, c, n, order):
    k = c.matrix
    b = k @ np.conj(a) @ np.conj(k)
    z = np.zeros_like(a)
    frak = np.block([[z, a], [b, z]])
    return np.linalg.matrix_power(frak, order)


def test_block_power_identity_random(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        c = cs.random_conjugation(n, rng)
        a = random_complex(rng, n, n)
        for order in range(1, 6):
            rep = cs.doubled_power_blocks(cs.doubled_matrix(a, c), order)
            assert rep.checks.all_pass, (order, rep.checks.to_list())


def test_even_powers_are_block_diagonal(rng):
    c = cs.entrywise_conjugation(3)
    a = random_complex(rng, 3, 3)
    direct = brute_power(a, c, 3, 4)
    np.testing.assert_allclose(direct[:3, 3:], 0.0, atol=1e-10)
    np.testing.assert_allclose(direct[3:, :3], 0.0, atol=1e-10)
    # the diagonal block is the linear map (AC)^4
    x = random_complex(rng, 3)
    np.testing.assert_allclose(direct[:3, :3] @ x, ac_apply(a, c, x, 4), atol=1e-9)


def test_odd_powers_are_off_diagonal(rng):
    c = cs.flip_conjugation(2)
    a = random_complex(rng, 2, 2)
    direct = brute_power(a, c, 2, 3)
    np.testing.assert_allclose(direct[:2, :2], 0.0, atol=1e-10)
    np.testing.assert_allclose(direct[2:, 2:], 0.0, atol=1e-10)


def test_power_identity_scalar_case():
    # A = 2I, entrywise C: frak^2 = 4I exactly
    a = 2.0 * np.eye(2)
    c = cs.entrywise_conjugation(2)
    np.testing.assert_allclose(brute_power(a, c, 2, 2), 4.0 * np.eye(4), atol=1e-14)
    rep = cs.doubled_power_blocks(cs.doubled_matrix(a, c), 2)
    assert rep.checks.all_pass


@pytest.mark.parametrize("order", [2, 3])
def test_block_at_a_zero_position_fails_the_block_identity(rng, monkeypatch, order):
    # frakA^n with its top nonzero block also placed at a zero position: the
    # block identity compares every entry, zero positions included, so it
    # fails, and alone, since the realified cross-check never reads frakA^n
    dim = 3
    c = cs.random_conjugation(dim, rng)
    a = random_complex(rng, dim, dim)
    original = np.linalg.matrix_power

    def misplaced(m, n):
        power = original(m, n)
        if np.iscomplexobj(m):  # frakA; the realified path is real
            top = power[:dim, :dim] if n % 2 == 0 else power[:dim, dim:]
            zero = power[:dim, dim:] if n % 2 == 0 else power[:dim, :dim]
            zero[...] = top
        return power

    monkeypatch.setattr(np.linalg, "matrix_power", misplaced)
    rep = cs.doubled_power_blocks(cs.doubled_matrix(a, c), order)
    assert [check.name for check in rep.checks if check.status == "fail"] == ["power_block_identity"]
    assert rep.block_residual > 1e-3


def test_ac_word_matches_iterated_application(rng):
    # W_m acts as x -> W_m x for even m and x -> W_m conj(x) for odd m
    n = 4
    c = cs.random_conjugation(n, rng)
    a = random_complex(rng, n, n)
    d = cs.doubled_matrix(a, c)
    np.testing.assert_allclose(d.ak, a @ c.matrix)
    x = random_complex(rng, n)
    for m in range(6):
        w = powers._ac_word(d.ak, m)
        np.testing.assert_allclose(w @ (x if m % 2 == 0 else np.conj(x)), ac_apply(a, c, x, m), atol=1e-9)


def test_realify_intertwines_antilinear_action(rng):
    # x -> M conj(x) on (Re x, Im x), and _derealify inverts the linear realify
    m = random_complex(rng, 3, 3)
    x = random_complex(rng, 3)
    out = powers._realify(m) @ np.concatenate([x.real, x.imag])
    np.testing.assert_allclose(out[:3] + 1j * out[3:], m @ np.conj(x), atol=1e-12)
    linear = np.block([[m.real, -m.imag], [m.imag, m.real]])
    back, shape_res = powers._derealify(linear)
    np.testing.assert_allclose(back, m)
    assert shape_res == 0.0
    # a real matrix that is not complex-linear leaves a shape residual
    assert powers._derealify(powers._realify(m))[1] > 0.1


@pytest.mark.parametrize("order", [1, 2, 3])
def test_sign_flipped_realify_fails_the_crosscheck_alone(rng, monkeypatch, order):
    # realify with the imaginary blocks negated realifies conj(M) instead of
    # M: the second path then evaluates the wrong words, and only the
    # cross-check reads it
    dim = 3
    c = cs.random_conjugation(dim, rng)
    a = random_complex(rng, dim, dim)
    x, y = random_complex(rng, dim), random_complex(rng, dim)
    d = cs.doubled_matrix(a, c)
    assert cs.power_report(d, x, y, order).checks.all_pass

    def flipped(m):
        return np.block([[m.real, -m.imag], [-m.imag, -m.real]])

    monkeypatch.setattr(powers, "_realify", flipped)
    rep = cs.power_report(d, x, y, order)
    assert [check.name for check in rep.checks if check.status == "fail"] == ["power_evaluation_crosscheck"]
    assert rep.crosscheck_residual > 1e-3


def test_norm_identities(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        c = cs.random_conjugation(n, rng)
        a = random_complex(rng, n, n)
        x = random_complex(rng, n)
        y = random_complex(rng, n)
        for order in range(1, 4):
            dev_even, dev_odd = cs.power_norm_identities(cs.doubled_matrix(a, c), x, y, order)
            scale = (1.0 + np.linalg.norm(a, 2)) ** (2 * order + 1)
            cap = 1e-9 * scale * max(1.0, np.linalg.norm(x) ** 2 + np.linalg.norm(y) ** 2)
            assert dev_even <= cap and dev_odd <= cap


def test_norm_identity_explicit(rng):
    # ||frak^m (x, y)||^2 = ||(AC)^m x||^2 + ||(AC)^m C y||^2, checked by hand
    n = 3
    c = cs.random_conjugation(n, rng)
    a = random_complex(rng, n, n)
    x, y = random_complex(rng, n), random_complex(rng, n)
    m = 2
    frak_m = brute_power(a, c, n, m)
    lhs = np.linalg.norm(frak_m @ np.concatenate([x, y])) ** 2
    rhs = np.linalg.norm(ac_apply(a, c, x, m)) ** 2 + np.linalg.norm(ac_apply(a, c, c.apply(y), m)) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_power_report_assembles(rng):
    for _ in range(5):
        n = int(rng.integers(1, 5))
        c = cs.random_conjugation(n, rng)
        a = random_complex(rng, n, n)
        x, y = random_complex(rng, n), random_complex(rng, n)
        for order in range(1, 6):
            rep = cs.power_report(cs.doubled_matrix(a, c), x, y, order)
            assert rep.checks.all_pass, (order, rep.checks.to_list())
            assert rep.n == order


def test_qa_terms_identity():
    # A = I: ||(AC)^k x|| = 1 for unit x, terms all 1, sums grow linearly;
    # diverged stays False because it flags annihilation, not a finite-budget
    # guess about the series
    c = cs.entrywise_conjugation(2)
    qa = cs.qa_partial_sums(cs.doubled_matrix(np.eye(2), c), np.array([1.0, 0.0]), 6)
    np.testing.assert_allclose(qa.terms, 1.0)
    np.testing.assert_allclose(qa.partial_sums, np.arange(1, 7, dtype=float))
    assert not qa.diverged
    assert qa.growth_bound == pytest.approx(1.0)


def test_qa_scalar_growth():
    # A = 2I: terms are 1/2 each, growth bound is max_k (2^k / k!)^(1/k) = 2
    c = cs.entrywise_conjugation(3)
    qa = cs.qa_partial_sums(cs.doubled_matrix(2.0 * np.eye(3), c), np.ones(3) / np.sqrt(3), 8)
    np.testing.assert_allclose(qa.terms, 0.5)
    assert qa.growth_bound == pytest.approx(2.0)


def test_qa_nilpotent_annihilation():
    # (AC) e2 = e1, (AC)^2 e2 = 0: the series hits an infinite term
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    c = cs.entrywise_conjugation(2)
    qa = cs.qa_partial_sums(cs.doubled_matrix(a, c), np.array([0.0, 1.0]), 5)
    assert qa.terms[0] == pytest.approx(1.0)
    assert np.isinf(qa.terms[1])
    assert qa.diverged


@pytest.mark.parametrize("scale", [1e-6, 1e-11])
def test_qa_small_scale_annihilates_nothing(scale):
    # A = scale diag(1, 2, 3) is invertible: every term is finite, since the
    # annihilation cut is relative to ||A|| and to the previous step
    c = cs.entrywise_conjugation(3)
    x = np.ones(3) / np.sqrt(3)
    qa = cs.qa_partial_sums(cs.doubled_matrix(scale * np.diag([1.0, 2.0, 3.0]), c), x, 8)
    assert not qa.diverged
    assert np.all(np.isfinite(qa.terms))
    # ||(AC)^k x|| lies between scale^k and (3 scale)^k, so each term is
    # between 1/(3 scale) and 1/scale
    assert all(1 / (3 * scale) <= term <= 1 / scale for term in qa.terms)


def test_qa_rejects_zero_vector():
    with pytest.raises(cs.InputError):
        cs.qa_partial_sums(cs.doubled_matrix(np.eye(2), cs.entrywise_conjugation(2)), np.zeros(2), 4)


def test_qa_accepts_a_tiny_nonzero_vector():
    # only the exact zero vector is refused: the cut is not absolute
    qa = cs.qa_partial_sums(cs.doubled_matrix(np.eye(3), cs.entrywise_conjugation(3)), 1e-13 * np.ones(3), 4)
    assert not qa.diverged
    np.testing.assert_allclose(qa.terms, [(np.sqrt(3.0) * 1e-13) ** (-1.0 / k) for k in range(1, 5)])


def test_power_rejects_bad_order(rng):
    c = cs.entrywise_conjugation(2)
    a = random_complex(rng, 2, 2)
    with pytest.raises(cs.InputError):
        cs.doubled_power_blocks(cs.doubled_matrix(a, c), 0)
