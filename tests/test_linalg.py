"""Subspace arithmetic against a Gram-determinant rank oracle."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csymlab as cs

from conftest import orthogonal_difference, random_complex, within


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
            assert within(v, s, 1e-10)


def test_orthonormal_basis_takes_only_a_2d_array():
    # np.asarray would read this list of two vectors in C^3 as two rows
    vectors = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    for bad in (vectors, tuple(vectors), vectors[0], np.zeros((2, 2, 2))):
        with pytest.raises(cs.InputError, match="2-d array"):
            cs.orthonormal_basis(bad)
    assert cs.orthonormal_basis(np.column_stack(vectors)).ambient_dim == 3


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
        assert within(cs.subspace_sum(s, comp), cs.full_space(n), 1e-10, equal=True)
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
    assert within(cs.orthonormal_basis(base), meet, 1e-10)


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
        s1, s2 = cs.orthonormal_basis(cols), cs.orthonormal_basis(mix)
        assert cs.subspace_equal(s1, s2) and within(s1, s2, 1e-10, equal=True)


def test_tolerance_validation():
    with pytest.raises(cs.InputError):
        cs.Tolerance(eps=-1.0)
    assert cs.DEFAULT_TOL.zero_cutoff(10.0) == pytest.approx(10.0 * cs.DEFAULT_TOL.eps)


def test_check_bound_lives_in_tolerance_only():
    # one tolerance policy: the 1e3 factor of the check bound is written in
    # Tolerance.bound and nowhere else in the package
    src = Path(cs.__file__).parent
    tree = ast.parse((src / "linalg.py").read_text())
    tol_cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Tolerance")
    literal = re.compile(r"\b1e3\s*\*")
    stray = []
    for path in sorted(src.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            inside = path.name == "linalg.py" and tol_cls.lineno <= lineno <= tol_cls.end_lineno
            if literal.search(line) and not inside:
                stray.append(f"{path.name}:{lineno}")
    assert not stray


def test_whole_space_shortcut_needs_the_containing_side_whole(rng, monkeypatch):
    # every subspace lies in the whole space, decided with no product; the
    # whole space lies in a proper subspace never, and equals only a
    # subspace of full dimension
    whole = cs.full_space(5)
    rotated = cs.orthonormal_basis(random_complex(rng, 5, 5))
    proper = cs.orthonormal_basis(random_complex(rng, 5, 3))
    residuals = []
    original = cs.linalg._angle_residual
    monkeypatch.setattr(cs.linalg, "_angle_residual", lambda s1, s2: residuals.append(1) or original(s1, s2))
    assert cs.is_subspace_of(proper, whole) and cs.is_subspace_of(whole, rotated)
    assert cs.subspace_equal(rotated, whole) and cs.subspace_equal(whole, rotated)
    assert not residuals
    assert not cs.is_subspace_of(whole, proper)
    assert not cs.subspace_equal(whole, proper) and not cs.subspace_equal(proper, whole)


def test_zero_and_full():
    z = cs.zero_subspace(4)
    f = cs.full_space(4)
    assert z.dim == 0 and f.dim == 4
    assert within(cs.complement(z), f, 1e-10, equal=True)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**32 - 1))
def test_double_complement_identity(n, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, n + 1))
    s = cs.orthonormal_basis(random_complex(rng, n, k)) if k else cs.zero_subspace(n)
    assert within(cs.complement(cs.complement(s)), s, 1e-10, equal=True)


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


def test_orthogonal_difference_matches_complement_formula(rng):
    # S1 = k planted directions orthogonal to S2 plus at most dim S2 random
    # ones, so S1 cap S2^perp has dimension k; dim S2 is below and above dim S1
    for n in (8, 32, 128):
        for _ in range(3):
            s2 = cs.orthonormal_basis(random_complex(rng, n, int(rng.integers(1, n // 2))))
            k = int(rng.integers(1, (n - s2.dim) // 2 + 1))
            planted = cs.complement(s2).basis @ random_complex(rng, n - s2.dim, k)
            s1 = cs.orthonormal_basis(np.hstack([planted, random_complex(rng, n, int(rng.integers(0, s2.dim + 1)))]))
            diff = orthogonal_difference(s1, s2)
            assert diff.dim == k
            assert_same_subspace(diff, complement_formula(s1, cs.complement(s2)))
            np.testing.assert_allclose(diff.basis.conj().T @ diff.basis, np.eye(k), atol=1e3 * MACHINE_EPS)


def test_orthogonal_difference_edge_cases(rng):
    n = 16
    s = cs.orthonormal_basis(random_complex(rng, n, 6))
    inner = cs.orthonormal_basis(s.basis @ random_complex(rng, 6, 3))
    outer = cs.complement(s)
    empty = cs.zero_subspace(n)
    assert orthogonal_difference(empty, s).dim == 0
    for s1, s2, expected in ((s, empty, s), (inner, s, empty), (s, s, empty), (s, outer, s), (s, inner, None)):
        diff = orthogonal_difference(s1, s2)
        if expected is None:  # the part of S outside its subspace inner
            assert diff.dim == 3 and cs.is_subspace_of(diff, s)
            assert np.abs(inner.basis.conj().T @ diff.basis).max() <= 1e3 * MACHINE_EPS
        else:
            assert_same_subspace(diff, expected)


@pytest.mark.parametrize("angle, outside", [(1e-13, True), (1e-6, False)])
def test_orthogonal_difference_angle_threshold(rng, angle, outside):
    # q0 against cos(angle) q1 + sin(angle) q0: the cosine is sin(angle),
    # cut at zero_cutoff(1.0) like intersect's sines
    q = cs.orthonormal_basis(random_complex(rng, 12, 2)).basis
    tilted = np.cos(angle) * q[:, 1:] + np.sin(angle) * q[:, :1]
    assert orthogonal_difference(cs.Subspace(q[:, :1]), cs.Subspace(tilted)).dim == int(outside)


@pytest.mark.parametrize("shape", [(40, 7), (7, 40), (16, 16), (1, 9), (9, 1), (0, 5), (5, 0)])
@pytest.mark.parametrize("scale", [1.0, 1e-14, 1e8])
def test_spectral_norm_matches_numpy(rng, shape, scale):
    m = scale * random_complex(rng, *shape)
    reference = float(np.linalg.norm(m, 2)) if m.size else 0.0
    assert abs(cs.linalg._spectral_norm(m) - reference) <= 1e-12 * reference
    if m.size:
        low_rank = m[:, :1] @ m[:1, :] if min(shape) > 1 else m
        ref = float(np.linalg.norm(low_rank, 2))
        assert abs(cs.linalg._spectral_norm(low_rank) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("scale", [1e308, 1e200, 1e-200, 1e-310])
def test_spectral_norm_of_extreme_entries_is_exact(rng, scale):
    # the Gram matrix squares the entries: unscaled, 1e308 gave inf and
    # 1e-200 gave 0.  The power-of-two scaling is exact
    m = random_complex(rng, 5, 3)
    m /= np.abs(m).max()
    reference = float(np.linalg.norm(m, 2))
    assert cs.linalg._spectral_norm(scale * m) == pytest.approx(scale * reference, rel=1e-13)
    stack = np.stack([m, scale * m])
    norms = cs.linalg._spectral_norms(stack)
    assert norms[0] == cs.linalg._spectral_norm(m)
    assert norms[1] == pytest.approx(scale * reference, rel=1e-13)


def test_doubled_matrix_of_the_extreme_scalar_has_its_norm():
    # the 1 x 1 operator 1e308: ||A||_2 = 1e308, which the Gram product read as inf
    doubled = cs.doubled_matrix(np.array([[1e308]]), cs.entrywise_conjugation(1))
    assert doubled.norm == 1e308


@pytest.mark.parametrize("n, r", [(8, 3), (32, 20), (64, 1), (40, 38), (6, 0)])
def test_complement_columns_span_the_complement(rng, n, r):
    # pivoted Cholesky of I - G G^H: an orthonormal basis of span(G)^perp of
    # the known dimension n - r, against the complement's full SVD
    g = cs.orthonormal_basis(random_complex(rng, n, r), ambient_dim=n).basis
    cols = cs.linalg._complement_columns(g, n - r, "test")
    assert cols.shape == (n, n - r)
    assert np.abs(cols.conj().T @ cols - np.eye(n - r)).max() <= 1e3 * MACHINE_EPS
    assert np.abs(g.conj().T @ cols).max(initial=0.0) <= 1e3 * MACHINE_EPS
    assert within(cs.Subspace(cols), cs.complement(cs.Subspace(g)), 1e-12, equal=True)


def test_complement_columns_refuse_a_dimension_the_projector_lacks(rng):
    # asked for one column more than span(G)^perp has, the last pivot is at
    # rounding level, far below half of its exact lower bound
    g = cs.orthonormal_basis(random_complex(rng, 10, 4)).basis
    with pytest.raises(cs.PropertyViolationError, match="frakM: pivoted Cholesky .* column 7 of 7"):
        cs.linalg._complement_columns(g, 7, "frakM")


def test_max_angle_sin_makes_no_svd(rng, monkeypatch):
    s1 = cs.orthonormal_basis(random_complex(rng, 20, 4))
    s2 = cs.orthonormal_basis(random_complex(rng, 20, 9))
    expected = float(np.linalg.norm(s1.basis - s2.projector() @ s1.basis, 2))

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert cs.max_angle_sin(s1, s2) == pytest.approx(expected, rel=1e-12)


def _norm_within_case(rng, kind, shape, factor):
    """(m, bound) of one kind.  "random": Gaussian; "rank_one": an outer
    product, whose Frobenius norm is its 2-norm; "flat": orthonormal rows
    or columns, every singular value 1, so the Frobenius norm is sqrt(r)
    times the 2-norm; "between": flat with ||m||_2 <= bound < ||m||_F for
    0 < factor < 1.  Otherwise bound is factor times ||m||_2, or factor
    when m has no entries."""
    rows, cols = shape
    if kind == "random":
        m = random_complex(rng, rows, cols)
    elif kind == "rank_one":
        m = random_complex(rng, rows, 1) @ random_complex(rng, 1, cols)
    else:
        q = cs.orthonormal_basis(random_complex(rng, max(shape), min(shape))).basis
        m = q if rows >= cols else q.T
    norm = float(np.linalg.norm(m, 2)) if m.size else 0.0
    if kind == "between":
        root = np.sqrt(min(shape))
        return m, norm * (1.0 + (root - 1.0) * factor)
    return m, factor * norm if norm else factor


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8])
def test_norm_within_agrees_with_spectral_norm(rng, monkeypatch, scale):
    # each draw decides like _spectral_norm(m) <= bound, and every branch
    # of the certificate runs: Frobenius accept, Frobenius reject, 2-norm
    spectral = cs.linalg._spectral_norm
    spectral_norms = cs.linalg._spectral_norms
    fallbacks = []

    def counted(m):
        fallbacks.append(m.shape)
        return spectral_norms(m)

    monkeypatch.setattr(cs.linalg, "_spectral_norms", counted)
    branches = {}
    shapes = [(5, 0), (0, 5), (1, 7), (7, 1), (6, 6), (9, 4), (4, 9)]
    for kind in ("random", "rank_one", "flat", "between"):
        for shape in shapes:
            if kind == "between" and min(shape) < 2:
                continue
            for factor in (0.2, 0.5, 0.9) + ((1.1, 3.0) if kind != "between" else ()):
                m, bound = _norm_within_case(rng, kind, shape, factor)
                m, bound = scale * m, scale * bound
                expected = spectral(m) <= bound
                del fallbacks[:]
                decided = cs.linalg._norm_within(m, bound)
                assert decided == expected, (kind, shape, factor)
                branch = "2-norm" if fallbacks else ("within" if decided else "outside")
                branches.setdefault(branch, set()).add(kind)
                if kind == "between":
                    assert branch == "2-norm" and decided
    assert set(branches) == {"within", "outside", "2-norm"}
    # rank one (F = ||m||_2) reaches both Frobenius verdicts
    assert "rank_one" in branches["within"] and "rank_one" in branches["outside"]


def test_frobenius_norms_keep_the_bits_of_numpy_norm(rng):
    # the certificate's Frobenius norm of each matrix of a stack is
    # np.linalg.norm of that matrix alone, bit for bit, whatever its layout
    big = random_complex(rng, 40, 12)
    for m in (big[:30, :7], big[:30, :7].T, np.asfortranarray(big[:30, :7]), big.conj().T[2:9, 1:30]):
        assert cs.linalg._frobenius_norms(m[None])[0] == np.linalg.norm(m)
    stack = np.stack([big[:30, :7], big[5:35, 3:10], 1e-13 * big[10:40, 5:12]])
    assert cs.linalg._frobenius_norms(stack).tolist() == [np.linalg.norm(m) for m in stack]
    assert cs.linalg._norms_within(np.zeros((0, 3, 3), dtype=complex), 1.0).shape == (0,)


def test_predicates_take_no_gram_eigenvalues(rng, monkeypatch):
    # containment far inside or far outside the bound is settled by the
    # Frobenius norm alone
    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    s = cs.orthonormal_basis(random_complex(rng, 20, 4))
    t = cs.orthonormal_basis(random_complex(rng, 20, 4))
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    assert cs.subspace_equal(s, cs.Subspace(s.basis[:, ::-1]))
    assert not cs.is_subspace_of(s, t)


def coordinate_block(n2, rows):
    basis = np.zeros((n2, len(rows)), dtype=complex)
    basis[rows, np.arange(len(rows))] = 1.0
    return cs.Subspace(basis)


@pytest.mark.parametrize("n", [3, 8, 32])
def test_intersect_with_coordinate_blocks_matches_complement_formula(rng, n):
    # the residual against a coordinate block has exactly zero rows there;
    # dropping them must change neither the dimension nor the subspace
    rows = np.arange(n, 3 * n)
    block = coordinate_block(4 * n, rows)
    for planted in (0, 1, n // 2):
        inside = np.zeros((4 * n, planted), dtype=complex)
        inside[rows] = random_complex(rng, 2 * n, planted)
        s = cs.orthonormal_basis(np.hstack([inside, random_complex(rng, 4 * n, 2 * n - planted)]))
        for s1, s2 in ((s, block), (block, s)):
            meet = cs.intersect(s1, s2)
            assert meet.dim == planted
            assert_same_subspace(meet, cs.extensions._complement_formula_intersect(cs.complement(s1), s2))


@pytest.mark.parametrize("n", [2, 4, 9])
def test_kernel_with_wide_residual(n):
    # graph = span{(e_j, 0) : j < n-1} + (e_{n-1}, e_0)/sqrt2 + (0, e_1), of
    # dimension n + 1 > n: against the block {(x, 0)}, the residual keeps two
    # nonzero rows for n columns, and n - 1 of the sines are the missing ones
    g = np.zeros((2 * n, n + 1), dtype=complex)
    g[np.arange(n - 1), np.arange(n - 1)] = 1.0
    g[[n - 1, n], n - 1] = 1 / np.sqrt(2.0)
    g[n + 1, n] = 1.0
    graph = cs.Subspace(g)
    top = coordinate_block(2 * n, np.arange(n))
    kernel = cs.intersect(graph, top)
    assert_same_subspace(kernel, cs.extensions._complement_formula_intersect(cs.complement(graph), top))
    assert_same_subspace(kernel, coordinate_block(2 * n, np.arange(n - 1)))
    # all rows vanish: graph = C^n x span{e_1}, kernel = C^n
    full = np.zeros((2 * n, n + 1), dtype=complex)
    full[:n, :n] = np.eye(n)
    full[n + 1, n] = 1.0
    assert cs.intersect(cs.Subspace(full), top).dim == n


@pytest.mark.parametrize("n", [8, 32, 128, 256])
def test_extend_basis_rank_matches_stacked_svd(rng, n):
    # columns inside S, fresh columns, and mixtures of both: only the fresh
    # directions are new, whichever rank route counts them
    for _ in range(3):
        d = int(rng.integers(1, n // 2))
        s = cs.orthonormal_basis(random_complex(rng, n, d))
        fresh = random_complex(rng, n, int(rng.integers(0, n // 4 + 1)))
        inside = s.basis @ random_complex(rng, d, 3)
        mixed = inside[:, :2] + fresh @ random_complex(rng, fresh.shape[1], 2)
        cols = np.hstack([inside, fresh, mixed])
        grown = cs.extend_basis(s, cols)
        stacked = cs.orthonormal_basis(np.hstack([s.basis, cols]))
        assert grown.dim == stacked.dim == d + fresh.shape[1]
        np.testing.assert_array_equal(grown.basis[:, :d], s.basis)
        assert_same_subspace(grown, stacked)
        gram = np.abs(grown.basis.conj().T @ grown.basis - np.eye(grown.dim)).max()
        assert gram <= s.tol.bound()


@pytest.mark.parametrize("angle, merged", [(1e-13, True), (1e-6, False)])
def test_extend_basis_angle_threshold(rng, angle, merged):
    q = cs.orthonormal_basis(random_complex(rng, 12, 3)).basis
    tilted = np.cos(angle) * q[:, :1] + np.sin(angle) * q[:, 1:2]
    grown = cs.extend_basis(cs.Subspace(q[:, [0, 2]]), tilted)
    assert grown.dim == (2 if merged else 3)
    if not merged:
        assert abs(abs(np.vdot(q[:, 1], grown.basis[:, 2])) - 1.0) <= 1e3 * MACHINE_EPS


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_extend_basis_rank_is_scale_free(rng, scale):
    n, d = 40, 10
    s = cs.orthonormal_basis(random_complex(rng, n, d))
    fresh = random_complex(rng, n, 3)
    cols = np.hstack([s.basis @ random_complex(rng, d, 2), fresh, fresh[:, :2] + s.basis[:, :2]])
    assert cs.extend_basis(s, scale * cols).dim == d + 3


def test_extend_basis_returns_s_when_nothing_is_new(rng):
    s = cs.orthonormal_basis(random_complex(rng, 16, 5))
    for cols in (np.zeros((16, 0)), np.zeros((16, 2)), s.basis @ random_complex(rng, 5, 3)):
        np.testing.assert_array_equal(cs.extend_basis(s, cols).basis, s.basis)
    empty = cs.zero_subspace(16)
    assert cs.extend_basis(empty, s.basis).dim == 5
    with pytest.raises(cs.InputError):
        cs.extend_basis(s, np.ones((15, 1)))


def test_public_subspace_checks_its_basis(rng):
    q = cs.orthonormal_basis(random_complex(rng, 6, 3)).basis
    skewed = q.copy()
    skewed[:, 1] += 1e-3 * q[:, 0]
    with pytest.raises(cs.InputError, match="not orthonormal"):
        cs.Subspace(skewed)
    for bad in (np.nan, np.inf):
        broken = q.copy()
        broken[2, 1] = bad
        with pytest.raises(cs.InputError, match="non-finite"):
            cs.Subspace(broken)
    with pytest.raises(cs.InputError, match="more columns"):
        cs.Subspace(np.eye(3, 4, dtype=complex))
    with pytest.raises(cs.InputError, match="2-dimensional"):
        cs.Subspace(q[:, 0])


def test_trusted_subspace_copies_and_freezes_without_gram_check(rng):
    from csymlab.linalg import _trusted

    q = cs.orthonormal_basis(random_complex(rng, 6, 3)).basis
    raw = 2.0 * q  # not orthonormal: the trusted path takes it as given
    tol = cs.Tolerance(1e-9)
    s = _trusted(raw, tol)
    assert s.tol is tol and s.dim == 3 and s.ambient_dim == 6
    assert not s.basis.flags.writeable and not np.shares_memory(s.basis, raw)
    np.testing.assert_array_equal(s.basis, raw)
    with pytest.raises(cs.InputError, match="more columns"):
        _trusted(np.eye(3, 4, dtype=complex), tol)


def test_gram_residual_is_the_inline_expression(rng):
    from csymlab.linalg import _gram_residual

    m = random_complex(rng, 7, 4)
    assert _gram_residual(m) == float(np.abs(m.conj().T @ m - np.eye(4)).max())
    assert _gram_residual(np.zeros((5, 0), dtype=complex)) == 0.0
    assert _gram_residual(np.zeros((0, 0), dtype=complex)) == 0.0
