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
    for _ in range(count):
        l_coords = cs.extensions._greedy_isotropic(s_coord, frak_m.dim, dp.tol, rng=rng)
        a_tilde = cs.LinearRelation(cs.extend_basis(dp.a.graph, frak_m.basis @ l_coords))
        out.append(cs.parameter_as_conjugation(dp, cs.recover_parameter(dp, a_tilde)))
    return out


def parameter_as_onb(dp, p):
    """Orthonormal basis of N+ fixed by the parameter's conjugation, ambient columns."""
    j = cs.parameter_as_conjugation(dp, p).matrix
    k = j.shape[0]
    if k == 0:
        return cs.ExtensionParameter("onb", np.zeros((2 * dp.ambient_dim, 0)))
    whole = cs.linalg._trusted(np.eye(k, dtype=complex), dp.tol)
    coords = cs.invariant_onb(cs.AntiLinearMap(j, dp.tol), whole)
    return cs.ExtensionParameter("onb", dp.n_plus.basis @ coords)


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
