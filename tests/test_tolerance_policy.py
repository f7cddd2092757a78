"""One tolerance policy: every predicate compares its residual with
tol.bound() of the Tolerance its operands carry, and takes no tolerance
argument."""

import inspect

import numpy as np
import pytest

import csymlab as cs


def _span(v, tol):
    return cs.orthonormal_basis(np.array(v, dtype=complex).reshape(-1, 1), tol)


def _operator(m, tol):
    return cs.from_matrix(np.array(m, dtype=complex), tol)


def _near_c_symmetric(r, tol):
    # under entrywise C, CAC = A and A* = A^T: the graphs are about r apart
    return _operator([[0.0, r], [0.0, 0.0]], tol), cs.entrywise_conjugation(2, tol)


def _domain_criterion(r, tol):
    # graph span{(e1, 0), (0, u)} with u = (r, 1): D(A*) = u-perp, C D(A) = span{e1}
    g = np.zeros((4, 2), dtype=complex)
    g[0, 0] = 1.0
    g[2:, 1] = np.array([r, 1.0]) / np.hypot(r, 1.0)
    rel = cs.LinearRelation(cs.orthonormal_basis(g, tol))
    return cs.domain_criterion(rel, rel, cs.entrywise_conjugation(2, tol))


# each case decides a pair whose residual is about r, all of it carrying tol
CASES = {
    "Subspace.contains_vector": lambda r, tol: _span([1, 0], tol).contains_vector(np.array([1.0, r])),
    "is_subspace_of": lambda r, tol: cs.is_subspace_of(_span([1, r], tol), _span([1, 0], tol)),
    "subspace_equal": lambda r, tol: cs.subspace_equal(_span([1, r], tol), _span([1, 0], tol)),
    "LinearRelation.contained_in": lambda r, tol: _operator([[r]], tol).contained_in(_operator([[0.0]], tol)),
    "LinearRelation.equals": lambda r, tol: _operator([[r]], tol).equals(_operator([[0.0]], tol)),
    "is_c_symmetric": lambda r, tol: cs.is_c_symmetric(*_near_c_symmetric(r, tol)),
    "is_c_selfadjoint": lambda r, tol: cs.is_c_selfadjoint(*_near_c_symmetric(r, tol)),
    "domain_criterion": _domain_criterion,
    "antilinear.preserves_subspace": lambda r, tol: cs.antilinear.preserves_subspace(
        cs.entrywise_conjugation(2, tol), _span([1, 0.5j * r], tol)
    ),
}


@pytest.mark.parametrize(
    "residual, tol, accepted",
    [(1e-9, cs.DEFAULT_TOL, True), (1e-6, cs.DEFAULT_TOL, False), (1e-8, cs.Tolerance(1e-12), False)],
    ids=["1e-9_default", "1e-6_default", "1e-8_tol1e-12"],
)
@pytest.mark.parametrize("predicate", list(CASES))
def test_predicates_read_bound_from_operands(predicate, residual, tol, accepted):
    # DEFAULT_TOL.bound() = 1e-7 and Tolerance(1e-12).bound() = 1e-9
    assert CASES[predicate](residual, tol) == accepted


def _public_callables():
    for name in cs.__all__:
        obj = getattr(cs, name)
        if inspect.isclass(obj):
            for attr in dir(obj):
                member = getattr(obj, attr)
                if not attr.startswith("_") and (inspect.isfunction(member) or inspect.ismethod(member)):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


def test_no_public_callable_takes_a_tolerance_argument():
    callables = dict(_public_callables())
    assert {"subspace_equal", "LinearRelation.equals", "Subspace.contains_vector"} <= set(callables)
    assert [name for name, fn in callables.items() if "atol" in inspect.signature(fn).parameters] == []
    assert "rounding" not in inspect.signature(cs.takagi).parameters
    assert "n_terms" not in inspect.signature(cs.power_report).parameters


def test_all_lists_no_submodule():
    assert [name for name in cs.__all__ if inspect.ismodule(getattr(cs, name))] == []
    assert "linalg" not in cs.__all__ and "Tolerance" in cs.__all__
