"""Linear relations: subspaces of H + H generalizing operator graphs.

A relation on C^n is carried by an orthonormal basis of its graph inside
C^(2n); the first n coordinates are the argument, the last n the value.
Adjoints, compositions and kernels are computed by exact subspace algebra,
never through pseudo-inverses, so rank decisions stay centralized in the
Tolerance rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .antilinear import AntiLinearMap
from .errors import InputError, PreconditionError
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _spectral_norm,
    _trusted,
    complement,
    full_space,
    intersect,
    is_subspace_of,
    orthonormal_basis,
    subspace_equal,
)


@dataclass(frozen=True, eq=False)
class LinearRelation:
    """Subspace of C^n + C^n holding the graph of a (possibly multivalued) map."""

    graph: Subspace

    def __post_init__(self):
        if self.graph.ambient_dim % 2:
            raise InputError(f"graph ambient dimension {self.graph.ambient_dim} is odd")

    @property
    def ambient_dim(self) -> int:
        return self.graph.ambient_dim // 2

    @property
    def tol(self) -> Tolerance:
        return self.graph.tol

    def _top(self) -> np.ndarray:
        return self.graph.basis[: self.ambient_dim]

    def _bottom(self) -> np.ndarray:
        return self.graph.basis[self.ambient_dim :]

    def domain(self) -> Subspace:
        """Built on the first call and then reused (the graph is immutable)."""
        return self._domain

    @cached_property
    def _domain(self) -> Subspace:
        return orthonormal_basis(self._top(), self.tol, self.ambient_dim)

    def kernel(self) -> Subspace:
        """{x : (x, 0) in graph}."""
        n = self.ambient_dim
        hit = intersect(self.graph, _trusted(np.eye(2 * n, dtype=complex)[:, :n], self.tol))
        return orthonormal_basis(hit.basis[:n], self.tol, n)

    def multivalued_part(self) -> Subspace:
        """{y : (0, y) in graph}; zero iff the relation is an operator."""
        n = self.ambient_dim
        hit = intersect(self.graph, _trusted(np.eye(2 * n, dtype=complex)[:, n:], self.tol))
        return orthonormal_basis(hit.basis[n:], self.tol, n)

    @cached_property
    def is_operator(self) -> bool:
        """multivalued_part().dim == 0 from singular values alone: those of
        the top block X of the graph basis are the sines intersect takes
        against {(0, y)}, so none may be at or below tol.zero_cutoff(1.0).
        Decided on the first access and then reused, like domain()."""
        if self.graph.dim > self.ambient_dim:
            return False
        sines = np.linalg.svd(self._top(), compute_uv=False)
        return not np.any(sines <= self.tol.zero_cutoff(1.0))

    @property
    def is_everywhere_defined(self) -> bool:
        return self.domain().dim == self.ambient_dim

    def adjoint(self) -> "LinearRelation":
        """graph(R*) = orthogonal complement of {(y, -x) : (x, y) in graph(R)}.

        Built on the first call and then reused, like domain().
        """
        return self._adjoint

    @cached_property
    def _adjoint(self) -> "LinearRelation":
        flipped = np.vstack([self._bottom(), -self._top()])
        return LinearRelation(complement(orthonormal_basis(flipped, self.tol, 2 * self.ambient_dim)))

    def imaginary_members(self) -> tuple[Subspace, Subspace]:
        """The graph elements (w, iw) and (w, -iw): graph(R) intersected
        with the graphs of +-i.  Built on the first call and then reused,
        like domain()."""
        return self._imaginary_members

    @cached_property
    def _imaginary_members(self) -> tuple[Subspace, Subspace]:
        eye = np.eye(self.ambient_dim, dtype=complex)
        return tuple(
            intersect(self.graph, _trusted(np.vstack([eye, sign * 1j * eye]) / np.sqrt(2.0), self.tol))
            for sign in (1, -1)
        )

    def adjoint_gap(self, q) -> float:
        """sin of the largest angle from span(q) into graph(R*), R* never built.

        q has orthonormal columns in C^(2n).  graph(R*) is the orthogonal
        complement of J graph(R), J(x, y) = (y, -x), so with [X; Y] the graph
        basis the sine is ||(J [X; Y])^H q||_2 = ||Y^H q_top - X^H q_bot||_2.
        """
        q = np.asarray(q, dtype=complex)
        n = self.ambient_dim
        if q.ndim != 2 or q.shape[0] != 2 * n:
            raise InputError(f"columns of shape {q.shape} do not live in C^{2 * n}")
        if not (q.shape[1] and self.graph.dim):
            return 0.0
        return _spectral_norm(self._bottom().conj().T @ q[:n] - self._top().conj().T @ q[n:])

    def conjugated_basis(self, c: AntiLinearMap) -> np.ndarray:
        """The columns (K conj X; K conj Y) spanning graph(C R C), no rank cut.

        For antiunitary C they are orthonormal, like the graph basis [X; Y].
        """
        if c.dim != self.ambient_dim:
            raise InputError(f"conjugation dimension {c.dim} != relation ambient {self.ambient_dim}")
        k = c.matrix
        return np.vstack([k @ np.conj(self._top()), k @ np.conj(self._bottom())])

    def conjugated(self, c: AntiLinearMap) -> "LinearRelation":
        """C R C: graph {(Cx, Cy)}; involutive when C is a conjugation."""
        return LinearRelation(orthonormal_basis(self.conjugated_basis(c), self.tol))

    def shifted(self, lam: complex) -> "LinearRelation":
        """R + lam: {(x, y + lam*x) : (x, y) in graph(R)}."""
        cols = np.vstack([self._top(), self._bottom() + lam * self._top()])
        return LinearRelation(orthonormal_basis(cols, self.tol))

    def contained_in(self, other: "LinearRelation") -> bool:
        return is_subspace_of(self.graph, other.graph)

    def equals(self, other: "LinearRelation") -> bool:
        return subspace_equal(self.graph, other.graph)

    def apply_vector(self, x) -> np.ndarray:
        """Value at x for single-valued relations; x must lie in the domain."""
        x = np.asarray(x, dtype=complex)
        if not self.is_operator:
            raise PreconditionError("relation is multivalued; apply_vector needs an operator")
        dom = self.domain()
        if not dom.contains_vector(x):
            raise PreconditionError("vector is outside the domain")
        # graph columns (d_j, v_j): solve for coefficients of x in the tops
        coeff, *_ = np.linalg.lstsq(self._top(), x, rcond=None)
        return self._bottom() @ coeff


def from_matrix(m, tol: Tolerance = DEFAULT_TOL) -> LinearRelation:
    """Everywhere-defined operator given by a square matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"square matrix required, got shape {m.shape}")
    cols = np.vstack([np.eye(m.shape[0], dtype=complex), m])
    return LinearRelation(orthonormal_basis(cols, tol))


def compose(outer: LinearRelation, inner: LinearRelation) -> LinearRelation:
    """outer о inner = {(x, z) : exists y with (x, y) in inner, (y, z) in outer}.

    Computed by intersecting the two embedded constraint spaces inside
    C^(3n) and projecting out the middle coordinate.  Both embeddings stack
    an orthonormal graph basis and an identity block on disjoint rows, so
    their columns are orthonormal as built.
    """
    if outer.ambient_dim != inner.ambient_dim:
        raise InputError(f"ambient mismatch: {outer.ambient_dim} vs {inner.ambient_dim}")
    n = outer.ambient_dim
    tol = inner.tol
    gi, go = inner.graph.basis, outer.graph.basis
    # E1 = {(x, y, z) : (x, y) in inner}, E2 = {(x, y, z) : (y, z) in outer}
    e1 = np.block([[gi, np.zeros((2 * n, n))], [np.zeros((n, gi.shape[1])), np.eye(n)]])
    e2 = np.block([[np.eye(n), np.zeros((n, go.shape[1]))], [np.zeros((2 * n, n)), go]])
    w = intersect(_trusted(e1, tol), _trusted(e2, tol))
    return LinearRelation(orthonormal_basis(np.vstack([w.basis[:n], w.basis[2 * n :]]), tol, 2 * n))


def zero_relation(n: int, tol: Tolerance = DEFAULT_TOL) -> LinearRelation:
    """The zero operator on the zero domain (empty graph)."""
    return LinearRelation(_trusted(np.zeros((2 * n, 0), dtype=complex), tol))


def full_relation(n: int, tol: Tolerance = DEFAULT_TOL) -> LinearRelation:
    """The relation H x H (everything related to everything)."""
    return LinearRelation(full_space(2 * n, tol))
