"""Linear relations: subspaces of H + H generalizing operator graphs.

A relation on C^n is carried by an orthonormal basis of its graph inside
C^(2n); the first n coordinates are the argument, the last n the value.
Adjoints and the kernels N(I + R S) are computed by exact subspace algebra,
never through pseudo-inverses, so rank decisions stay centralized in the
Tolerance rule.  An operator given on its domain (operator_relation) records
it, and domain(), multivalued_part() and is_operator read it; for a relation
given by its graph alone they are one rank decision, read off one cached SVD
of the graph basis's top block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .antilinear import AntiLinearMap, Conjugation
from .errors import InputError
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _adjoint,
    _gram_residual,
    _spectral_norm,
    _trusted,
    full_space,
    intersect,
    is_subspace_of,
    orthonormal_basis,
    subspace_equal,
    zero_subspace,
)


@dataclass(frozen=True, eq=False)
class LinearRelation:
    """Subspace of C^n + C^n holding the graph of a (possibly multivalued) map."""

    graph: Subspace
    given_domain: Subspace | None = None  # of an operator given on it; None if given by its graph

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

    @cached_property
    def _top_svd(self) -> tuple[np.ndarray, int, np.ndarray]:
        """(U, r, V^H) of the top block X of the graph basis, r its rank at
        tol.zero_cutoff(1.0).  The singular values of X are the sines of the
        angles between graph(R) and {(0, y)}, so r decides the domain, the
        multivalued part and is_operator at once.  Built on the first access
        and then reused (the graph is immutable)."""
        x = self._top()
        u, sines, vh = np.linalg.svd(x, full_matrices=x.shape[1] > x.shape[0])
        return u, int(np.sum(sines > self.tol.zero_cutoff(1.0))), vh

    def domain(self) -> Subspace:
        """given_domain, else span X = U[:, :r]; built on the first call and then reused."""
        return self._domain if self.given_domain is None else self.given_domain

    @cached_property
    def _domain(self) -> Subspace:
        u, r, _ = self._top_svd
        return _trusted(u[:, :r], self.tol)

    def multivalued_part(self) -> Subspace:
        """{y : (0, y) in graph}: {0} with a given_domain, else span Y V[:, r:]
        ([X; Y] V is orthonormal and ||X V[:, r:]|| is at most
        tol.zero_cutoff(1.0), so these columns are orthonormal as built)."""
        if self.given_domain is not None:
            return zero_subspace(self.ambient_dim, self.tol)
        _, r, vh = self._top_svd
        return _trusted(self._bottom() @ vh[r:].conj().T, self.tol)

    @property
    def is_operator(self) -> bool:
        """multivalued_part().dim == 0, i.e. a given_domain or X of full column rank."""
        return self.given_domain is not None or self._top_svd[1] == self.graph.dim

    @property
    def regime(self) -> str:
        """"operator" for an n-dimensional graph that is an operator (one defined
        everywhere), else "relation"; other dimensions take no top-block SVD."""
        return "operator" if self.graph.dim == self.ambient_dim and self.is_operator else "relation"

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
        """J [X; Y] = [Y; -X] is orthonormal as built, J(x, y) = (y, -x) being
        unitary, and has the rank k = dim graph(R), so no rank decision is
        made: the last 2n - k columns of its complete Householder QR are an
        orthonormal basis of the complement (Golub & Van Loan, Matrix
        Computations, 4th ed., 5.2)."""
        n2, k = self.graph.basis.shape
        if k == 0:
            return LinearRelation(full_space(n2, self.tol))
        if k == n2:
            return LinearRelation(zero_subspace(n2, self.tol))
        q, _ = np.linalg.qr(np.vstack([self._bottom(), -self._top()]), mode="complete")
        return LinearRelation(_trusted(q[:, k:], self.tol))

    def adjoint_gap(self, q) -> float:
        """sin of the largest angle from span(q) into graph(R*), R* never built.

        q has orthonormal columns in C^(2n).  graph(R*) is the orthogonal
        complement of J graph(R), J(x, y) = (y, -x), so with [X; Y] the graph
        basis the sine is ||(J [X; Y])^H q||_2 = ||Y^H q_top - X^H q_bot||_2,
        the 2-norm of _gap_matrix(q).
        """
        return _spectral_norm(self._gap_matrix(q))

    def _gap_matrix(self, q) -> np.ndarray:
        """Y^H q_top - X^H q_bot = (J [X; Y])^H q, whose 2-norm is adjoint_gap(q)."""
        q = np.asarray(q, dtype=complex)
        n = self.ambient_dim
        if q.ndim != 2 or q.shape[0] != 2 * n:
            raise InputError(f"columns of shape {q.shape} do not live in C^{2 * n}")
        return _adjoint_gaps(self.graph.basis, q)

    def conjugated_basis(self, c: AntiLinearMap) -> np.ndarray:
        """The columns (K conj X; K conj Y) spanning graph(C R C), no rank cut.

        For antiunitary C they are orthonormal, like the graph basis [X; Y].
        """
        if c.dim != self.ambient_dim:
            raise InputError(f"conjugation dimension {c.dim} != relation ambient {self.ambient_dim}")
        return _conjugated_graphs(self.graph.basis, c.matrix)

    def conjugated(self, c: Conjugation) -> "LinearRelation":
        """C R C: graph {(Cx, Cy)}, involutive; its basis is conjugated_basis(c),
        orthonormal with no rank cut since C is antiunitary, given on C D if R is on D."""
        domain = None if self.given_domain is None else c.map_subspace(self.given_domain)
        return LinearRelation(_trusted(self.conjugated_basis(c), self.tol), domain)

    def contained_in(self, other: "LinearRelation") -> bool:
        return is_subspace_of(self.graph, other.graph)

    def equals(self, other: "LinearRelation") -> bool:
        return subspace_equal(self.graph, other.graph)


def _conjugated_graphs(graphs: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(K conj X; K conj Y) for a graph basis [X; Y] or a stack of them."""
    n = k.shape[0]
    return np.concatenate([k @ np.conj(graphs[..., :n, :]), k @ np.conj(graphs[..., n:, :])], axis=-2)


def _adjoint_gaps(graphs: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Y^H Q_top - X^H Q_bot for graph columns [X; Y] and image columns Q,
    or for stacks of them: the adjoint-gap matrix of
    LinearRelation._gap_matrix, or one block of it."""
    n = graphs.shape[-2] // 2
    return _adjoint(graphs[..., n:, :]) @ images[..., :n, :] - _adjoint(graphs[..., :n, :]) @ images[..., n:, :]


def operator_relation(cols: np.ndarray, images: np.ndarray, tol: Tolerance) -> LinearRelation:
    """The operator sending the columns of cols to images, given on their span D.

    D's basis is cols if they are orthonormal (I, every fixture's domain), else
    orthonormal_basis(cols), refused if it drops a column: the one rank decision
    on an operator input.  [cols; images] has the rank k of cols (its singular
    values are at least theirs), so the k left singular vectors of its thin SVD
    span the graph with no cut: orthonormal_basis's bits wherever it keeps k."""
    gram = _gram_residual(cols)
    if gram <= tol.bound():
        domain = _trusted(cols, tol)
    else:
        warnings.warn(f"domain columns are not orthonormal (Gram residual {gram:.3e})", stacklevel=3)
        domain = orthonormal_basis(cols, tol)
        if domain.dim != cols.shape[1]:
            raise InputError(f"domain columns are linearly dependent (rank {domain.dim} of {cols.shape[1]})")
    u, _, _ = np.linalg.svd(np.vstack([cols, images]), full_matrices=False)
    return LinearRelation(_trusted(u, tol), domain)


def from_matrix(m, tol: Tolerance = DEFAULT_TOL) -> LinearRelation:
    """Everywhere-defined operator given by a square matrix (D = I)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"square matrix required, got shape {m.shape}")
    return operator_relation(np.eye(m.shape[0], dtype=complex), m, tol)


def kernel_one_plus(outer: LinearRelation, inner: LinearRelation) -> Subspace:
    """N(I + outer о inner) = {x : (x, y) in inner and (y, -x) in outer for some y}.

    With [X1; Y1] and [X2; Y2] the graph bases of inner and outer, x is in
    the kernel iff x = X1 a with [Y1; X1] a = [-X2; Y2] b for some b: the
    first rows say Y1 a = X2 b (the middle coordinate), the last
    X1 a + Y2 b = 0.  Both column groups are graph bases with rows permuted
    (and a sign), hence orthonormal, so the pairs are the meet of their
    spans, read off by intersect at its cut sin theta <= tol.zero_cutoff(1.0),
    the one intersection cut of the package.  (A null-space solve of
    [[Y1, -X2], [X1, Y2]] would cut its singular values sqrt(2) sin(theta/2)
    instead, about sqrt(2) looser.)  The kernel is the span of the
    meet's last n rows (X1 a, or Y2 b = -X1 a when the roles swap), by the
    rank decision of orthonormal_basis.
    """
    if outer.ambient_dim != inner.ambient_dim:
        raise InputError(f"ambient mismatch: {outer.ambient_dim} vs {inner.ambient_dim}")
    tol = inner.tol
    meet = intersect(
        _trusted(np.vstack([inner._bottom(), inner._top()]), tol),
        _trusted(np.vstack([-outer._top(), outer._bottom()]), tol),
    )
    return orthonormal_basis(meet.basis[inner.ambient_dim :], tol, inner.ambient_dim)
