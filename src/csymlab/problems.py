"""Problem descriptions: a small JSON schema for an operator (possibly
restricted to a subspace) together with its conjugation.

Complex numbers travel as [re, im] pairs so fixture files stay hand-editable
and diffable.  Parse errors carry the JSON-pointer path of the offending
element.  The operator is stored as domain columns and their images; the
relation is the span of the stacked pairs, so a non-orthonormal domain basis
is legal input (relations.operator_relation orthonormalizes it, with a
warning, and refuses dependent columns).
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .antilinear import Conjugation, entrywise_conjugation, flip_conjugation
from .doubling import DoubledProblem, build_doubled
from .errors import InputError
from .linalg import DEFAULT_TOL, Tolerance, _as_complex_matrix
from .polar import PolarFactors, polar
from .relations import LinearRelation, from_matrix, operator_relation


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A conjugation plus an operator given by domain columns and images.

    domain_basis is None for everywhere-defined operators, in which case
    images is the full n x n matrix.
    """

    name: str
    dim: int
    conjugation_kind: str
    conjugation_matrix: np.ndarray | None
    domain_basis: np.ndarray | None
    images: np.ndarray
    tol: Tolerance

    def __post_init__(self):
        for field in ("conjugation_matrix", "domain_basis", "images"):
            value = getattr(self, field)
            if value is not None:
                arr = _as_complex_matrix(value, f"{self.name}: {field}").copy()
                arr.setflags(write=False)
                object.__setattr__(self, field, arr)

    def conjugation(self) -> Conjugation:
        """The conjugation, built (and its axioms checked) on the first call
        and then reused."""
        return self._conjugation

    @cached_property
    def _conjugation(self) -> Conjugation:
        if self.conjugation_kind == "entrywise":
            return entrywise_conjugation(self.dim, self.tol)
        if self.conjugation_kind == "flip":
            return flip_conjugation(self.dim, self.tol)
        return Conjugation(self.conjugation_matrix, self.tol)

    def relation(self) -> LinearRelation:
        """The operator's graph, built on the first call and then reused."""
        return self._relation

    @cached_property
    def _relation(self) -> LinearRelation:
        if self.domain_basis is None:
            return from_matrix(self.images, self.tol)
        return operator_relation(self.domain_basis, self.images, self.tol)

    def doubled(self) -> DoubledProblem:
        """The doubled problem of relation() and conjugation(), built on the
        first call and then reused."""
        return self._doubled

    @cached_property
    def _doubled(self) -> DoubledProblem:
        return build_doubled(self.relation(), self.conjugation())

    def matrix(self) -> np.ndarray | None:
        """Full matrix when everywhere-defined, else None."""
        return np.asarray(self.images) if self.domain_basis is None else None

    def polar(self) -> PolarFactors:
        """Polar factors of matrix(), built on the first call and then
        reused; InputError unless the problem is everywhere-defined."""
        return self._polar

    @cached_property
    def _polar(self) -> PolarFactors:
        m = self.matrix()
        if m is None:
            raise InputError("polar factors need an everywhere-defined matrix")
        return polar(m, self.tol)

    def to_json_dict(self) -> dict:
        out: dict = {"name": self.name, "dim": self.dim}
        conj: dict = {"kind": self.conjugation_kind}
        if self.conjugation_matrix is not None:
            conj["matrix"] = encode_matrix(self.conjugation_matrix)
        out["conjugation"] = conj
        op: dict = {"images": encode_matrix(self.images)}
        if self.domain_basis is not None:
            op["domain_basis"] = encode_matrix(self.domain_basis)
        out["operator"] = op
        out["tol"] = self.tol.eps
        return out

    def digest(self) -> str:
        """sha256 of the spec's canonical byte form.

        The header holds the name and the conjugation kind as UTF-8, each
        after its byte length as <i8, dim as <i8 and tol.eps as <f8.  Then
        each of conjugation_matrix, domain_basis and images adds a presence
        byte and, when present, its shape as <i8 and its entries as <c16 in
        C order.  Equal bytes mean bit-equal floats, and so do equal float
        reprs in to_json_dict (repr round-trips, and -0.0 is not 0.0), so
        two specs share a digest exactly when their JSON encodings agree.
        """
        name, kind = (text.encode("utf-8", "surrogatepass") for text in (self.name, self.conjugation_kind))
        header = struct.pack("<q", len(name)) + name + struct.pack("<qq", self.dim, len(kind)) + kind
        h = hashlib.sha256(header + struct.pack("<d", self.tol.eps))
        for m in (self.conjugation_matrix, self.domain_basis, self.images):
            if m is None:
                h.update(b"\x00")
            else:
                h.update(b"\x01" + struct.pack("<qq", *m.shape))
                h.update(np.ascontiguousarray(m, dtype="<c16").tobytes())
        return h.hexdigest()


def encode_matrix(m: np.ndarray) -> list:
    """Columns as lists of [re, im] pairs of Python floats."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).transpose(1, 0, 2).tolist()


def _is_real(value) -> bool:
    """A JSON number that is a finite float: json accepts NaN, Infinity and
    integers past the float range, and bool is an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _parse_complex(value, pointer: str) -> complex:
    if _is_real(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(_is_real(part) for part in value):
        return complex(value[0], value[1])
    raise InputError(f"{pointer}: expected a finite number or [re, im] pair, got {value!r}")


def _parse_vector(value, dim: int, pointer: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != dim:
        raise InputError(f"{pointer}: expected a list of {dim} entries")
    return np.array(
        [_parse_complex(entry, f"{pointer}/{i}") for i, entry in enumerate(value)]
    )


def _parse_vectors(value, dim: int, pointer: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise InputError(f"{pointer}: expected a nonempty list of vectors")
    cols = [_parse_vector(v, dim, f"{pointer}/{i}") for i, v in enumerate(value)]
    return np.column_stack(cols)


def decode_matrix(value, pointer: str) -> np.ndarray:
    """Columns of [re, im] entries with the length inferred from the first.

    Used for free-standing matrix payloads such as extension parameters,
    where the expected shape is checked downstream.
    """
    if not isinstance(value, list):
        raise InputError(f"{pointer}: expected a list of columns")
    if not value:
        return np.zeros((0, 0), dtype=complex)
    if not isinstance(value[0], list):
        raise InputError(f"{pointer}/0: expected a list of entries")
    return _parse_vectors(value, len(value[0]), pointer)


def spec_from_dict(data) -> ProblemSpec:
    if not isinstance(data, dict):
        raise InputError("/: expected a JSON object")
    name = data.get("name", "spec")
    if not isinstance(name, str):
        raise InputError(f"/name: expected a string, got {name!r}")
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError(f"/dim: expected a positive integer, got {dim!r}")
    tol_value = data.get("tol", DEFAULT_TOL.eps)
    if not isinstance(tol_value, (int, float)) or not 0 < tol_value < 1:
        raise InputError(f"/tol: expected a real in (0, 1), got {tol_value!r}")
    tol = Tolerance(float(tol_value))

    conj = data.get("conjugation")
    if not isinstance(conj, dict) or "kind" not in conj:
        raise InputError("/conjugation: expected an object with a 'kind'")
    kind = conj["kind"]
    matrix = None
    if kind == "matrix":
        if "matrix" not in conj:
            raise InputError("/conjugation/matrix: required for kind 'matrix'")
        matrix = _parse_vectors(conj["matrix"], dim, "/conjugation/matrix")
        if matrix.shape != (dim, dim):
            raise InputError(
                f"/conjugation/matrix: expected {dim} columns, got {matrix.shape[1]}"
            )
    elif kind not in ("entrywise", "flip"):
        raise InputError(
            f"/conjugation/kind: expected entrywise, flip or matrix, got {kind!r}"
        )

    op = data.get("operator")
    if not isinstance(op, dict) or "images" not in op:
        raise InputError("/operator: expected an object with 'images'")
    domain = None
    if "domain_basis" in op:
        domain = _parse_vectors(op["domain_basis"], dim, "/operator/domain_basis")
    images = _parse_vectors(op["images"], dim, "/operator/images")
    expected = dim if domain is None else domain.shape[1]
    if images.shape[1] != expected:
        raise InputError(
            f"/operator/images: expected {expected} vectors, got {images.shape[1]}"
        )
    spec = ProblemSpec(name, dim, kind, matrix, domain, images, tol)
    try:
        spec.conjugation()  # checks the axioms once; the spec keeps the result
    except InputError as exc:
        raise InputError(f"/conjugation/matrix: {exc}") from exc
    return spec


def parse_spec(path) -> ProblemSpec:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in problem file: {exc}") from exc
    return spec_from_dict(data)
