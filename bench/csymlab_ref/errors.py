"""Exception taxonomy shared by all modules.

Three failure classes are kept apart on purpose:

* ``InputError`` -- the caller handed us something malformed (dimension
  mismatch, non-orthonormal basis, a parameter violating its invariant).
  Maps to CLI exit code 2.
* ``PreconditionError`` -- the input is well-formed but outside the
  mathematical hypotheses of the operation (not C-symmetric, subspace not
  invariant, wrong regime).  Also exit code 2, but the message names the
  violated hypothesis.
* ``PropertyViolationError`` -- an identity the theory guarantees failed
  beyond tolerance.  Either a bug or a genuine regime boundary; the residual
  is attached so reports can carry it.  Maps to CLI exit code 1.
"""


class InputError(ValueError):
    """Malformed input: wrong shapes, bad JSON, invalid parameter data."""


class PreconditionError(InputError):
    """Well-formed input outside an operation's mathematical hypotheses."""


class PropertyViolationError(RuntimeError):
    """A guaranteed identity failed beyond tolerance.

    Carries ``residuals``, a dict of named residual magnitudes, so callers
    can report which identity broke and by how much.
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = dict(residuals) if residuals else {}
