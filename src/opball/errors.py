"""Exception hierarchy. Every domain failure carries a stable class name
that the CLI reports verbatim in its JSON ``error`` field, and every subclass
is raised by some path of the library or the CLI."""


class OperatorBallError(Exception):
    """Base class for all domain errors raised by this package."""


# --- defect roots -----------------------------------------------------------

class DomainError(OperatorBallError):
    """Defect root undefined: a singular value of the point reaches 1."""


# --- ball points and Mobius maps -------------------------------------------

class BoundaryProximity(OperatorBallError):
    """Point too close to (or outside) the unit sphere of the operator ball."""


class SingularResolvent(OperatorBallError):
    """1 + A*X numerically singular; signals a tolerance breach upstream."""


class SingularDenominator(OperatorBallError):
    """T21 A + T22 singular; the block matrix is not eta-preserving."""


class NotEtaPreserving(OperatorBallError):
    """Block matrix fails T*JT = J beyond tolerance after rescaling."""


# --- geodesics --------------------------------------------------------------

class CoincidentPoints(OperatorBallError):
    pass


class ZeroInput(OperatorBallError):
    pass


class ParameterOverflow(OperatorBallError):
    """|t|*||D|| beyond tanh saturation; the point would collapse onto the
    boundary in double precision."""


class GridTooCoarse(OperatorBallError):
    pass


# --- groups and the fixed-point solver --------------------------------------

class ClosureExceeded(OperatorBallError):
    """Closure under composition did not end in a group: it reached
    ``MAX_ELEMENTS`` elements, a product stopped preserving eta (the chain
    saturated double precision), or the steps do not permute the elements
    found.  ``max_elements`` is the bound in force."""

    def __init__(self, max_elements, message=None):
        self.max_elements = max_elements
        super().__init__(message or f"closure exceeded {max_elements} elements")


class PreconditionUnmet(OperatorBallError):
    pass


# --- indefinite inner products ----------------------------------------------

class ShapeMismatch(OperatorBallError, ValueError):
    """Operands, or the matrices of input files, do not have the shapes that
    fit together: the one error for sizes that do not fit the split, raised
    by ``opcore._fit`` before any factorization.  It is also a
    ``ValueError``, so a caller that catches that catches it too."""


class NotNegative(OperatorBallError):
    """Quadratic form is not negative definite on the spanned subspace."""


class DegenerateGraph(OperatorBallError):
    """Subspace meets the positive component; it is not a graph over K."""


class DegenerateSplit(OperatorBallError):
    """Spectral split hit an eigenvalue at 0; upstream similarity failed."""


class FixedPointFailed(OperatorBallError):
    pass


class UnknownGroup(OperatorBallError):
    pass


# --- file I/O ----------------------------------------------------------------

class ParseError(OperatorBallError):
    pass
