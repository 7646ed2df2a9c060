"""Exception types raised across the package."""


class DeclabError(Exception):
    """Base class for all errors raised by declab."""


class NotHermitian(DeclabError):
    """Matrix fails the Hermiticity check."""


class ConvergenceFailure(DeclabError):
    """An eigensolver or iterative routine did not converge."""


class DimensionMismatch(DeclabError):
    """Operands have incompatible dimensions."""


class NotAState(DeclabError):
    """Matrix violates the density-operator invariants."""


class OutsideBall(DeclabError):
    """Polarization vector lies outside the closed unit ball."""


class NotUnitary(DeclabError):
    """Matrix fails the unitarity check."""


class BadWeights(DeclabError):
    """Mixture weights are negative or do not sum to one."""


class NotIdempotent(DeclabError):
    """A sector projector is not a Hermitian idempotent.

    Carries the offending projector index as ``index``.
    """

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"projector {index} is not a Hermitian idempotent")


class NotOrthogonal(DeclabError):
    """Two sector projectors overlap.

    Carries the offending index pair as ``pair``.
    """

    def __init__(self, pair, message=None):
        self.pair = tuple(pair)
        super().__init__(message or f"projectors {pair[0]} and {pair[1]} are not orthogonal")


class NotComplete(DeclabError):
    """Sector projectors do not sum to the identity."""


class InsufficientData(DeclabError):
    """Too few samples for the requested fit."""


class NonDecaying(DeclabError):
    """Envelope fit found a nonnegative slope."""


class QuadratureFailure(DeclabError):
    """A quadrature rule could not reach its error budget."""


class OutOfDomain(DeclabError, ValueError):
    """A time, phase or interval a computation cannot take; a ValueError too."""


class NotDiscrete(DeclabError):
    """Operation requires a discrete spectral density."""


class DimensionTooLarge(DeclabError):
    """Joint Hilbert space exceeds the supported dense-matrix size."""


class ParseError(DeclabError):
    """Config text is syntactically malformed.

    Carries the 1-based line number as ``line``.
    """

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ValidationError(DeclabError):
    """Config is well-formed but semantically invalid.

    Carries the offending dotted key path as ``key``.
    """

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"{key}: {message}")
