"""Exception types shared across the package."""


class SpexcessError(Exception):
    """Base class for all errors raised by spexcess."""


class ParseError(SpexcessError):
    """Malformed graph input (bad edge list or graph6 data)."""


class DisconnectedError(SpexcessError):
    """Input graph is not connected; the whole analysis assumes one component."""


class LoopOrMultiEdgeError(SpexcessError):
    """Input contains a self-loop or a repeated edge."""


class ConvergenceError(SpexcessError):
    """The LAPACK eigensolver failed, or the primes disagree on distance-polynomiality."""


class NonPositiveEigenvectorError(SpexcessError):
    """The computed Perron vector has a non-positive entry (numerical failure)."""


class DegenerateMeasureError(SpexcessError):
    """A spectral measure is numerically singular: two eigenvalue classes lie
    closer than their eigenvector residuals, or too close for their weights
    for the Lanczos recurrence to reach its degree (wrongly grouped classes)."""


class HypothesisError(SpexcessError):
    """A theorem was invoked with a parameter outside its hypothesis range."""


class MissingParamError(SpexcessError):
    """A flag that the selected check requires is missing, or one it does not take is given."""
