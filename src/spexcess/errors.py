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
    """The LAPACK symmetric eigensolver failed to converge."""


class NonPositiveEigenvectorError(SpexcessError):
    """The computed Perron vector has a non-positive entry (numerical failure)."""


class DegreeError(SpexcessError):
    """Polynomial degree exceeds what its measure admits (d globally, d_u at u)."""


class DegenerateMeasureError(SpexcessError):
    """A spectral measure is numerically singular.

    Raised when the Lanczos recurrence breaks down before the requested
    degree (two eigenvalue classes too close for their weights, as when
    eigenvalues are wrongly grouped) or the Hoffman polynomial misses
    H(lambda_i) = n * delta_{0i}.  The number of distinct eigenvalues alone
    does not cause it.
    """


class HypothesisError(SpexcessError):
    """A theorem was invoked with a parameter outside its hypothesis range."""


class MissingParamError(SpexcessError):
    """A required command-line parameter for the selected check is missing."""
