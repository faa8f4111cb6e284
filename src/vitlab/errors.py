"""Exception types shared across the package."""


class RankDeficientError(RuntimeError):
    """Least-squares design matrix is rank deficient.

    Carries the name of the parameter that is not identifiable.
    """

    def __init__(self, parameter, message=None):
        self.parameter = parameter
        super().__init__(message or f"parameter '{parameter}' is not identifiable from the data")


class BandCoverageError(ValueError):
    """Pulse grid does not cover the pulse or the medium's response.

    Raised when the grid's span or band is too small for the pulse or the
    medium's response, where wrap-around would corrupt the output, or the
    band reaches the optical carrier, where the envelope model fails.
    """
