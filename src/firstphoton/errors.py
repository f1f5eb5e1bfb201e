"""Exception taxonomy shared across the package.

Every error that the command line surfaces derives from one of three
base classes, and its ``exit_code`` attribute, inherited from that
base, is the process exit code:

    InvalidParameterError  -> exit 2   (bad rates, windows, grids, flags)
    InvalidDataError       -> exit 3   (unusable sample files or arrays)
    ModelInapplicableError -> exit 4   (model evaluated outside its domain)
"""


class FirstPhotonError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1


class InvalidParameterError(FirstPhotonError, ValueError):
    """A configuration value is outside its allowed domain."""

    exit_code = 2


class WindowTooWideError(InvalidParameterError):
    """Coincidence window too wide for the ``taylor`` window law.

    Its normalization constant alpha exists only while
    tau * gamma_a * gamma_b < gamma_a + gamma_b, and its product CDF
    falls from t = 0 once 2 * tau * gamma_a * gamma_b > gamma_a +
    gamma_b, so ``product_first_cdf`` raises this error past that
    tighter bound.  Either is rejected as a parameter error; the
    ``exact`` law needs no alpha and holds beyond both.
    """


class InvalidDataError(FirstPhotonError, ValueError):
    """Input samples are empty, non-numeric, or otherwise unusable."""

    exit_code = 3


class ModelInapplicableError(FirstPhotonError, ValueError):
    """A likelihood or density was requested where the model is undefined."""

    exit_code = 4


class IntegrationBlowupError(InvalidParameterError):
    """The fixed-step integrator's step is too large: the state became non-finite."""


class DegenerateSymmetryError(ModelInapplicableError):
    """Antisymmetrization of an (almost) exchange-symmetric amplitude.

    The projected component has vanishing norm, so no normalized
    antisymmetric state can be produced from this input.
    """


class GridTooSmallError(InvalidParameterError):
    """Amplitude support reaches the grid boundary; periodic wrap-around
    from the spectral propagator would corrupt the result."""

