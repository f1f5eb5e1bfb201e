"""Exception taxonomy shared across the package.

Every error that the command line surfaces maps onto one of three base
classes so that exit codes stay predictable:

    InvalidParameterError  -> exit 2   (bad rates, windows, grids, flags)
    InvalidDataError       -> exit 3   (unusable sample files or arrays)
    ModelInapplicableError -> exit 4   (model evaluated outside its domain)
"""

EXIT_INVALID_PARAMETERS = 2
EXIT_INVALID_DATA = 3
EXIT_MODEL_INAPPLICABLE = 4


class FirstPhotonError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(FirstPhotonError, ValueError):
    """A configuration value is outside its allowed domain."""


class WindowTooWideError(InvalidParameterError):
    """Coincidence window violates tau * gamma_a * gamma_b < gamma_a + gamma_b.

    Beyond this bound the normalized window model has no valid
    normalization constant, so it is rejected as a parameter error.
    """


class InvalidDataError(FirstPhotonError, ValueError):
    """Input samples are empty, non-numeric, or otherwise unusable."""


class ModelInapplicableError(FirstPhotonError, ValueError):
    """A likelihood or density was requested where the model is undefined."""


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


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the process exit code the CLI should use."""
    if isinstance(exc, ModelInapplicableError):
        return EXIT_MODEL_INAPPLICABLE
    if isinstance(exc, InvalidDataError):
        return EXIT_INVALID_DATA
    if isinstance(exc, InvalidParameterError):
        return EXIT_INVALID_PARAMETERS
    return 1
