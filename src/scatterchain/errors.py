"""Exception and warning types shared across the package."""


class BranchAmbiguityError(ValueError):
    """Adjacent raw phases differ by exactly pi, so the branch cannot be chosen."""


class ResonanceDivergenceError(ArithmeticError):
    """A composition denominator 1 - l*r vanished; inputs are not a valid unitary pair."""


class NonFiniteAmplitudeError(ValueError, ArithmeticError):
    """An amplitude or transfer-matrix entry overflowed to inf or NaN."""


class SingularConversionError(ArithmeticError):
    """Scattering/transfer conversion is singular (amplitude or matrix entry below floor)."""


class UndefinedAmplitudeError(ArithmeticError):
    """An amplitude modulus is below the floor where its phase is still required."""


class CoverageError(ValueError):
    """Sampled data does not cover the requested integration window."""


class EdgeOfGridError(ValueError):
    """A stencil was requested too close to the boundary of a sampled grid."""


class ConfigError(ValueError):
    """Invalid experiment configuration (bad field value or malformed file)."""


class InBandWarning(UserWarning):
    """A scan meant for a spectral gap was requested at an in-band wave number."""
