"""Exception types shared across the package."""


class MimobpError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MimobpError):
    """Invalid simulation configuration or config-file syntax."""


class CapacityError(MimobpError):
    """An exhaustive-search detector was asked to enumerate too large a
    lattice, or a run's helper process ended without a result, as under the
    out-of-memory killer."""


class NumericalError(MimobpError):
    """A numerical procedure left its domain of validity."""


class ContractionError(NumericalError):
    """Ring contraction factor not strictly inside the unit disc."""
