"""Exception types shared across the package."""


class MwMusicError(Exception):
    """Base class for all package errors."""


class DomainError(MwMusicError, ValueError):
    """An argument is outside the mathematical or physical domain of an operation."""


class SingularityError(DomainError):
    """Evaluation requested exactly at a singular point (e.g. coincident source and field points)."""


class ConfigurationError(MwMusicError, ValueError):
    """A scene, grid, or experiment configuration is structurally invalid."""


class TruncationError(MwMusicError):
    """A series truncation ceiling was insufficient for the requested tolerance."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


class NumericalError(MwMusicError):
    """A numerical procedure failed (e.g. a decomposition did not converge)."""


class DegenerateDataError(MwMusicError):
    """Input data carries no usable signal (e.g. an all-zero scattering matrix)."""
