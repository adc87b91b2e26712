"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid or inconsistent configuration (bad parameter, unknown key, ...)."""


class ShapeError(ValueError):
    """Array size does not match the grid it is paired with."""


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""


class SequencingError(ValueError):
    """Time-ordered inputs arrived out of order."""


class InsufficientDataError(ValueError):
    """Not enough samples/checkpoints for the requested fit or extraction."""


class DomainError(ValueError):
    """Evaluation requested too close to a singular locus."""
