"""Exception types shared across the package."""


class ChbreakError(Exception):
    """Base class for all package errors."""


class ConfigError(ChbreakError):
    """Malformed or inconsistent run configuration."""


class EdgeDecayError(ChbreakError):
    """A field carries non-negligible mass at the domain edges.

    The domain is a periodic truncation of the line, so every operation that
    pretends the field lives on the whole line (one-sided convolutions, the
    decay-based energy identities) requires the field to vanish at the edges
    to within the fixed grid.EDGE_TOL times its maximum.
    """


class SearchError(ChbreakError):
    """A parameter search could not reach its target in the allowed range."""


class NumericsError(ChbreakError):
    """Non-finite values or an unrecoverable numerical breakdown."""
