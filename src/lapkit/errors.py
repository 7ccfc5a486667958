"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Vector/operator sizes are inconsistent."""


class DataError(ValueError):
    """Inputs contain non-finite or otherwise unusable entries."""


class ConfigError(Exception):
    """Configuration file missing, malformed, or outside the schema."""


class SolverError(RuntimeError):
    """A factorization failed, or a solve or resolvent kernel missed its certificate."""
