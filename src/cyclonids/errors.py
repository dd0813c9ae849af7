"""Exception hierarchy shared by all cyclonids modules.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""


class CyclonidsError(Exception):
    """Base class for all package errors."""


class ConfigError(CyclonidsError):
    """Invalid parameter or configuration value (bad fraction, threshold, ...)."""


class DataError(CyclonidsError):
    """Problem with input data: missing file, malformed row, shape mismatch."""


class NumericError(CyclonidsError):
    """Numerical failure inside a fitted component."""


def unreadable(path: str, exc: OSError) -> DataError:
    """The DataError for an input path that cannot be opened or read."""
    if isinstance(exc, FileNotFoundError):
        return DataError(f"file missing: {path}")
    return DataError(f"cannot read {path}: {exc.strerror or exc}")
