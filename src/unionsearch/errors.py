"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes, so new exception types should subclass
one of the three categories below rather than raising bare ValueError.
"""

from numbers import Integral


class UnionSearchError(Exception):
    """Base class for all errors raised by this package."""


class InputError(UnionSearchError):
    """Unreadable, malformed, or missing input data."""


class ConfigError(UnionSearchError):
    """Invalid configuration: bad dimensions, thresholds, flag combinations."""


class NumericError(UnionSearchError):
    """Numeric failure: non-finite loss, zero-norm vector, degenerate batch."""


class EmptyColumnError(InputError):
    """Column has no usable (non-empty, tokenizable) values."""


class DuplicateKeyError(InputError):
    """Key inserted twice into an index."""


def check_integer(what: str, value: object, least: int) -> None:
    """Refuse, with ConfigError, a value that is not an integer of at least
    ``least``. A bool is an Integral, but never a count or a seed."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{what} must be >= {least}, got {value}")
