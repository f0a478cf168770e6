"""Exception types shared across the package."""


class QsoptError(Exception):
    """Base class for all qsopt errors."""


class CapacityMismatch(QsoptError, ValueError):
    """Two subsets (or a lattice and a subset) disagree on ground-set size."""


class CapExceeded(QsoptError, ValueError):
    """An exhaustive operation was asked to enumerate more than its cap allows."""


class ConfigError(QsoptError, ValueError):
    """Malformed instance file, experiment config, or CLI argument."""


def require_kind(value, kind: type, what: str, name: str) -> None:
    """Raise ``ConfigError`` unless ``value`` is a ``kind``; a bool is never a number."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


class InternalInvariantError(QsoptError, RuntimeError):
    """A guaranteed algorithm invariant was violated at runtime.

    Seeing this means either the objective is not quasi-submodular or there
    is a bug; it is always a signal worth investigating, never routine.
    """
