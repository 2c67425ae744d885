"""Exception taxonomy shared across the package.

The CLI maps ConfigError to exit code 2 and SequencingError/IntegrityError
(internal invariant violations) to exit code 3.
"""

import sys


class ShapeError(ValueError):
    """Operands have incompatible or malformed dimensions."""


class ConfigError(ValueError):
    """Invalid configuration: bad thresholds, mismatched grids, missing inputs."""


class SequencingError(RuntimeError):
    """Cache rolled out of order: block index is not one past the last-seen index."""


class IntegrityError(RuntimeError):
    """Internal bookkeeping violated: corrupted offsets, double re-encoding, etc."""


def require_int(value, name: str) -> int:
    """An integer input value; floats, bools and strings are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def require_number(value, name: str) -> float:
    """A finite real input value; bools, strings, NaN and infinities (which
    JSON parsing accepts) are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:     # NaN fails too
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)
