"""Exception taxonomy shared across the package.

The CLI maps ConfigError to exit code 2 and SequencingError/IntegrityError
(internal invariant violations) to exit code 3.
"""

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, TextIO


class ShapeError(ValueError):
    """Operands have incompatible or malformed dimensions."""


class ConfigError(ValueError):
    """Invalid configuration: bad thresholds, mismatched grids, missing inputs."""


class SequencingError(RuntimeError):
    """Cache rolled out of order: block index is not one past the last-seen index."""


class IntegrityError(RuntimeError):
    """Internal bookkeeping violated: a packed buffer whose length tables do
    not describe its flats, a score scratch too small for its heads, etc."""


def read_input(path: str | Path, name: str) -> str:
    """The UTF-8 text of an input file; one that is missing, unreadable or
    not UTF-8 is a ConfigError, not a traceback."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{name} {path} cannot be read: {exc}") from exc


def parse_json(text: str, name: str) -> Any:
    """text parsed as JSON; malformed JSON, and an object that repeats a key
    (which would silently keep the last value), are ConfigErrors."""
    def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        out = {}
        for key, value in pairs:
            if key in out:
                raise ConfigError(f"{name} repeats the JSON key {key!r}")
            out[key] = value
        return out

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name} is not valid JSON: {exc}") from exc


@contextmanager
def open_output(path: str | Path) -> Iterator[TextIO]:
    """path opened for UTF-8 text, line ends written as given; one that
    cannot be opened (a directory, no permission) is a ConfigError, not a
    traceback."""
    try:
        fh = Path(path).open("w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"output file {path} cannot be written: {exc}") from exc
    with fh:
        yield fh


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
