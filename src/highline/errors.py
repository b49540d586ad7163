"""Exception types shared across the package, the checks that turn an
input file that is not UTF-8, or a mistyped JSON config, into one, and the
package's warnings."""

from __future__ import annotations

import json
import types
import typing


class HighlineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(HighlineError):
    """Invalid configuration: bad column mapping, out-of-range parameter,
    malformed config file."""


class DataError(HighlineError):
    """Input data cannot be processed: unparseable row, empty log, broken
    invariant in a constructed log."""


def warn(logger: str, message: str, *args: object) -> None:
    """Log a warning on the ``logger`` named. ``logging`` is imported with
    the first warning, so that a run that has none never loads it."""
    import logging

    logging.getLogger(logger).warning(message, *args)


def not_utf8_error(path: str, error: type[HighlineError] = DataError) -> HighlineError:
    """The error for a file that is not UTF-8, naming the line of its first
    invalid byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return error(f"{path}, line {line}: invalid UTF-8 byte 0x{data[exc.start]:02x}")
    return error(f"{path}: changed while being read")


def read_json_object(path: str) -> dict:
    """The JSON object of a config file; ConfigError for a file that is not
    UTF-8, not JSON or not an object."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except UnicodeDecodeError:
        raise not_utf8_error(path, ConfigError) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return data


def check_json_types(data: dict, hints: dict, where: str) -> None:
    """ConfigError naming the first field of ``data`` whose JSON value is
    not of its type in ``hints``."""
    for name, value in data.items():
        hint = hints[name]
        if not _has_type(value, hint):
            shown = hint.__name__ if type(hint) is type else str(hint)
            raise ConfigError(f"{where}: field {name!r} must be {shown}, got {json.dumps(value)}")


def _has_type(value: object, hint: object) -> bool:
    """Whether a JSON value is of a config field's type: a list or a tuple
    is a JSON list, of the tuple's length unless it ends in ``...``; an
    integer is a float, and a boolean is no number."""
    if isinstance(hint, types.UnionType):
        return any(_has_type(value, h) for h in typing.get_args(hint))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (list, tuple):
        if not isinstance(value, list):
            return False
        if origin is tuple and args[-1] is not Ellipsis:
            return len(value) == len(args) and all(map(_has_type, value, args))
        return all(_has_type(v, args[0]) for v in value)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, hint)
