"""Shared parser/writer for flat ``key=value`` config text.

Lines are ``key=value``; blank lines and lines starting with ``#`` are
ignored. Keys may not repeat. :func:`load_kv` keeps values as raw strings.

A config class declares its keys once, in a key table: ``key -> (field,
parser)``, where ``parser(value, key)`` turns the raw string into the field's
value. :func:`read_fields` and :func:`write_fields` use that table to go from
kv text to constructor arguments and back, so a key, its field and its type
are written in one place.

:func:`read_text` reads every text input of the package (kv files,
manifests, prompt repositories, inventories) as UTF-8.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataFormatError, ValidationError


def parse_kv_text(text: str, origin: str = "<string>") -> dict:
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"{origin}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValidationError(f"{origin}:{lineno}: empty key")
        if key in values:
            raise ValidationError(f"{origin}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def read_text(path) -> str:
    """The text of a UTF-8 file; bytes that do not decode are a
    DataFormatError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def load_kv(path) -> dict:
    return parse_kv_text(read_text(path), origin=str(path))


def format_kv(values: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in values.items())


def save_kv(values: dict, path) -> None:
    Path(path).write_text(format_kv(values), encoding="utf-8")


def read_fields(values: dict, table: dict, origin: str, what: str) -> dict:
    """Constructor arguments (field -> parsed value) for the keys present in
    ``values``; a key missing from ``table`` is rejected."""
    unknown = sorted(set(values) - set(table))
    if unknown:
        raise ValidationError(f"{origin}: unknown {what} keys {unknown}")
    return {table[key][0]: table[key][1](value, key) for key, value in values.items()}


def _format_value(value) -> str:
    """Text of one field value: booleans as 1/0, arrays as comma-separated
    floats, anything else as ``str`` (which round-trips floats exactly)."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, np.ndarray):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


def write_fields(obj, table: dict) -> dict:
    """Key -> text of ``obj``'s field, for every key of ``table`` in order."""
    return {key: _format_value(getattr(obj, field)) for key, (field, _) in table.items()}


def parse_str(value: str, key: str) -> str:
    return value


def parse_bool(value: str, key: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"key {key!r}: expected a boolean, got {value!r}")


def parse_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"key {key!r}: expected an integer, got {value!r}") from None


def parse_float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValidationError(f"key {key!r}: expected a number, got {value!r}") from None


def parse_list(value: str, key: str, parse_item=parse_str) -> list:
    """Comma-separated items, each parsed by ``parse_item(item, key)``.

    An empty value is the empty list; an empty item (``1,,2`` or a trailing
    comma) is rejected.
    """
    if value.strip() == "":
        return []
    items = [item.strip() for item in value.split(",")]
    if "" in items:
        raise ValidationError(f"key {key!r}: empty item in list {value!r}")
    return [parse_item(item, key) for item in items]
