"""Shared parser/writer for flat ``key=value`` config text.

Lines are ``key=value``; blank lines and lines starting with ``#`` are
ignored. Keys may not repeat. Values are kept as raw strings; typed parsing
happens at the call site.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ValidationError


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


def load_kv(path) -> dict:
    path = Path(path)
    return parse_kv_text(path.read_text(encoding="utf-8"), origin=str(path))


def format_kv(values: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in values.items())


def save_kv(values: dict, path) -> None:
    Path(path).write_text(format_kv(values), encoding="utf-8")


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


def parse_int_list(value: str, key: str) -> list:
    try:
        return [int(part) for part in value.split(",") if part.strip() != ""]
    except ValueError:
        raise ValidationError(f"key {key!r}: expected comma-separated integers, got {value!r}") from None
