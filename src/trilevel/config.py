"""Flat ``key = value`` configuration format.

Used both for run configs consumed by the command line tool and for the
bundled preset table (where ``[name]`` headers open named blocks).  Lines
starting with ``#`` and blank lines are ignored.
"""

from __future__ import annotations

import math


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key when known."""


def _lines(text: str):
    """Yield ``(lineno, line, entry)`` per line that is not blank or a comment;
    ``entry`` is the stripped ``(key, value)``, or None on a ``[`` line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            yield lineno, line, None
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        yield lineno, line, (key, value.strip())


def parse_flat(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a dict of raw strings."""
    out: dict[str, str] = {}
    for lineno, line, entry in _lines(text):
        if entry is None:
            raise ConfigError(f"line {lineno}: block header {line!r} not allowed here")
        key, value = entry
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_blocks(text: str) -> dict[str, dict[str, str]]:
    """Parse a table of ``[name]`` blocks of ``key = value`` lines."""
    blocks: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    name = None
    for lineno, line, entry in _lines(text):
        if entry is None:
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}: empty block name")
            if name in blocks:
                raise ConfigError(f"line {lineno}: duplicate block {name!r}")
            current = {}
            blocks[name] = current
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: entry before any [name] header")
        key, value = entry
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{name}]")
        current[key] = value
    return blocks


def get_float(entries: dict[str, str], key: str) -> float:
    if key not in entries:
        raise ConfigError(f"{key} is required")
    try:
        value = float(entries[key])
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {entries[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {entries[key]!r}")
    return value


def get_choice(entries: dict[str, str], key: str, choices: tuple[str, ...]) -> str:
    if key not in entries:
        raise ConfigError(f"{key} is required")
    value = entries[key]
    if value not in choices:
        raise ConfigError(f"{key} must be one of {', '.join(choices)}; got {value!r}")
    return value
