"""The arguments and body of each command, one module each, named after
the command: `arguments(parser)` declares its arguments next to its body,
`run(parser, args)`.  `wardtri.cli` imports a command's module only when
that command is named among the arguments; this package holds the argument
types the commands share and `routes`.

A command module never imports `wardtri.cli`: under `python -m
wardtri.cli` that module is `__main__`, so importing it would compile and
run the command line a second time.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from enum import Enum

from .. import Kind, Strategy


def _normalise(text: str) -> str:
    return text.strip().lower().replace("-", "").replace("_", "")


def _enum_parser(enum: type[Enum]) -> Callable[[str], Enum]:
    """Parse one member of `enum` by its value, in any case and punctuation."""
    members = {_normalise(m.value): m for m in enum}
    label = enum.__name__.lower()

    def parse(text: str) -> Enum:
        try:
            return members[_normalise(text)]
        except KeyError:
            raise argparse.ArgumentTypeError(
                f"unknown {label} {text!r}; choose from {', '.join(m.value for m in enum)}"
            ) from None

    return parse


parse_kind = _enum_parser(Kind)
parse_strategy = _enum_parser(Strategy)


def _count(text: str) -> int:
    """A row count or a bound: ASCII digits, below `sys.maxsize` (islice's limit)."""
    if not (text.isascii() and text.isdecimal()):  # int() cannot fail and the count is >= 0
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    if int(text) >= sys.maxsize:
        raise argparse.ArgumentTypeError(f"expected an integer below {sys.maxsize}, got {text!r}")
    return int(text)


def _index(text: str) -> int:
    """A b-file index: ASCII digits after an optional sign, as a b-file
    line's tokens are read (int() alone would take "1_0" and " 1")."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _list_parser(parse: Callable[[str], Enum]) -> Callable[[str], list | None]:
    """Parse a comma-separated list of `parse` values, at least one, or 'all'
    (None).  A repeat is dropped, so no route is compared with itself."""

    def parse_list(text: str) -> list | None:
        if _normalise(text) == "all":
            return None
        items = list(dict.fromkeys(parse(part) for part in text.split(",") if part.strip()))
        if not items:
            raise argparse.ArgumentTypeError(f"expected a list of names or 'all', got {text!r}")
        return items

    return parse_list


def routes(parser: argparse.ArgumentParser, kind: Kind, wanted: list | None, strict: bool) -> list:
    """The strategies to run for `kind`: all it supports for None, else those
    `wanted` that it supports.  When `strict`, one it lacks is a usage error."""
    from .. import streams

    supported = streams.SUPPORTED[kind]
    if wanted is None:
        return sorted(supported, key=lambda s: s.value)
    missing = [s for s in wanted if s not in supported]
    if missing and strict:
        parser.error(f"{kind.value} does not support: {', '.join(s.value for s in missing)}")
    return [s for s in wanted if s in supported]
