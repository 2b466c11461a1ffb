"""The body of each command, one module each, named after the command;
`wardtri.cli` imports a command's module only when that command runs.

A command module never imports `wardtri.cli`: under `python -m
wardtri.cli` that module is `__main__`, so importing it would compile and
run the command line a second time.
"""

from __future__ import annotations

import argparse

from .. import Kind


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
