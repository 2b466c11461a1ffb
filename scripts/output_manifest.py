#!/usr/bin/env python3
"""Write tests/fixtures/outputs.manifest: one line per CLI command, giving
its exit status, a SHA-256 of its stdout and stderr, and the command.

The commands are `--help` and each command's `--help`; `gen` in all
three formats for every (kind, strategy) pair, unsupported ones included,
at 30 rows (12 for the partition transform); `check --kind all --rows 40
--strategies all`; `identities --max-n N --machine` for N in 2, 22, 39 and
60; the three `conjecture` reports at max-n 25; and `bfile-compare --kind
ward2` on the seven b-file fixtures.  Each runs in this process through
`wardtri.cli.main`, from the repository root, after
`triangles.clear_caches()` and with COLUMNS=80: argparse wraps its help
and usage text to the terminal's width, so the manifest holds at any.  A
change that alters output on purpose reruns this script;
tests/test_outputs.py fails, naming each command, when a line differs.

Run from anywhere:

    python scripts/output_manifest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
from pathlib import Path
from unittest import mock

from wardtri import cli, triangles
from wardtri.commands.conjecture import _CONJECTURES
from wardtri.triangles import Kind, Strategy

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "fixtures" / "outputs.manifest"


def commands() -> list[list[str]]:
    gen = [
        ["gen", "--kind", kind.value, "--strategy", strategy.value, "--format", fmt,
         "--rows", "12" if strategy is Strategy.PARTITION_TRANSFORM else "30"]
        for kind in Kind for strategy in Strategy for fmt in ("table", "csv", "bfile")
    ]
    fixtures = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "tests" / "fixtures").glob("b*.txt"))
    return [
        ["--help"],
        *([name, "--help"] for name in cli._COMMANDS),
        *gen,
        ["check", "--kind", "all", "--rows", "40", "--strategies", "all"],
        *(["identities", "--max-n", str(n), "--machine"] for n in (2, 22, 39, 60)),
        *(["conjecture", which, "--max-n", "25"] for which in sorted(_CONJECTURES)),
        *(["bfile-compare", "--kind", "ward2", "--file", path] for path in fixtures),
    ]


def run(argv: list[str]) -> str:
    """The manifest line of one command, run 80 columns wide."""
    out, err = io.StringIO(), io.StringIO()
    triangles.clear_caches()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # --help, and argparse's usage errors
            status = exc.code
    digest = hashlib.sha256(f"{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()
    return f"{status} {digest} {shlex.join(argv)}"


def manifest() -> list[str]:
    """Every command's line, each run from the repository root."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return [run(argv) for argv in commands()]
    finally:
        os.chdir(cwd)


def main() -> int:
    lines = manifest()
    MANIFEST.write_text("".join(line + "\n" for line in lines))
    print(f"wrote {MANIFEST} ({len(lines)} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
