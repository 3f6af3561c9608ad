"""Run the `monadlab` command in-process, the way a shell would see it."""

import io
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

from monadlab.cli import main


class CliResult(NamedTuple):
    stdout: str
    stderr: str
    output: str  # stdout then stderr
    exit_code: int


def run_cli(*argv: str) -> CliResult:
    """`monadlab ARGV...`: its stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return CliResult(out.getvalue(), err.getvalue(), out.getvalue() + err.getvalue(), code)
