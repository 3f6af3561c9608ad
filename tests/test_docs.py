"""Every example in README.md runs as a test.

Console blocks are parsed into (command, expected stdout, expected exit
code) and replayed through `main` in-process; python blocks are executed
and must assert their own claims. Non-monadlab commands (pip, pytest)
are setup instructions, not behavior examples, and are skipped. Every
`src/...` or `tests/...` path the README names must exist.
"""

import os
import re
import shlex
from pathlib import Path

import pytest
from cli_run import run_cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

_FENCE_RE = re.compile(r"^```(\w*)\s*$")
_EXIT_RE = re.compile(r"#\s*exit\s+(\d+)\s*$")
_PATH_RE = re.compile(r"(?<![\w/.-])((?:src|tests)/[\w./-]*\w)")


def _blocks(kind: str) -> list:
    out, current = [], None
    for line in README.read_text().splitlines():
        m = _FENCE_RE.match(line)
        if m:
            if current is not None:
                out.append(current)
                current = None
            elif m.group(1) == kind:
                current = []
            continue
        if current is not None:
            current.append(line)
    return out


def _console_entries() -> list:
    entries = []
    for block in _blocks("console"):
        cmd = None
        for line in block:
            if line.startswith("$ "):
                if cmd is not None:
                    entries.append(cmd)
                expect = _EXIT_RE.search(line)
                cmd = {
                    "argv": shlex.split(line[2:], comments=True),
                    "exit": int(expect.group(1)) if expect else 0,
                    "stdout": [],
                }
            elif cmd is not None:
                cmd["stdout"].append(line)
        if cmd is not None:
            entries.append(cmd)
    return [e for e in entries if e["argv"][:1] == ["monadlab"]]


CONSOLE = _console_entries()
PYTHON = _blocks("python")


def test_readme_has_the_expected_example_count():
    # a parser regression would otherwise skip examples silently
    assert len(CONSOLE) >= 12
    assert len(PYTHON) >= 1


def test_readme_paths_exist():
    named = set(_PATH_RE.findall(README.read_text()))
    assert "tests/test_docs.py" in named  # the pattern still finds paths
    missing = sorted(p for p in named if not (ROOT / p).exists())
    assert not missing, f"README names missing paths: {missing}"


@pytest.mark.parametrize(
    "entry", CONSOLE, ids=[" ".join(e["argv"][1:3]) for e in CONSOLE]
)
def test_console_example(entry):
    os.chdir(ROOT)  # golden paths in examples are repo-relative
    res = run_cli(*entry["argv"][1:])
    expected = "".join(line + "\n" for line in entry["stdout"])
    assert res.stdout == expected
    assert res.exit_code == entry["exit"]


@pytest.mark.parametrize("i", range(len(PYTHON)), ids=lambda i: f"block{i}")
def test_python_example(i):
    exec(compile("\n".join(PYTHON[i]), f"README.md:python[{i}]", "exec"), {})
