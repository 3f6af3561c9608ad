"""Cold start: every command and benchmark op is a fresh interpreter that
imports monadlab first, so the import must not load what only error paths,
file I/O or `law apply` use, nor generate dataclass methods beyond the term
syntax and the two classes that need them. Guarded by what is loaded
instead of by a timing."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the imports and registry builds of the benchmark worker's setup op
_PROBE = """
import dataclasses, sys
import monadlab.cli
from monadlab import distlaws, hierarchy, lawsearch, monads, nogo, theories
theories.registry(); monads.monad_ids(); distlaws.law_ids()
print(*(m for m in ("difflib", "json", "csv", "monadlab.valuetext") if m in sys.modules))
print(*sorted(
    name for mod_name, mod in list(sys.modules.items()) if mod_name.startswith("monadlab")
    for name, obj in vars(mod).items()
    if isinstance(obj, type) and obj.__module__ == mod_name and dataclasses.is_dataclass(obj)
))
"""


def _python(*args):
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)


def test_cli_import_loads_no_error_path_modules_or_extra_dataclasses():
    res = _python("-c", _PROBE)
    assert res.returncode == 0, res.stderr
    loaded, dataclasses = res.stdout.split("\n")[:2]
    assert loaded == ""
    assert dataclasses.split() == sorted(
        ["OpSymbol", "Signature", "Var", "App", "TheoryEntry", "FreeModelReport"])


def test_python_dash_m_runs_the_cli():
    res = _python("-m", "monadlab", "--help")
    assert res.returncode == 0, res.stderr
    assert "boom-table" in res.stdout
