"""Cold start: every command and benchmark op is a fresh interpreter that
imports monadlab first, so the import must not load what only error paths,
file I/O or `law apply` use, nor `click`, `dataclasses` or `inspect`, and no
monadlab class may be a dataclass, whose methods are generated at import.
Guarded by what is loaded instead of by a timing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the imports and registry builds of the benchmark worker's setup op, then
# which watched modules are loaded and which monadlab classes are dataclasses
# (a dataclass carries `__dataclass_fields__`)
_PROBE = """
import sys
import monadlab.cli
from monadlab import distlaws, hierarchy, lawsearch, monads, nogo, theories
theories.registry(); monads.monad_ids(); distlaws.law_ids()
watched = ("difflib", "json", "csv", "monadlab.valuetext", "click", "dataclasses", "inspect")
print(*(m for m in watched if m in sys.modules))
print(*sorted(
    name for mod_name, mod in list(sys.modules.items()) if mod_name.startswith("monadlab")
    for name, obj in vars(mod).items()
    if isinstance(obj, type) and obj.__module__ == mod_name
    and hasattr(obj, "__dataclass_fields__")
))
"""


def _python(*args):
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)


@pytest.fixture(scope="module")
def setup_probe():
    """(watched modules loaded, monadlab dataclasses) after the setup op."""
    res = _python("-c", _PROBE)
    assert res.returncode == 0, res.stderr
    loaded, dataclasses = res.stdout.split("\n")[:2]
    return set(loaded.split()), dataclasses.split()


def test_cli_import_loads_no_error_path_modules(setup_probe):
    loaded, _ = setup_probe
    assert loaded & {"difflib", "json", "csv", "monadlab.valuetext"} == set()


def test_cli_import_loads_no_click_dataclasses_or_inspect(setup_probe):
    loaded, dataclasses = setup_probe
    assert loaded & {"click", "dataclasses", "inspect"} == set()
    assert dataclasses == []


def test_python_dash_m_runs_the_cli():
    res = _python("-m", "monadlab", "--help")
    assert res.returncode == 0, res.stderr
    assert "boom-table" in res.stdout
