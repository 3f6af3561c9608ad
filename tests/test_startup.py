"""Cold start: every command and benchmark op is a fresh interpreter that
imports monadlab first, so the import must not load what only error paths,
file I/O or `law apply` use, nor `click`, `dataclasses` or `inspect`, and no
monadlab class may be a dataclass, whose methods are generated at import.
Nor may it load `argparse`, which only a parser uses, or `fractions`, which
only `law apply`'s value parser does (each with the stdlib modules it
imports): distribution weights are integer counts, so no command that
computes with distributions loads `fractions` either.
The subsystems load lazily, so a command or op runs only the modules it
uses: a search runs no table code, and a check runs neither. The built-in
theories are built on first read, so only a process that reads a
presentation, a procedure or a term runs `terms`, and it builds only the
theories it reads; the procedure of every theory but the two bands
evaluates into its free-model monad, so it runs `monads` too.
Guarded by what is loaded, what has run and what is built instead of by a
timing. A command also leaves Python's cyclic garbage collector on, though
its checks pause it."""

import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# `ran()`: the monadlab modules that have run, by short name. A lazily
# loaded module is registered in `sys.modules` when it is imported and stays
# a `LazyLoader` module, not a plain one, until its first attribute access
# runs it
_RAN = """
import sys, types

def ran():
    return sorted(name[len("monadlab."):] for name, mod in sys.modules.items()
                  if name.startswith("monadlab.") and type(mod) is types.ModuleType)
"""

# the stdlib modules that only parsing uses: `argparse` with `gettext`, and
# the value parser's `fractions` with `decimal` and `numbers`
_PARSE_AND_WEIGHT = ("argparse", "gettext", "fractions", "decimal", "numbers")

# the imports and registry builds of the benchmark worker's setup op and the
# imports of its op table; then which monadlab modules have run and which
# parse and weight modules are loaded; then, once every subsystem module has
# run, which parse and weight, error-path and heavy stdlib modules are loaded
# and which monadlab classes are dataclasses (a dataclass carries
# `__dataclass_fields__`)
_PROBE = _RAN + f"""
_PARSE_AND_WEIGHT = {_PARSE_AND_WEIGHT!r}
import monadlab.cli
from monadlab import distlaws, monads, theories
theories.registry(); monads.monad_ids(); distlaws.law_ids()
from monadlab import distlaws, hierarchy, lawsearch, monads, nogo, terms, theories
print(*ran())
print(*(m for m in _PARSE_AND_WEIGHT if m in sys.modules))
for mod in (distlaws, hierarchy, lawsearch, monads, nogo, terms, theories):
    vars(mod)
print(*(m for m in _PARSE_AND_WEIGHT if m in sys.modules))
print(*(m for m in ("difflib", "json", "csv", "monadlab.valuetext") if m in sys.modules))
print(*(m for m in ("click", "dataclasses", "inspect") if m in sys.modules))
print(*sorted(
    name for mod_name, mod in list(sys.modules.items()) if mod_name.startswith("monadlab")
    for name, obj in vars(mod).items()
    if isinstance(obj, type) and obj.__module__ == mod_name
    and hasattr(obj, "__dataclass_fields__")
))
"""

# a command run in-process, then whether the cyclic garbage collector is
# on and `ran()` as the last two lines of stderr
_COMMAND = _RAN + """
import gc
from monadlab.cli import main
try:
    main(sys.argv[1:])
finally:
    print(gc.isenabled(), file=sys.stderr)
    print(*ran(), file=sys.stderr)
"""

# the subsystems no monad-law or Beck check runs
_TABLE_AND_SEARCH = {"hierarchy", "lawsearch", "nogo"}


def _python(*args):
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)


class _SetupProbe(NamedTuple):
    ran: set  # monadlab modules run by the setup op
    setup_loads: list  # parse and weight modules it loads
    modules_load: list  # those loaded once every subsystem module has run
    error_paths: list  # error-path modules loaded then
    heavy: list  # heavy modules loaded then
    dataclasses: list  # monadlab dataclasses then


@pytest.fixture(scope="module")
def setup_probe():
    res = _python("-c", _PROBE)
    assert res.returncode == 0, res.stderr
    ran, *loaded = res.stdout.split("\n")[:6]
    return _SetupProbe(set(ran.split()), *(line.split() for line in loaded))


def _ran_by(*argv, codes=(0, 1)):
    """The monadlab modules that have run once the command `argv` ends with
    one of the exit codes `codes`."""
    res = _python("-c", _COMMAND, *argv)
    assert res.returncode in codes, res.stderr
    return set(res.stderr.strip().split("\n")[-1].split())


def test_cli_import_loads_no_error_path_modules(setup_probe):
    assert setup_probe.error_paths == []


def test_cli_import_loads_no_click_dataclasses_or_inspect(setup_probe):
    assert setup_probe.heavy == []
    assert setup_probe.dataclasses == []


def test_setup_op_runs_no_table_or_search_code(setup_probe):
    assert setup_probe.ran == {"cli", "distlaws", "monads", "theories", "values"}


def test_setup_op_and_subsystem_modules_load_no_parser_or_fractions(setup_probe):
    assert setup_probe.setup_loads == []
    assert setup_probe.modules_load == []


def test_parser_runs_no_subsystem():
    res = _python("-c", _RAN + "from monadlab.cli import _parser; _parser(); print(*ran()); "
                               "print('argparse' in sys.modules)")
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n")[:2] == ["cli", "True"]


@pytest.mark.parametrize("argv", [
    ("law", "check", "exception-over:dist"),
    ("monad-laws", "dist"),
    ("plotkin-refute",),
    ("law", "search", "dist", "powerset"),
    ("nogo", "convex", "P"),  # NO, exit 1
])
def test_distribution_commands_load_no_fractions(argv):
    # the parse modules loaded once the command ends, on the last line
    probe = f"""
import sys
from monadlab.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    assert exc.code == 1
print(*(m for m in {_PARSE_AND_WEIGHT!r} if m in sys.modules))
"""
    res = _python("-c", probe, *argv)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().split("\n")[-1].split() == ["argparse", "gettext"]


@pytest.mark.parametrize("argv", [
    ("law", "check", "mset-cartesian"),
    ("normalize", "L", "mul(x,e)"),
    ("monad-laws", "list"),
])
def test_checks_run_no_table_or_search_code(argv):
    ran = _ran_by(*argv)
    assert "cli" in ran
    assert ran & _TABLE_AND_SEARCH == set()


@pytest.mark.parametrize("argv", [
    ("law", "check", "mset-cartesian"),
    ("monad-laws", "list"),
    ("law", "search", "list", "list"),
])
def test_checks_and_searches_run_no_term_code(argv):
    assert "terms" not in _ran_by(*argv)


@pytest.mark.parametrize("argv", [
    ("law", "check", "mset-cartesian"),
    ("boom-table", "original"),
])
def test_commands_leave_the_collector_on(argv):
    # the checks pause Python's cyclic garbage collector and turn it back on
    res = _python("-c", _COMMAND, *argv)
    assert res.returncode == 0, res.stderr
    assert res.stderr.strip().split("\n")[-2] == "True"


def test_nogo_builds_only_its_two_theories():
    # the ids of the registered theories that are built, after the command
    probe = _RAN + """
from monadlab.cli import main
from monadlab import theories
main(sys.argv[1:])
print(*(e.theory_id for e in theories.registry() if "presentation" in vars(e)))
"""
    res = _python("-c", probe, "nogo", "T+", "C+")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().split("\n")[-1].split() == ["boom:----", "boom:--C-"]


@pytest.mark.parametrize("argv, code", [
    (("normalize", "abgroup", "mul(x,inv(x))"), 0),
    (("prove-eq", "convex", "mix(x,y)", "mix(y,x)"), 0),
    (("prove-eq", "reader:2", "mul(x,y)", "x"), 1),  # NOT EQUAL
])
def test_theories_outside_the_boom_family_run_their_monad(argv, code):
    # they decide equality by evaluating into their free-model monad
    assert _ran_by(*argv, codes=(code,)) == {"cli", "monads", "terms", "theories", "values"}


@pytest.mark.parametrize("argv, code", [
    (("prove-eq", "L", "x", "y"), 1),  # NOT EQUAL
    (("normalize", "L", "mul("), 2),  # a usage error
])
def test_boom_theories_run_their_monad(argv, code):
    # every Boom theory but the bands decides by evaluating into its monad
    # too, so a command that builds one has run `monads`, even when it ends
    # by `SystemExit` or a usage error
    assert _ran_by(*argv, codes=(code,)) == {"cli", "monads", "terms", "theories", "values"}


def test_nogo_runs_no_search_code():
    ran = _ran_by("nogo", "T+", "C+")
    assert "nogo" in ran and "lawsearch" not in ran


def test_python_dash_m_runs_the_cli():
    res = _python("-m", "monadlab", "--help")
    assert res.returncode == 0, res.stderr
    assert "boom-table" in res.stdout


def test_package_import_loads_no_submodule():
    # theories build their registry on first import of `monadlab.theories`,
    # not as a side effect of the package
    res = _python("-c", "import sys, monadlab; "
                        "print(*sorted(m for m in sys.modules if m.startswith('monadlab.')))")
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []


def test_unknown_package_attribute_is_an_attribute_error():
    import monadlab

    with pytest.raises(AttributeError, match="has no attribute 'cli_'"):
        monadlab.cli_  # noqa: B018
    assert not hasattr(monadlab, "data")
