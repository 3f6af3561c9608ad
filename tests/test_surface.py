"""`src/` holds only what a command or a benchmark op runs: every name a
module exports in `__all__`, and every private module-level function, class
and constant, is used in the code of some module under `src/`, or named by
the benchmark's worker or tracer, and every public method or property of a
class under `src/`, and every field of a `NamedTuple` record there, is read
as an attribute by that code. Reference code that only tests call lives in
`tests/references.py`."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# record fields that no code reads by name, each kept as evidence
FIELD_EXCEPTIONS = {
    # the distributions the Plotkin replay searches: every candidate image
    # is a subset of them, and tests check how many there are
    "RefutationTrace.universe",
    # the property a certificate settles; tests replay each certificate's
    # claim through it
    "PropertyCertificate.prop",
}


def _exports(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [element.value for element in node.value.elts]
    return []


def _used(tree: ast.Module) -> set:
    """Names the code reads: loads, attributes and imports; definitions,
    docstrings, comments and `__all__` entries do not count."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _private(tree: ast.Module):
    """The private module-level functions, classes and constants; dunders
    such as `__all__` are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.endswith("__"))


def _methods(tree: ast.Module):
    """(class, name) of every public method and property defined in a class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item.name


def _attributes(tree: ast.Module) -> set:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _fields(tree: ast.Module):
    """(class, name) of every field of a class that subclasses `NamedTuple`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def _sources():
    """The parsed modules under `src/`, and the benchmark's worker and tracer
    as text."""
    trees = [ast.parse(path.read_text()) for path in sorted(ROOT.glob("src/monadlab/*.py"))]
    bench = [(ROOT / "perfbench" / name).read_text() for name in ("worker.py", "tracer.py")]
    return trees, bench


def _unused(names, trees, bench) -> set:
    """The `names` that no module under `src/` uses and that the benchmark's
    worker and tracer do not name."""
    used = set().union(*map(_used, trees))
    return {name for name in names
            if name not in used and not re.search(rf"\b{re.escape(name)}\b", "\n".join(bench))}


def test_every_export_is_used_by_a_command_or_the_benchmark():
    trees, bench = _sources()
    unused = _unused((name for tree in trees for name in _exports(tree)), trees, bench)
    # a method is reached only through an attribute; a local variable or a
    # string of the same name does not count
    read = set().union(*map(_attributes, trees + [ast.parse(text) for text in bench]))
    unused |= {
        f"{cls}.{name}" for tree in trees for cls, name in _methods(tree) if name not in read
    }
    assert unused == set()


def test_every_private_module_name_is_used_by_a_command_or_the_benchmark():
    trees, bench = _sources()
    assert _unused((name for tree in trees for name in _private(tree)), trees, bench) == set()


def test_every_record_field_is_read_by_a_command_or_the_benchmark():
    # a field is read through an attribute; positional unpacking, a keyword
    # argument or a local variable of the same name does not count
    trees, bench = _sources()
    read = set().union(*map(_attributes, trees + [ast.parse(text) for text in bench]))
    unread = {f"{cls}.{name}" for tree in trees for cls, name in _fields(tree) if name not in read}
    assert unread == FIELD_EXCEPTIONS
