"""Workbench for finitary monads, equational theories, and distributive laws.

The subsystems load lazily: `from monadlab import nogo` (or `from . import
nogo` inside the package) binds a module that is compiled and run only on
its first attribute access, so a cold process pays for the subsystems it
uses and no others (PEP 562 module `__getattr__` with the stdlib
`importlib.util.LazyLoader` recipe). `from monadlab.nogo import verdict`
and `import monadlab.nogo` load at once, as do `monadlab.cli` and
`monadlab.__main__`. Python 3.11's `LazyLoader` is not thread-safe; monadlab
is single-threaded.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the variants of the Boom verdict table, here so that the CLI parser can
# offer them without running `hierarchy` or `theories`
TABLE_VARIANTS = ("original", "extended", "full")

_LAZY = frozenset({"distlaws", "hierarchy", "lawsearch", "monads", "nogo", "terms",
                   "theories", "values"})


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    full = f"{__name__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    globals()[name] = module
    return module
