"""The perfbench tracer still finds every layer function it wraps."""

import importlib.util
import pathlib
import sys

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _original(module, attr):
    owner = sys.modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, attr)


def test_every_target_is_patched(tracer_module):
    import monadlab.cli  # noqa: F401  the modules the tracer patches

    originals = {
        name: _original(module, attr)
        for name, (module, attr) in tracer_module.TARGETS.items()
    }
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        patched = [orig for _, _, orig in tracer._patched]
        missing = [name for name, orig in originals.items() if orig not in patched]
        assert not missing, f"targets with no owner patched: {missing}"
        from monadlab.monads import monad_for

        monad_for("list").enumerate(("a",), 1)
        assert [span[0] for span in tracer.spans] == ["monads.enumerate"]
    finally:
        tracer.uninstall()
    assert all(_original(m, a) is originals[n]
               for n, (m, a) in tracer_module.TARGETS.items())
