"""Every perfbench span target must exist where the tracer wraps it.

perfbench/tracer.py is loaded by path (importing it does not import
bisq); each SPANS target must resolve the way ``tracer.install`` reads
it: a module attribute, or for "Class.method" an entry in the owning
class's own ``__dict__``, so a method that a class only inherits fails.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_tracer().SPANS


@pytest.mark.parametrize("name, module_name, path", SPANS,
                         ids=[name for name, _, _ in SPANS])
def test_span_target_resolves(name, module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    target = owner.__dict__.get(attr) if outer else getattr(owner, attr, None)
    assert callable(target), f"{name}: {module_name}.{path} is not defined"

