"""Every name the benchmark tracer wraps still exists in the package.

`perfbench/tracer.py` reaches each layer by name: a module attribute, a
method from a class `__dict__`, or `ExtData.build` for the constructor.
Renaming or deleting one of them would break the traced benchmark run, so
the tracer is installed here against the real modules and every name must
come out wrapped, then restored.
"""

import importlib.util
from pathlib import Path

from equifuse import arith, cli, extended, formulas, ring, sl2

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = {"arith": arith, "sl2": sl2, "ring": ring, "extended": extended,
           "formulas": formulas, "cli": cli}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(name: str):
    """The object `Tracer._patch` replaces for a traced name."""
    parts = name.split(".")
    module = MODULES[parts[0]]
    if name == "extended.ExtData":
        return module.ExtData.build
    owner = getattr(module, parts[1])
    if len(parts) == 3:
        return getattr(getattr(owner, "__wrapped__", owner), parts[2])
    return owner


def test_every_traced_name_resolves_and_is_restored():
    tracer_module = _load_tracer()
    names = [name for name, _ in tracer_module.LAYER_STATS]
    originals = {name: _resolve(name) for name in names}
    with tracer_module.Tracer(dict(MODULES)).install():
        for name in names:
            assert hasattr(_resolve(name), "__wrapped__"), name
    for name in names:
        assert _resolve(name) == originals[name], name
