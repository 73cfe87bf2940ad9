"""Every public name still resolves, including those the benchmark traces."""

import ast
import importlib
import pkgutil
from pathlib import Path

import cpds

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def test_module_exports_resolve():
    mods = [m.name for m in pkgutil.iter_modules(cpds.__path__)]
    assert "saturation" in mods
    for mod in mods:
        module = importlib.import_module(f"cpds.{mod}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"cpds.{mod}.{name}"


def test_traced_callables_exist():
    # read the benchmark tracer's tables without importing it
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "METHODS"):
                tables[target.id] = ast.literal_eval(node.value)
    assert tables["FUNCTIONS"] and tables["METHODS"]
    for mod, fn in tables["FUNCTIONS"]:
        assert callable(getattr(importlib.import_module(f"cpds.{mod}"), fn)), (mod, fn)
    for mod, cls, meth in tables["METHODS"]:
        klass = getattr(importlib.import_module(f"cpds.{mod}"), cls)
        assert meth in vars(klass), (mod, cls, meth)
