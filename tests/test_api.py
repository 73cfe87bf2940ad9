"""Every public name still resolves, including those the benchmark traces."""

import ast
import importlib
import io
import pkgutil
from contextlib import redirect_stdout
from pathlib import Path

import cpds
from cpds import cli

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


def _container_sizes():
    """Size of every module- and class-level dict, list and set in ``cpds``."""
    sizes = {}
    for info in pkgutil.iter_modules(cpds.__path__):
        module = importlib.import_module(f"cpds.{info.name}")
        owners = [(module.__name__, vars(module))]
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                owners.append((f"{module.__name__}.{name}", vars(obj)))
        for prefix, table in owners:
            for name, obj in table.items():
                if isinstance(obj, (dict, list, set)):
                    sizes[f"{prefix}.{name}"] = len(obj)
    return sizes


def test_solvers_leave_module_tables_alone():
    # stack interning is the one process-wide table a solve may grow
    fixtures = Path(__file__).parent / "fixtures"
    before = _container_sizes()
    for argv in (["global", "fix3.cpds", "--to", "q7"],
                 ["global", "fixph.cpds", "--to", "p4"],
                 ["global", "fixsc.cpds", "--to", "c5"],
                 ["check", "fixsc.cpds", "--from", "c0", "--to", "c5"],
                 ["check", "fixph.cpds"],
                 ["check", "fix3.cpds"],
                 ["check", "fix2.cpds"],
                 ["selftest", "--seeds", "2"]):
        if argv[1].endswith(".cpds"):
            argv[1] = str(fixtures / argv[1])
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    after = _container_sizes()
    grown = {name: (before.get(name), size) for name, size in after.items()
             if size != before.get(name) and name != "cpds.stacks._intern"}
    assert grown == {}
