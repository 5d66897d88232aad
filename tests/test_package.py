import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import bridgefill

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _bench_modules() -> dict:
    """The modules bench/run.py imports, by the names it gives them."""
    run = BENCH / "run.py"
    [modules] = [node.value for node in ast.parse(run.read_text()).body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["MODULES"]]
    return {name: bridgefill if name == "bridgefill" else
            importlib.import_module(f"bridgefill.{name}")
            for name in ast.literal_eval(modules)}


def test_every_exported_name_resolves():
    missing = [name for name in bridgefill.__all__ if not hasattr(bridgefill, name)]
    assert missing == []
    assert len(set(bridgefill.__all__)) == len(bridgefill.__all__)


def test_pyproject_version_is_package_version():
    # Every summary embeds the version. It is set in _version.py alone, and
    # pyproject.toml reads it from there. A regex, as Python 3.10 has no
    # tomllib.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r"^dynamic = (.*)$", text, re.MULTILINE) == ['["version"]']
    assert re.findall(r"^version = (.*)$", text, re.MULTILINE) == [
        '{attr = "bridgefill._version.__version__"}']
    assert importlib.import_module("bridgefill._version").__version__ == (
        bridgefill.__version__)


def test_benchmark_import_surface_resolves():
    # bench/run.py imports these modules and the bench workloads call these
    # names; a deletion that drops one breaks the benchmark, whose own tests
    # do not run with this suite.
    _bench_modules()
    surface = {
        "bridgefill": ("BACKEND", "generate", "spec_from_dict",
                       "write_trajectory_csv"),
        "bridgefill.experiments": ("default_config", "run_experiment"),
        "bridgefill.cli": ("main",),
    }
    missing = [f"{module}.{name}" for module, names in surface.items()
               for name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_tracer_class_patch_points_are_plain_functions():
    # The traced benchmark run swaps a class attribute for a function
    # wrapper, which only stands in for a plain method: a property or
    # dataclass field in its place would break or skip the traced op.
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    points = tracing.patch_points(_bench_modules())
    owned = [(owner, attr) for owner, attr, *_ in points
             if isinstance(owner, type) and attr in owner.__dict__]
    assert owned
    bad = [f"{owner.__name__}.{attr}" for owner, attr in owned
           if not inspect.isfunction(owner.__dict__[attr])]
    assert bad == []
