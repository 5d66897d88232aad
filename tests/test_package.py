import ast
import importlib
from pathlib import Path

import bridgefill


def test_every_exported_name_resolves():
    missing = [name for name in bridgefill.__all__ if not hasattr(bridgefill, name)]
    assert missing == []
    assert len(set(bridgefill.__all__)) == len(bridgefill.__all__)


def test_benchmark_import_surface_resolves():
    # bench/run.py imports these modules and the bench workloads call these
    # names; a deletion that drops one breaks the benchmark, whose own tests
    # do not run with this suite.
    run = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    [modules] = [node.value for node in ast.parse(run.read_text()).body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["MODULES"]]
    for name in ast.literal_eval(modules):
        if name != "bridgefill":
            importlib.import_module(f"bridgefill.{name}")
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
