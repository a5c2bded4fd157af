"""The in-process probes of ``tools/bench_record.py`` still name what exists.

Each probe is Python source that the recorder runs in a fresh interpreter,
so a renamed ``noisylab`` name would only fail the next recording.  This
test parses each probe, without running it, and resolves every name it
imports from ``noisylab`` and every attribute it reads off one: off an
imported module or class, or off an instance built by calling an imported
class (a class attribute, or one its code sets on ``self``).
"""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

RECORD = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


def load_record():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record = load_record()
PROBES = {"INPROCESS_PROBE": record.INPROCESS_PROBE, "STEP_HEAP_PROBE": record.STEP_HEAP_PROBE}


def resolve(module: str, name: str):
    """What ``from module import name`` binds, or None."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    try:  # a submodule not yet imported
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return None


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_names_resolve(probe):
    tree = ast.parse(PROBES[probe])
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "noisylab":
            for alias in node.names:
                target = resolve(node.module, alias.name)
                assert target is not None, f"from {node.module} import {alias.name}"
                imported[alias.asname or alias.name] = target
    assert imported, "the probe imports nothing from noisylab"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in imported:
            assert hasattr(imported[base.id], node.attr), f"{base.id}.{node.attr}"
        elif (isinstance(base, ast.Call) and isinstance(base.func, ast.Name)
              and base.func.id in imported):
            cls = imported[base.func.id]
            assert (hasattr(cls, node.attr)
                    or re.search(rf"\bself\.{node.attr}\b", inspect.getsource(cls))), \
                f"{base.func.id}(...).{node.attr}"
