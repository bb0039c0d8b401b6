"""The benchmark under perfbench/ reaches into quasifix by name: its tracer
wraps the functions listed in SPANS and COUNTERS, and its workload and check
modules import names lazily.  A rename or deletion in quasifix must fail
here, not only in the benchmark's own (much slower) self-tests.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
TARGETS = sorted({target for _, _, target, _ in tracer.SPANS}
                 | {target for _, target in tracer.COUNTERS})


def _quasifix_imports():
    """(file, module, name) for every `from quasifix... import name` in perfbench."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "quasifix"):
                found.update((path.name, node.module, alias.name) for alias in node.names)
    return sorted(found)


@pytest.mark.parametrize("target", TARGETS)
def test_tracer_target_resolves(target):
    importlib.import_module(target.split(":")[0])
    _owner, _attr, original = tracer._resolve(target)
    assert callable(original)


@pytest.mark.parametrize("source,module,name", _quasifix_imports())
def test_perfbench_import_resolves(source, module, name):
    assert hasattr(importlib.import_module(module), name), f"{source}: {module}.{name}"
