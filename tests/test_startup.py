"""Importing the CLI loads every quasifix module and nothing more than it loads now.

`dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize` and runs an
`exec` per record, which every fresh `quasifix` process pays before its
first job; any other module added to the import closure costs every start
too.  The probes run without writing bytecode, as a start from a clean
checkout does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import quasifix

# importing the CLI may load quasifix's own modules and nothing outside the closure
# of these standard modules, the ones quasifix imported when this guard was written
# less argparse, which `build_parser` imports on first use
STDLIB_IMPORTS = ("__future__", "array", "functools", "heapq", "itertools",
                  "json", "math", "os", "random", "re", "sys", "typing")
MODULES = ("quasifix.gf", "quasifix.poly", "quasifix.freegroup", "quasifix.matrep",
           "quasifix.dynamics", "quasifix.certify", "quasifix.cli")


def _probe(code: str):
    env = dict(os.environ, PYTHONPATH=str(Path(quasifix.__file__).resolve().parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_cli_import_skips_dataclasses_and_loads_every_module():
    loaded = set(_probe("import json, sys, quasifix.cli; "
                        "print(json.dumps(sorted(m for m in sys.modules "
                        "if m in ('dataclasses', 'inspect') or m.startswith('quasifix'))))"))
    assert not loaded & {"dataclasses", "inspect"}
    # the modules load at import, so no job pays for compiling them
    assert loaded >= set(MODULES)


def test_cli_import_loads_nothing_beyond_the_pinned_standard_modules():
    extra = _probe(f"import json, sys, {', '.join(STDLIB_IMPORTS)}; "
                   "before = set(sys.modules); import quasifix.cli; "
                   "print(json.dumps(sorted(set(sys.modules) - before)))")
    assert [m for m in extra if m.split(".")[0] != "quasifix"] == []
