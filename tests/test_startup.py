"""Importing the CLI loads every quasifix module and none of `dataclasses`' imports.

`dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize` and runs an
`exec` per record, which every fresh `quasifix` process pays before its
first job.  The probe runs without writing bytecode, as a start from a clean
checkout does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import quasifix

MODULES = ("quasifix.gf", "quasifix.poly", "quasifix.freegroup", "quasifix.matrep",
           "quasifix.dynamics", "quasifix.certify", "quasifix.cli")


def test_cli_import_skips_dataclasses_and_loads_every_module():
    probe = ("import json, sys, quasifix.cli; "
             "print(json.dumps(sorted(m for m in sys.modules "
             "if m in ('dataclasses', 'inspect') or m.startswith('quasifix'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(quasifix.__file__).resolve().parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout))
    assert not loaded & {"dataclasses", "inspect"}
    # the modules load at import, so no job pays for compiling them
    assert loaded >= set(MODULES)
