"""The package's import path stays numpy-only."""

import json
import os
import subprocess
import sys

import hinfgcc

PROBE = """
import json, sys
before = set(sys.modules)
import hinfgcc, hinfgcc.cli
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_only_numpy_and_stdlib():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hinfgcc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    new = set(json.loads(out))
    assert "hinfgcc" in new
    foreign = new - {"hinfgcc", "numpy"} - set(sys.stdlib_module_names)
    assert not foreign, f"import hinfgcc.cli loads {sorted(foreign)}"
