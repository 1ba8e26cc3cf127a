"""numpy is the only runtime dependency: importing the package and its CLI
must pull in neither scipy nor the test-only oracles."""

import os
import subprocess
import sys
from pathlib import Path

import pobounds


def test_imports_load_no_scipy_and_no_oracles():
    src = str(Path(pobounds.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, pobounds, pobounds.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'oracles')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
