import os
import subprocess
import sys
from pathlib import Path

import graphon_forge


def test_import_leaves_out_heavy_modules():
    # each of these would add a large share to a CLI call's start-up (scipy.sparse.linalg: 0.21 s),
    # and scipy.linalg maps a second OpenBLAS next to numpy's (8 MB resident)
    src = str(Path(graphon_forge.__file__).resolve().parents[1])
    code = (
        "import sys, graphon_forge; "
        "print(sorted(m for m in ('sympy', 'scipy.integrate', 'scipy.optimize', 'scipy.sparse.linalg',"
        " 'scipy.sparse.csgraph', 'scipy.linalg') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
