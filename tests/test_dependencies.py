import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy


def test_import_leaves_out_heavy_modules():
    import graphon_forge

    # scipy.sparse's package init is about 0.2 s of a CLI call's start-up, and
    # scipy.linalg maps a second OpenBLAS next to numpy's (8 MB resident): the
    # package loads scipy's compiled sparse kernels by file and imports no
    # scipy module, nor sympy
    src = str(Path(graphon_forge.__file__).resolve().parents[1])
    code = (
        "import sys, graphon_forge; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy') or m.split('.')[0] == 'sympy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_accumulating_sparse_kernel_is_where_the_spectrum_expects_it():
    # nonbacktracking.Companion.step adds s A x_t straight into x_{t-1} through
    # csr.CsrMatrix.accumulate, which runs scipy's CSR kernels from the
    # extension file that scipy.sparse itself imports
    from graphon_forge import csr

    assert Path(csr._kernels.__file__).parent == Path(scipy.__file__).parent / "sparse"
    A = csr.build((2, 3), np.array([1, 0, 1]), np.array([2, 1, 0]), np.array([3.0, 2.0, 1.0]))
    X = np.arange(6.0).reshape(3, 2)
    Y = np.ones((2, 2))
    assert A.accumulate(X, Y) is Y
    np.testing.assert_array_equal(Y, 1.0 + np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0]]) @ X)  # Y += A X
