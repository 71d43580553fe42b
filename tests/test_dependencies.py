import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import sparse


def test_import_leaves_out_heavy_modules():
    import graphon_forge  # here, so the kernel test below runs where the package cannot import

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


def test_accumulating_sparse_kernel_is_where_the_spectrum_expects_it():
    # nonbacktracking.Companion.step adds s A x_t straight into x_{t-1} with
    # scipy's CSR multivector kernel, the package's one private scipy name:
    # no public scipy call accumulates a sparse product into an existing array
    try:
        from scipy.sparse._sparsetools import csr_matvecs
    except ImportError as exc:
        pytest.fail(
            f"scipy {scipy.__version__} has no scipy.sparse._sparsetools.csr_matvecs, "
            f"which nonbacktracking.Companion.step calls: {exc}"
        )
    A = sparse.csr_matrix(np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0]]))
    X = np.arange(6.0).reshape(3, 2)
    Y = np.ones((2, 2))
    csr_matvecs(2, 3, 2, A.indptr, A.indices, A.data, X, Y)
    np.testing.assert_array_equal(Y, 1.0 + A @ X)  # Y += A X, in Y's buffer
