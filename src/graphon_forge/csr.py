"""CSR matrices on scipy's compiled sparse kernels, without importing scipy.

The package's sparse products (the companion's step, the star counts' power
sums, the oriented-edge operator's head incidence) run on the C++ kernels in
`scipy/sparse/_sparsetools`, which this module loads by file. It is the one
module that reaches into scipy: `importlib.util.find_spec` locates scipy
without importing it, so `scipy.sparse`'s package init, which imports
`numpy.f2py`, `numpy.testing` and `numpy.ma` through scipy's array-API
layer, never runs.

`build` lays a matrix out as `scipy.sparse.csr_matrix` does, through the
same kernels, and `CsrMatrix.accumulate` calls the kernels scipy's `A @ X`
calls, so every product sums in scipy's order and has its bits.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _load_sparsetools(scipy_dir: Path):
    """The extension `<scipy_dir>/sparse/_sparsetools<suffix>`, or ImportError naming every path tried."""
    paths = [scipy_dir / "sparse" / f"_sparsetools{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    for path in paths:
        if path.is_file():
            # the extension's init symbol fixes the last component of the name
            loader = importlib.machinery.ExtensionFileLoader(f"{__package__}._sparsetools", str(path))
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
            loader.exec_module(module)
            return module
    from importlib import metadata  # only here: importing it takes 20 ms

    raise ImportError(f"scipy {metadata.version('scipy')} has no compiled sparse kernels at {', '.join(map(str, paths))}")


_scipy = importlib.util.find_spec("scipy")
if _scipy is None:
    raise ModuleNotFoundError("graphon_forge needs scipy, for its compiled sparse kernels", name="scipy")
_kernels = _load_sparsetools(Path(_scipy.origin).parent)


@dataclass(frozen=True)
class CsrMatrix:
    """A float64 matrix of `shape` whose row i has the columns indices[indptr[i]:indptr[i + 1]]."""

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def accumulate(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out += self @ x for a vector or a block of columns, in out's buffer; returns out.

        `out` must be a C-contiguous float64 array: the kernel writes into it
        and refuses any other.
        """
        rows, cols = self.shape
        if x.ndim == 1:
            _kernels.csr_matvec(rows, cols, self.indptr, self.indices, self.data, x, out)
        else:
            _kernels.csr_matvecs(rows, cols, x.shape[1], self.indptr, self.indices, self.data, x, out)
        return out

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x)
        return self.accumulate(x, np.zeros((self.shape[0], *x.shape[1:])))


def build(shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, data) -> CsrMatrix:
    """The matrix of `shape` with data[k] at (rows[k], cols[k]); the (row, col) pairs must be distinct.

    As in scipy's constructor, `coo_tocsr` buckets the entries by row in
    input order and `csr_sort_indices` then sorts each row's columns, here
    only when some row needs it; indices are 32-bit when they fit.
    """
    n_rows, n_cols = shape
    nnz = len(rows)
    index = np.int32 if max(nnz, n_rows, n_cols) <= np.iinfo(np.int32).max else np.int64
    # the index copies before the outputs, as scipy's constructor makes them: the other
    # order left the heap of a long run of dense-scaled-h8 estimates about 1 MB larger
    rows, cols = rows.astype(index, copy=False), cols.astype(index, copy=False)
    indptr, indices, values = np.empty(n_rows + 1, dtype=index), np.empty(nnz, dtype=index), np.empty(nnz)
    _kernels.coo_tocsr(n_rows, n_cols, nnz, rows, cols, np.asarray(data, dtype=float), indptr, indices, values)
    if not _kernels.csr_has_sorted_indices(n_rows, indptr, indices):
        _kernels.csr_sort_indices(n_rows, indptr, indices, values)
    return CsrMatrix(shape, indptr, indices, values)
