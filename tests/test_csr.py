import importlib.machinery
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import sparse

import graphon_forge
from graphon_forge import csr
from graphon_forge.graph_sampler import SparseGraph, sample_graph
from graphon_forge.graphon_model import StepGraphon
from graphon_forge.nonbacktracking import Companion, NbOperator, top_spectrum
from tests.conftest import oriented_edges, random_simple_graph

# run in a fresh process, in which the package's kernel and scipy.sparse load in
# the order given by sys.argv[1]; prints how many products differ from scipy's
# A @ X in any bit, and whether the two kernels are two modules of one file
PRODUCTS = textwrap.dedent(
    """
    import sys
    import numpy as np
    if sys.argv[1] == "kernel-first":
        from graphon_forge import csr
        from scipy import sparse
    else:
        from scipy import sparse
        from graphon_forge import csr
    from graphon_forge.graph_sampler import SparseGraph
    from graphon_forge.nonbacktracking import Companion

    rng = np.random.default_rng(3)
    n = 3000
    edges = np.unique(np.sort(rng.integers(0, n, size=(12000, 2)), axis=1), axis=0)
    gr = SparseGraph(n, edges[edges[:, 0] < edges[:, 1]])
    # the oriented edges: edge 2i is row i, u -> v, and 2i + 1 its reversal
    tails, heads = gr.edges.ravel(), gr.edges[:, ::-1].ravel()
    pairs = [
        (gr.adjacency, sparse.csr_matrix((np.ones(2 * gr.m), (tails, heads)), shape=(n, n))),
        (Companion(gr, 1.3)._adjacency,
         sparse.csr_matrix((np.full(2 * gr.m, 1.3), (tails, heads)), shape=(n, n))),
    ]
    differ = 0
    for mine, theirs in pairs:
        for shape in [(n,), (n, 3), (n, 6)]:
            X = rng.standard_normal(shape)
            differ += (mine @ X).tobytes() != (theirs @ X).tobytes()
    kernels = [sys.modules[name] for name in ("graphon_forge._sparsetools", "scipy.sparse._sparsetools")]
    print(differ, kernels[0] is not kernels[1] and kernels[0].__file__ == kernels[1].__file__)
    """
)


@pytest.mark.parametrize("order", ["kernel-first", "scipy-first"])
def test_products_equal_scipy_bit_for_bit_in_either_load_order(order):
    src = str(Path(graphon_forge.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", PRODUCTS, order],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 True"


def assert_layout(mine: csr.CsrMatrix, shape, rows, cols, data):
    theirs = sparse.csr_matrix((data, (rows, cols)), shape=shape)
    assert mine.shape == theirs.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(mine, name), getattr(theirs, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


def adjacency_entries(gr: SparseGraph):
    u, v = gr.edges[:, 0], gr.edges[:, 1]
    return (gr.n, gr.n), np.concatenate([u, v]), np.concatenate([v, u]), np.ones(2 * gr.m)


GRAPHS = {
    "random-sparse": lambda rng: SparseGraph(60, random_simple_graph(rng, 60, 0.08)),
    "random-dense": lambda rng: SparseGraph(25, random_simple_graph(rng, 25, 0.6)),
    # vertices 40..49 have no edge
    "isolated-vertices": lambda rng: SparseGraph(50, random_simple_graph(rng, 40, 0.1)),
    "no-edges": lambda rng: SparseGraph(7, np.empty((0, 2), dtype=np.int64)),
}


@pytest.mark.parametrize("graph", list(GRAPHS))
def test_builder_lays_out_as_csr_matrix(graph):
    gr = GRAPHS[graph](np.random.default_rng(5))
    assert_layout(gr.adjacency, *adjacency_entries(gr))
    tails, heads = oriented_edges(gr)
    comp = Companion(gr, scale=1.7)
    assert_layout(comp._adjacency, (gr.n, gr.n), tails, heads, np.full(tails.size, 1.7))
    # the (n, 2m) head incidence of the oriented-edge operator
    op = NbOperator(gr)
    idx = np.arange(tails.size)
    assert_layout(op._incoming, (gr.n, tails.size), heads, idx, np.ones(tails.size))


def test_builder_sorts_columns_given_in_any_order():
    gr = GRAPHS["random-sparse"](np.random.default_rng(6))
    shape, rows, cols, data = adjacency_entries(gr)
    order = np.random.default_rng(7).permutation(rows.size)
    rows, cols, data = rows[order], cols[order], np.arange(1.0, rows.size + 1)[order]
    assert_layout(csr.build(shape, rows, cols, data), shape, rows, cols, data)


def test_two_core_companion_lays_out_as_csr_matrix(monkeypatch):
    # the relabelled 2-core top_spectrum iterates on, taken from its own call
    gr, _ = sample_graph(StepGraphon(np.array([0.5, 0.5]), np.array([[7.0, 1.0], [1.0, 7.0]])), 2000, 0)
    built, build = [], csr.build

    def recording(shape, rows, cols, data):
        built.append((shape, rows.copy(), cols.copy(), np.array(data, dtype=float)))
        return build(shape, rows, cols, data)

    monkeypatch.setattr(csr, "build", recording)
    spectrum = top_spectrum(gr, scale=1.2, seed=0)
    assert spectrum.peel_rounds > 0 and len(built) == 1
    shape, rows, cols, data = built[0]
    assert shape == (spectrum.core_vertices,) * 2 and spectrum.core_vertices < gr.n
    assert_layout(csr.build(shape, rows, cols, data), shape, rows, cols, data)


def test_missing_kernel_file_names_the_paths_searched(tmp_path):
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__} has no compiled sparse kernels") as info:
        csr._load_sparsetools(tmp_path)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        assert str(tmp_path / "sparse" / f"_sparsetools{suffix}") in str(info.value)
