import numpy as np
import pytest

from graphon_forge.graphon_model import StepGraphon


@pytest.fixture
def assortative_2block():
    """Two equal blocks, kernel [[7,1],[1,7]]: eigenvalues (4, 3), q = 4."""
    return StepGraphon(np.array([0.5, 0.5]), np.array([[7.0, 1.0], [1.0, 7.0]]))


@pytest.fixture
def weak_2block():
    """Two equal blocks, kernel [[6,2],[2,6]]: eigenvalues (4, 2), at the bulk boundary."""
    return StepGraphon(np.array([0.5, 0.5]), np.array([[6.0, 2.0], [2.0, 6.0]]))


def random_simple_graph(rng, n, p):
    """Edge list of G(n, p), as a (m, 2) array with u < v."""
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return np.stack([iu[keep], ju[keep]], axis=1)


def oriented_edges(gr):
    """(tails, heads) of the graph's 2m oriented edges: edge 2i is row i, u -> v, and 2i + 1 its reversal."""
    tails, heads = [], []
    for u, v in gr.edges.tolist():
        tails += [u, v]
        heads += [v, u]
    return np.array(tails, dtype=np.int64), np.array(heads, dtype=np.int64)


def peel_to_two_core(n, edges):
    """Reference 2-core by per-vertex leaf peeling in synchronous rounds.

    Returns (each vertex's degree in the 2-core, 0 off it; the rounds, each a
    dict mapping a leaf of that round to its one neighbour alive in it).
    """
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    rounds = []
    while True:
        parent = {v: next(iter(nbrs[v])) for v in range(n) if len(nbrs[v]) == 1}
        if not parent:
            return np.array([len(s) for s in nbrs]), rounds
        rounds.append(parent)
        for v, p in parent.items():
            nbrs[v].discard(p)
            nbrs[p].discard(v)
