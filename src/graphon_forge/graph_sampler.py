"""Sparse graph sampling at edge-probability scale Q(x,y)/n, plus the edge split.

Sampling is blockwise: vertices are bucketed by latent block, the edge count
for each block pair is drawn from the exact Binomial law, and that many
distinct pairs are placed uniformly. This is distribution-identical to
independent Bernoulli thinning over all pairs but costs O(n + |E| log |E|)
instead of O(n^2): the log factor is the sort that removes repeated draws.
Pairs are handled as 1-D int64 keys u * n + v, which sort like the (u, v)
rows, so deduplication, edge ordering and the duplicate check are each one
whole-array sort or scan. All randomness flows through labeled substreams of
one master seed.

The graph dumps are `.npy` arrays, each written by one `np.save` and read by
one `np.load(allow_pickle=False)`: an edge list is its (m, 2) `<i4` rows,
the latents one `<f8` vector. The loaders refuse any other dtype or shape,
naming the file.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import csr
from .graphon_model import StepGraphon
from .rng import substream


@dataclass
class LatentAssignment:
    """Hidden i.i.d. Uniform[0,1] vertex positions."""

    latents: np.ndarray

    def __post_init__(self):
        self.latents = np.asarray(self.latents, dtype=float)
        if not np.all((self.latents >= 0) & (self.latents <= 1)):  # NaN fails both
            raise ValueError("latents must lie in [0,1]")

    @property
    def n(self) -> int:
        return self.latents.size


@dataclass
class SparseGraph:
    """Simple undirected graph; edges stored as sorted (u < v) int64 rows.

    Its 2m oriented edges, on which the non-backtracking operator lives, are
    numbered from the rows: edge 2i is row i, u -> v, and 2i + 1 is its
    reversal v -> u.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        # an int64 array is kept as it is, not copied
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if e.size:
            if int(self.n) ** 2 > np.iinfo(np.int64).max:
                raise ValueError("n too large for int64 pair keys")
            u, v = e[:, 0], e[:, 1]
            if np.any(u >= v):
                raise ValueError("edges must satisfy u < v (no self-loops)")
            if np.any(u < 0) or np.any(v >= self.n):
                raise ValueError("edge endpoint out of range")
            key = u * self.n + v  # sorts like the (u, v) rows
            # sampled graphs, split subsets and loaded files arrive sorted, and
            # strictly increasing keys hold no duplicate
            if not np.all(key[1:] > key[:-1]):
                order = np.argsort(key, kind="stable")
                e, key = e[order], key[order]
                if np.any(key[1:] == key[:-1]):
                    raise ValueError("duplicate edges")
        self.edges = e

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    @property
    def adjacency(self) -> csr.CsrMatrix:
        """The 0/1 adjacency, built on each access.

        Entered as u -> v, v -> u edge by edge: since the edges are sorted by
        (u, v), that leaves each row's columns sorted, and the build sorts nothing.
        """
        return csr.build((self.n, self.n), self.edges.ravel(), self.edges[:, ::-1].ravel(), np.ones(2 * self.m))

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n).astype(np.int64, copy=False)

    def neighbors(self, v: int) -> np.ndarray:
        a = self.adjacency
        return a.indices[a.indptr[v] : a.indptr[v + 1]]


def _distinct_pairs(rng, n: int, count: int, ma: np.ndarray, mb: np.ndarray | None = None):
    """`count` distinct unordered pairs, uniform over the pool, via redraw on collision.

    The pool is the pairs within `ma` when `mb` is None, else ma x mb. A draw
    (i, j) is kept as the key i * n + j, and the keys are deduplicated by one
    sort and an adjacent-difference mask. Returns the int64 keys
    min * n + max of the pairs, in no set order.
    """
    got = np.empty(0, dtype=np.int64)
    while got.size < count:
        k = int((count - got.size) * 1.2) + 8
        i = ma[rng.integers(0, ma.size, size=k)]
        if mb is None:
            j = ma[rng.integers(0, ma.size, size=k)]
            keep = i != j
            i, j = i[keep], j[keep]
            i, j = np.minimum(i, j), np.maximum(i, j)
        else:
            j = mb[rng.integers(0, mb.size, size=k)]
        keys = i * n + j
        if got.size:
            keys = np.concatenate([got, keys])
        keys.sort()
        fresh = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        got = keys[fresh]
    if got.size > count:
        # drop a uniformly chosen surplus so the kept set stays uniform
        keep = rng.permutation(got.size)[:count]
        got = got[np.sort(keep)]
    if mb is None:  # drawn as (min, max) already
        return got
    i, j = np.divmod(got, n)
    return np.minimum(i, j) * n + np.maximum(i, j)


def sample_graph(g: StepGraphon, n: int, seed: int) -> tuple[SparseGraph, LatentAssignment]:
    """Draw latents and a graph with edge probability min(Q(X_u, X_v)/n, 1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng_lat = substream(seed, "latents")
    latents = rng_lat.random(n)
    blocks = g.block_of(latents)
    members = [np.sort(np.nonzero(blocks == b)[0]) for b in range(g.n_blocks)]

    rng_edges = substream(seed, "edges")
    chunks = []
    for a in range(g.n_blocks):
        for b in range(a, g.n_blocks):
            p = min(g.values[a, b] / n, 1.0)
            if p <= 0.0:
                continue
            ma, mb = members[a], members[b]
            n_pairs = ma.size * (ma.size - 1) // 2 if a == b else ma.size * mb.size
            if n_pairs == 0:
                continue
            count = int(rng_edges.binomial(n_pairs, p)) if p < 1.0 else int(n_pairs)
            if count == 0:
                continue
            if count > n_pairs // 2:
                # dense block pair (only near the probability clamp at tiny n):
                # enumerate the full pool of keys and keep a uniform subset
                if a == b:
                    iu, ju = np.triu_indices(ma.size, k=1)
                    lo, hi = ma[iu], ma[ju]
                else:
                    i, j = np.repeat(ma, mb.size), np.tile(mb, ma.size)
                    lo, hi = np.minimum(i, j), np.maximum(i, j)
                keep = np.sort(rng_edges.permutation(n_pairs)[:count])
                chunks.append(lo[keep] * n + hi[keep])
                continue
            chunks.append(_distinct_pairs(rng_edges, n, count, ma, None if a == b else mb))
    # the block pairs' pools are disjoint, so the keys are distinct; sorted,
    # they order the edges as SparseGraph keeps them
    keys = np.sort(np.concatenate(chunks)) if chunks else np.empty(0, dtype=np.int64)
    return SparseGraph(n, np.stack(np.divmod(keys, n), axis=1)), LatentAssignment(latents)


def split_edges(gr: SparseGraph, epsilon: float, seed: int) -> tuple[SparseGraph, SparseGraph]:
    """Independently route each edge to G1 with probability 1 - epsilon, else G2."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0,1)")
    rng = substream(seed, "split")
    to_g2 = rng.random(gr.m) < epsilon
    return SparseGraph(gr.n, gr.edges[~to_g2]), SparseGraph(gr.n, gr.edges[to_g2])


EDGE_DTYPE = np.dtype("<i4")
LATENT_DTYPE = np.dtype("<f8")


def save_npy(arr: np.ndarray, path) -> None:
    # through an open file, so np.save writes exactly `path` (it appends
    # ".npy" to a name that lacks it)
    with open(path, "wb") as fh:
        np.save(fh, arr, allow_pickle=False)


def load_npy(path, dtype: np.dtype, ndim: int) -> np.ndarray:
    """The array in `path`, refused unless it has `dtype` and `ndim` axes."""
    try:
        arr = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:  # not .npy, truncated, or a pickled object array
        raise ValueError(f"{path}: not a readable .npy array ({exc})") from exc
    if arr.dtype != dtype or arr.ndim != ndim:
        raise ValueError(f"{path}: expected a {ndim}-D {dtype.str} array, found {arr.ndim}-D {arr.dtype.str}")
    return arr


def save_edge_list(gr: SparseGraph, path) -> None:
    """The (m, 2) rows u < v, 0-indexed, as one `<i4` .npy array."""
    if gr.n > np.iinfo(EDGE_DTYPE).max:
        raise ValueError(f"n = {gr.n} does not fit the {EDGE_DTYPE.str} edge dump")
    save_npy(gr.edges.astype(EDGE_DTYPE), path)


def load_edge_list(path, n: int) -> SparseGraph:
    """The graph on `n` vertices whose edges `save_edge_list` wrote to `path`.

    The file records no vertex count: `n` comes from the caller (the
    pipeline's config). SparseGraph's u < v, range and duplicate checks run
    on the loaded rows.
    """
    edges = load_npy(path, EDGE_DTYPE, 2)
    if edges.shape[1] != 2:
        raise ValueError(f"{path}: expected 2 columns, found {edges.shape[1]}")
    try:
        return SparseGraph(n, edges)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_latents(lat: LatentAssignment, path) -> None:
    """The latents as one 1-D `<f8` .npy array; the round trip is bit for bit."""
    save_npy(lat.latents.astype(LATENT_DTYPE), path)


def load_latents(path) -> LatentAssignment:
    """The latents `save_latents` wrote to `path`, refused unless a 1-D `<f8` array in [0, 1]."""
    latents = load_npy(path, LATENT_DTYPE, 1)
    try:
        return LatentAssignment(latents)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
