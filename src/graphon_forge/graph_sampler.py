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
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .graphon_model import StepGraphon
from .rng import substream


@dataclass
class LatentAssignment:
    """Hidden i.i.d. Uniform[0,1] vertex positions."""

    latents: np.ndarray

    def __post_init__(self):
        self.latents = np.asarray(self.latents, dtype=float)
        if np.any(self.latents < 0) or np.any(self.latents > 1):
            raise ValueError("latents must lie in [0,1]")

    @property
    def n(self) -> int:
        return self.latents.size


@dataclass
class SparseGraph:
    """Simple undirected graph; edges stored as sorted (u < v) int64 rows."""

    n: int
    edges: np.ndarray
    _adjacency: sparse.csr_matrix = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        e = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        if e.size:
            if int(self.n) ** 2 > np.iinfo(np.int64).max:
                raise ValueError("n too large for int64 pair keys")
            u, v = e[:, 0], e[:, 1]
            if np.any(u >= v):
                raise ValueError("edges must satisfy u < v (no self-loops)")
            if np.any(u < 0) or np.any(v >= self.n):
                raise ValueError("edge endpoint out of range")
            key = u * self.n + v  # sorts like the (u, v) rows
            if not np.all(np.diff(key) > 0):  # split subsets and loaded files arrive sorted
                order = np.argsort(key, kind="stable")
                e, key = e[order], key[order]
            if np.any(np.diff(key) == 0):
                raise ValueError("duplicate edges")
        self.edges = e

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    @property
    def adjacency(self) -> sparse.csr_matrix:
        if self._adjacency is None:
            u, v = self.edges[:, 0], self.edges[:, 1]
            data = np.ones(2 * self.m)
            rows = np.concatenate([u, v])
            cols = np.concatenate([v, u])
            self._adjacency = sparse.csr_matrix(
                (data, (rows, cols)), shape=(self.n, self.n)
            )
        return self._adjacency

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
    sort and an adjacent-difference mask. Rows come back as (min, max).
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
        keys = np.sort(np.concatenate([got, i * n + j]))
        fresh = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        got = keys[fresh]
    if got.size > count:
        # drop a uniformly chosen surplus so the kept set stays uniform
        keep = rng.permutation(got.size)[:count]
        got = got[np.sort(keep)]
    i, j = np.divmod(got, n)
    return np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1)


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
                # enumerate the full pool and keep a uniform subset
                if a == b:
                    iu, ju = np.triu_indices(ma.size, k=1)
                    pool = np.stack([ma[iu], ma[ju]], axis=1)
                else:
                    pool = np.stack(
                        [np.repeat(ma, mb.size), np.tile(mb, ma.size)], axis=1
                    )
                    pool = np.stack(
                        [pool.min(axis=1), pool.max(axis=1)], axis=1
                    )
                keep = np.sort(rng_edges.permutation(n_pairs)[:count])
                chunks.append(pool[keep])
                continue
            chunks.append(_distinct_pairs(rng_edges, n, count, ma, None if a == b else mb))
    edges = np.concatenate(chunks) if chunks else np.empty((0, 2), dtype=np.int64)
    return SparseGraph(n, edges), LatentAssignment(latents)


def split_edges(gr: SparseGraph, epsilon: float, seed: int) -> tuple[SparseGraph, SparseGraph]:
    """Independently route each edge to G1 with probability 1 - epsilon, else G2."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0,1)")
    rng = substream(seed, "split")
    to_g2 = rng.random(gr.m) < epsilon
    return SparseGraph(gr.n, gr.edges[~to_g2]), SparseGraph(gr.n, gr.edges[to_g2])


def save_edge_list(gr: SparseGraph, path) -> None:
    """Header line "n m", then one "u v" per line, 0-indexed with u < v."""
    body = ("%d %d\n" * gr.m) % tuple(gr.edges.ravel().tolist())
    with open(path, "w") as fh:
        fh.write(f"{gr.n} {gr.m}\n{body}")


def load_edge_list(path) -> SparseGraph:
    with open(path) as fh:
        n, m = map(int, fh.readline().split())
        edges = np.loadtxt(fh, dtype=np.int64, ndmin=2) if m else np.empty((0, 2), np.int64)
    if edges.shape[0] != m:
        raise ValueError(f"edge list header promised {m} edges, found {edges.shape[0]}")
    return SparseGraph(n, edges)


def save_latents(lat: LatentAssignment, path) -> None:
    """One latent per line, as np.savetxt(fmt="%.17g") writes them; %.17g round-trips exactly."""
    body = ("%.17g\n" * lat.n) % tuple(lat.latents.tolist())
    with open(path, "w") as fh:
        fh.write(body)


def load_latents(path) -> LatentAssignment:
    return LatentAssignment(np.loadtxt(path, ndmin=1))
