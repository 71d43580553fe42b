"""Step graphons and their spectral decompositions.

A step graphon is a symmetric nonnegative kernel on [0,1]^2 that is constant
on blocks; it is the k-block stochastic block model kernel when sampled at
edge-probability scale value/n. Its integral operator diagonalizes through
the symmetric matrix D^{1/2} W D^{1/2} with D = diag(block measures), which
is how `spectral_decompose` computes eigenpairs. Objects here are treated as
immutable after construction and are safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MEASURE_TOL = 1e-12


class GraphonValidationError(ValueError):
    """Raised when a kernel or decomposition violates its invariants."""


class _Blocks:
    """Right-open blocks laid out in order on [0,1], sized by the `block_measures` field."""

    @property
    def n_blocks(self) -> int:
        return self.block_measures.size

    def block_of(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.any(x < 0) or np.any(x > 1):
            raise GraphonValidationError("coordinate outside [0,1]")
        breakpoints = np.concatenate([[0.0], np.cumsum(self.block_measures[:-1]), [1.0]])
        idx = np.searchsorted(breakpoints, x, side="right") - 1
        return np.clip(idx, 0, self.n_blocks - 1)


@dataclass
class StepGraphon(_Blocks):
    """Block kernel: `values[a, b]` on block pair (a, b), blocks sized by `block_measures`."""

    block_measures: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.block_measures = np.asarray(self.block_measures, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        m, w = self.block_measures, self.values
        if m.ndim != 1 or np.any(m <= 0):
            raise GraphonValidationError("block measures must be positive")
        if abs(m.sum() - 1.0) > MEASURE_TOL:
            raise GraphonValidationError("block measures must sum to 1")
        if w.ndim != 2 or w.shape != (m.size, m.size):
            raise GraphonValidationError("values must be square and match block count")
        if not np.allclose(w, w.T, atol=0, rtol=0):
            raise GraphonValidationError("values must be symmetric")
        if np.any(w < 0):
            raise GraphonValidationError("values must be nonnegative")

    @property
    def bound(self) -> float:
        """Sup of the kernel (the constant M of the boundedness assumption)."""
        return float(self.values.max()) if self.values.size else 0.0

    def evaluate(self, x, y):
        return self.values[self.block_of(x), self.block_of(y)]

    def kernel_grid(self, g: int) -> np.ndarray:
        """Kernel values at the g x g midpoint grid."""
        mid = (np.arange(g) + 0.5) / g
        b = self.block_of(mid)
        return self.values[np.ix_(b, b)]


@dataclass
class SpectralGraphon(_Blocks):
    """Eigenpairs (mu_i, f_i) of a step kernel, |mu| descending, mu_1 > 0.

    Eigenfunctions are constant on the source blocks, `features[b, i]` being
    f_i on block b, and orthonormal under the block-measure-weighted inner
    product.
    """

    eigenvalues: np.ndarray
    features: np.ndarray  # (n_blocks, rank)
    degree_constant: float
    block_measures: np.ndarray

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        self.features = np.asarray(self.features, dtype=float)
        self.block_measures = np.asarray(self.block_measures, dtype=float)
        mu = self.eigenvalues
        if mu.size == 0 or mu[0] <= 0:
            raise GraphonValidationError("leading eigenvalue must be positive")
        if np.any(np.abs(mu[:-1]) < np.abs(mu[1:]) - 1e-12):
            raise GraphonValidationError("eigenvalues must be |.|-descending")
        if self.features.shape != (self.n_blocks, mu.size):
            raise GraphonValidationError("features must be (blocks, rank)")

    @property
    def rank(self) -> int:
        return self.eigenvalues.size

    def features_at(self, x, rank: int | None = None) -> np.ndarray:
        """Values of the first `rank` (default: all) eigenfunctions at x, one per last axis."""
        r = self.rank if rank is None else rank
        return self.features[:, :r][self.block_of(x)]

    def evaluate(self, x, y):
        return np.einsum("...i,...i->...", self.features_at(x) * self.eigenvalues, self.features_at(y))

    def feature_grid(self, g: int, rank: int | None = None) -> np.ndarray:
        return self.features_at((np.arange(g) + 0.5) / g, rank)

    def kernel_grid(self, g: int) -> np.ndarray:
        f = self.feature_grid(g)
        return (f * self.eigenvalues) @ f.T


def fix_signs(vectors: np.ndarray) -> None:
    """Flip in place each column whose first non-negligible coordinate is negative.

    An entry is negligible when its modulus is at most 1e-12 times the
    column's largest; an all-zero column is left as it is.
    """
    for col in vectors.T:
        top = 1e-12 * max(col.max(), -col.min(), 1e-300)
        big = (col > top) | (col < -top)  # |col| > top, in one-byte temporaries
        first = big.argmax()
        if big[first] and col[first] < 0:
            col *= -1.0  # numpy 2.4's in-place np.negative misreads a view with a 64-byte stride


def spectral_decompose(g: StepGraphon) -> SpectralGraphon:
    """Eigenpairs of the kernel's integral operator.

    Solves the dense symmetric problem for D^{1/2} W D^{1/2}; eigenfunction
    values on block b are v_i(b) / sqrt(measure_b).
    """
    d = np.sqrt(g.block_measures)
    sym = d[:, None] * g.values * d[None, :]
    w, v = np.linalg.eigh(sym)
    # |.|-descending; positive first on magnitude ties (Perron value leads)
    order = np.lexsort((-w, -np.abs(w)))
    w, v = w[order], v[:, order]
    q = float(np.dot(g.values @ g.block_measures, g.block_measures))
    v /= d[:, None]
    fix_signs(v)
    return SpectralGraphon(w, v, degree_constant=q, block_measures=g.block_measures)


@dataclass
class AssumptionReport:
    """Checked model constants: bound, degrees, informative-eigenvalue count."""

    M: float
    q: float
    q_per_block: np.ndarray
    constant_degree: bool
    r0: int
    non_simple: bool
    eigenvalues: np.ndarray


def check_assumptions(g: StepGraphon, tol: float = 1e-9, simple_tol: float = 1e-6) -> AssumptionReport:
    """Verify boundedness and constant expected degree; count eigenvalues above the bulk.

    r0 counts eigenvalues with |mu_i| > sqrt(mu_1) (the generalized
    Kesten-Stigum condition); `non_simple` flags a relative gap below
    `simple_tol` among the top r0.
    """
    q_blocks = g.values @ g.block_measures
    q = float(np.dot(q_blocks, g.block_measures))
    constant = bool(q_blocks.max() - q_blocks.min() <= tol)
    spec = spectral_decompose(g)
    mu = spec.eigenvalues
    # strict inequality, guarded against eigensolver round-off at the boundary
    r0 = int(np.sum(np.abs(mu) > np.sqrt(mu[0]) + 1e-9 * max(1.0, mu[0])))
    non_simple = False
    for i in range(r0):
        for j in range(i + 1, mu.size):
            if abs(abs(mu[i]) - abs(mu[j])) <= simple_tol * max(abs(mu[i]), 1e-300):
                non_simple = True
    return AssumptionReport(
        M=g.bound,
        q=q,
        q_per_block=q_blocks,
        constant_degree=constant,
        r0=r0,
        non_simple=non_simple,
        eigenvalues=mu,
    )


def scale(g: StepGraphon, h: float) -> StepGraphon:
    """Multiply the kernel by h > 0 (eigenvalues scale by h, eigenfunctions fixed)."""
    if h <= 0:
        raise GraphonValidationError("scale factor must be positive")
    return StepGraphon(g.block_measures.copy(), g.values * h)


def save_graphon(g: StepGraphon, path) -> None:
    from . import dumps  # imported here: dumps imports modules that import this one
    dumps.write(path, dumps.MODEL, vars(g))


def load_graphon(path) -> StepGraphon:
    from . import dumps
    return StepGraphon(**dumps.read(path, dumps.MODEL))
