"""Reference implementations the tests check the package's run path against.

No run, script or CLI command executes these; each is kept here, beside the
tests that use it, as an independent oracle:

- the Legendre density path (`legendre_basis`, `fit_density`, `eval_density`,
  `density_grid`, `l1_norm_plus`): acceptance criterion 5's reference for the
  mollified moments, the density on the box [-kappa, kappa]^K in tensor
  products of unit-norm Legendre polynomials, whose coefficients the moments
  determine linearly. The positive part of such a low-degree expansion
  cannot approach a law concentrated near a few points, which is why the
  pipeline fits grid nodes (`moment_poly.fit_nodes`) instead;
- the dense builders of the non-backtracking operator B and of its
  Ihara-Bass companion, on which the spectrum's solver is checked, and the
  dense adjacency, built from the edge list apart from `graphon_forge.csr`;
- `grid_nodes` and `node_moments`, the fit grid built as an (r^K, K) array
  and the monomials of its nodes, one coordinate power at a time, against
  which `moment_poly.grid_moments` is checked bit for bit;
- `_apply_axes`, a matrix applied along every axis of a dense tensor: the
  Legendre path's coefficient map, and the reference for
  `moment_poly.mollify_moments` on the table's (N+1,) * K view;
- `count_star`, one star count A_alpha straight from its own power sums,
  against which `star_counts.moment_table` is checked, and
  `box_profile_terms`, the expansion's term count on the (N+1,) * K box,
  against which `star_counts.profile_terms` is checked;
- `assemble`, an estimate from its m feature rows, which the pipeline
  instead builds from its atoms and piece index;
- `delta2_exact_cells`, the exact alignment distance over cell permutations
  of small equal-cell kernels, against which `evaluation.delta2_upper` is
  checked.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np
from numpy.polynomial import legendre as npleg

from graphon_forge.estimator import GraphonEstimate
from graphon_forge.graph_sampler import SparseGraph
from graphon_forge.moment_poly import UnusableFitError, _midpoints
from graphon_forge.nonbacktracking import NbOperator
from graphon_forge.star_counts import _power_sums, _profile_sum, injective_profiles, total_degree_indices


def _apply_axes(matrix: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Apply `matrix` along every axis of `tensor`."""
    out = tensor
    for axis in range(tensor.ndim):
        out = np.moveaxis(np.tensordot(matrix, out, axes=(1, axis)), 0, axis)
    return out


def grid_nodes(kappa: float, K: int, resolution: int) -> np.ndarray:
    """Midpoint tensor grid of [-kappa, kappa]^K, shape (resolution^K, K), C order."""
    mids = _midpoints(kappa, resolution)
    return np.stack(np.meshgrid(*([mids] * K), indexing="ij"), axis=-1).reshape(-1, K)


def node_moments(nodes: np.ndarray, alphas) -> np.ndarray:
    """Matrix of monomials prod_i x_i^alpha_i, one row per alpha, one column per node."""
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    out = np.ones((len(alphas), nodes.shape[0]))
    for row, alpha in enumerate(alphas):
        for axis, a in enumerate(alpha):
            if a:
                out[row] *= nodes[:, axis] ** a
    return out


@dataclass
class LegendreBasis:
    """Monomial coefficients of unit-L2-norm Legendre polynomials, plus the box scaling.

    Row i of `coeffs` holds the monomial coefficients of L_i on [-1, 1];
    `scaled_coeffs[i, j] = coeffs[i, j] / kappa^(j + 1/2)` are the monomial
    coefficients of the rescaled basis on [-kappa, kappa].
    """

    N: int
    kappa: float
    coeffs: np.ndarray
    scaled_coeffs: np.ndarray

    def values(self, x: np.ndarray) -> np.ndarray:
        """Basis values L~_i(x), shape (len(x), N+1); three-term recurrence."""
        t = np.asarray(x, dtype=float) / self.kappa
        van = npleg.legvander(t, self.N)
        norms = np.sqrt((2 * np.arange(self.N + 1) + 1) / (2.0 * self.kappa))
        return van * norms


def legendre_basis(N: int, kappa: float) -> LegendreBasis:
    if N < 0 or kappa <= 0:
        raise ValueError("need N >= 0 and kappa > 0")
    coeffs = np.zeros((N + 1, N + 1))
    for i in range(N + 1):
        unit = np.zeros(i + 1)
        unit[i] = 1.0
        coeffs[i, : i + 1] = npleg.leg2poly(unit) * np.sqrt((2 * i + 1) / 2.0)
    scaled = coeffs / kappa ** (np.arange(N + 1)[None, :] + 0.5)
    return LegendreBasis(N=N, kappa=kappa, coeffs=coeffs, scaled_coeffs=scaled)


@dataclass
class DensityFit:
    """Coefficient tensor of the truncated density expansion on the box."""

    K: int
    N: int
    kappa: float
    delta: float
    rho: np.ndarray
    l1_norm_plus: float | None = None
    resolution_warning: bool = False
    _basis: LegendreBasis = field(default=None, repr=False, compare=False)

    @property
    def basis(self) -> LegendreBasis:
        if self._basis is None:
            self._basis = legendre_basis(self.N, self.kappa)
        return self._basis


def fit_density(M: np.ndarray, basis: LegendreBasis, K: int, delta: float = 0.0) -> DensityFit:
    """Coefficients rho_alpha = sum_{beta <= alpha} C~[alpha_i, beta_i] M_beta.

    The triangular scaled-coefficient matrix acts on the moment tensor along
    every axis; with exact moments of a polynomial density this recovers its
    basis coefficients exactly.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != K or any(s != basis.N + 1 for s in M.shape):
        raise ValueError("moment tensor shape must be (N+1,) * K")
    return DensityFit(
        K=K,
        N=basis.N,
        kappa=basis.kappa,
        delta=delta,
        rho=_apply_axes(basis.scaled_coeffs, M),
        _basis=basis,
    )


def _eval_points(fit: DensityFit, pts: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    inside = np.all(np.abs(pts) <= fit.kappa, axis=1)
    vals = np.zeros(pts.shape[0])
    if np.any(inside):
        sub = pts[inside]
        acc = np.broadcast_to(fit.rho, (sub.shape[0],) + fit.rho.shape).copy()
        for axis in range(fit.K):
            bv = fit.basis.values(sub[:, axis])
            acc = np.einsum("pi...,pi->p...", acc, bv)
        vals[inside] = acc.reshape(sub.shape[0])
    return vals


def eval_density(fit: DensityFit, x) -> np.ndarray | float:
    """h_N at point(s) x; zero outside the box."""
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    out = _eval_points(fit, x)
    return float(out[0]) if single else out


def density_grid(fit: DensityFit, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint tensor grid values of h_N: (axis midpoints, value tensor)."""
    mids = _midpoints(fit.kappa, resolution)
    bv = fit.basis.values(mids)  # (res, N+1)
    acc = fit.rho
    for _ in range(fit.K):
        # contract the leading coefficient axis against the basis values,
        # cycling so finished point-axes stay in order
        acc = np.tensordot(acc, bv, axes=(0, 1))
    return mids, acc


def l1_norm_plus(fit: DensityFit, grid_resolution: int = 128) -> float:
    """Box integral of max(h_N, 0) by midpoint quadrature; doubling check attached.

    Stores the value on the fit and flags `resolution_warning` when doubling
    the grid moves the result by 1e-4 relative or more.
    """
    if grid_resolution < 32:
        raise ValueError("need at least 32 grid points per axis")
    cell = (2 * fit.kappa / grid_resolution) ** fit.K
    _, vals = density_grid(fit, grid_resolution)
    norm = float(np.maximum(vals, 0.0).sum() * cell)
    cell2 = (2 * fit.kappa / (2 * grid_resolution)) ** fit.K
    _, vals2 = density_grid(fit, 2 * grid_resolution)
    norm2 = float(np.maximum(vals2, 0.0).sum() * cell2)
    if norm <= 0.0 or norm2 <= 0.0:
        raise UnusableFitError("fitted density has nonpositive L1 norm")
    fit.resolution_warning = abs(norm2 - norm) >= 1e-4 * abs(norm2)
    fit.l1_norm_plus = norm2
    return norm2


def build_nb_operator(G1: SparseGraph, scale: float = 1.0) -> NbOperator:
    if G1.m == 0:
        raise ValueError("graph has no edges")
    return NbOperator(G1, scale=scale)


def dense_nb_matrix(op: NbOperator) -> np.ndarray:
    """Explicit matrix (oracle-sized graphs only)."""
    return op.matmat(np.eye(op.dim))


def dense_adjacency(gr: SparseGraph) -> np.ndarray:
    """The graph's (n, n) 0/1 adjacency, straight from its edge list."""
    a = np.zeros((gr.n, gr.n))
    a[gr.edges[:, 0], gr.edges[:, 1]] = 1.0
    a[gr.edges[:, 1], gr.edges[:, 0]] = 1.0
    return a


def ihara_bass_dense(G1: SparseGraph) -> np.ndarray:
    a = dense_adjacency(G1)
    d = np.diag(a.sum(axis=1))
    n = G1.n
    top = np.concatenate([a, np.eye(n) - d], axis=1)
    bot = np.concatenate([np.eye(n), np.zeros((n, n))], axis=1)
    return np.concatenate([top, bot], axis=0)


def count_star(G2: SparseGraph, alpha: tuple[int, ...], B: np.ndarray) -> float:
    """A_alpha over ordered tuples of pairwise-distinct neighbors per center."""
    alpha = tuple(int(a) for a in alpha)
    if sum(alpha) < 1:
        raise ValueError("need |alpha| >= 1")
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape[0] != G2.n:
        B = B.T
    betas = sorted({b for _, blocks in injective_profiles(alpha) for b in blocks})
    return _profile_sum(alpha, _power_sums(G2, B, betas), G2.n)


def box_profile_terms(K: int, N: int) -> int:
    """Vector partitions of every alpha with |alpha| <= N, counted on the (N+1,) * K box.

    Letting each block beta (|beta| <= N) repeat turns the count p(alpha)
    into the sum of p(alpha - t beta) over t >= 0.
    """
    p = np.zeros((N + 1,) * K, dtype=np.int64)
    p[(0,) * K] = 1
    for beta in total_degree_indices(K, N)[1:]:
        before = p.copy()
        for t in range(1, N // max(beta) + 1):
            p[tuple(slice(t * b, None) for b in beta)] += before[tuple(slice(None, N + 1 - t * b) for b in beta)]
    return int(p[sum(np.indices(p.shape)) <= N].sum())


def assemble(Z: np.ndarray, lambdas: np.ndarray, kappa: float = np.inf, provenance=None) -> GraphonEstimate:
    """Estimate from feature rows and the spectral weights.

    Rows are the same atom only when their bytes are, so -0.0 and 0.0 stay
    apart and Z round-trips bit for bit.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    Z = np.ascontiguousarray(Z, dtype=float).reshape(-1, lambdas.size)
    rows = Z.view(np.dtype((np.void, Z.dtype.itemsize * Z.shape[1]))).ravel()
    _, first, index = np.unique(rows, return_index=True, return_inverse=True)
    return GraphonEstimate(lambdas, Z[first], index, kappa, provenance or {})


def delta2_exact_cells(a: np.ndarray, b: np.ndarray) -> float:
    """Exact alignment distance within the class of equal-cell permutations.

    Both kernels are p x p matrices on p equal-measure cells; minimizes the
    cell-grid L2 distance over all p! relabelings of b.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = a.shape[0]
    if a.shape != (p, p) or b.shape != (p, p):
        raise ValueError("kernels must be square and same size")
    if p > 9:
        raise ValueError("factorial search capped at p = 9; use delta2_upper instead")
    best = np.inf
    for perm in permutations(range(p)):
        perm = list(perm)
        d = np.sqrt(np.mean((a - b[np.ix_(perm, perm)]) ** 2))
        best = min(best, float(d))
    return best
