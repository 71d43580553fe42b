"""Mollified moment matching: the pipeline's node fit and a Legendre reference.

The estimated joint moments describe a distribution supported on a curve in
R^K (the image of the eigenfunctions), so it is first convolved with a
compactly supported bump of width delta, which makes moment matching
well-posed.

The pipeline fits with `fit_nodes`: nonnegative weights on the midpoint grid
of the box [-kappa, kappa]^K whose moments of total degree <= N match the
mollified table in least squares, solved by an in-package Lawson-Hanson NNLS
(`nnls`). Any nonnegative law matching those moments is close to the target
whenever they determine it.

The Legendre path (`fit_density`) is acceptance criterion 5's reference and
is never run by the pipeline: the density on the same box in tensor products
of unit-norm Legendre polynomials, whose coefficients the moments determine
linearly. The positive part of such a low-degree expansion cannot approach a
law concentrated near a few points.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np
from numpy.polynomial import legendre as npleg

from .star_counts import MomentTable, total_degree_indices


SAMPLE_GRID = 128  # per-axis node count of the fit grid, lowered to meet NODE_BUDGET
NODE_BUDGET = 1 << 14  # cap on the number of grid nodes a node fit may weight
BUMP_RULE = 200  # Gauss-Legendre nodes for the bump moments; 100 agree only to ~5e-13


class QuadratureUnderflowError(ArithmeticError):
    pass


class UnusableFitError(RuntimeError):
    pass


@dataclass
class MollifierMoments:
    """Moments E[N_delta^j] of the bump density proportional to exp(-1/(d^2-x^2))."""

    delta: float
    moments: np.ndarray

    @property
    def N(self) -> int:
        return self.moments.size - 1


def mollifier_moments(delta: float, N: int) -> MollifierMoments:
    """Moments up to order N by a fixed Gauss-Legendre rule on the unit bump.

    The substitution x = delta * t reduces everything to the unit-width bump,
    so moment j is delta^j times a fixed constant; odd moments vanish by
    symmetry and are returned as exact zeros.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if N >= 1 and delta ** max(N, 1) == 0.0:
        raise QuadratureUnderflowError(f"delta={delta} underflows at order {N}")
    t, w = npleg.leggauss(BUMP_RULE)
    w_psi = w * np.exp(-1.0 / (1.0 - t * t))
    z0 = w_psi.sum()
    moments = np.zeros(N + 1)
    moments[0] = 1.0
    for j in range(2, N + 1, 2):
        moments[j] = float(np.dot(w_psi, t**j)) / z0 * delta**j
    return MollifierMoments(delta=delta, moments=moments)


def _binomial_convolution_matrix(mm: MollifierMoments, N: int) -> np.ndarray:
    """Lower-triangular T with T[a, b] = C(a, b) E[N_delta^(a-b)]."""
    t = np.zeros((N + 1, N + 1))
    for a in range(N + 1):
        for b in range(a + 1):
            t[a, b] = comb(a, b) * mm.moments[a - b]
    return t


def _apply_axes(matrix: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Apply `matrix` along every axis of `tensor`."""
    out = tensor
    for axis in range(tensor.ndim):
        out = np.moveaxis(np.tensordot(matrix, out, axes=(1, axis)), 0, axis)
    return out


def mollify_moments(table: MomentTable, mm: MollifierMoments) -> np.ndarray:
    """M_alpha = sum_{beta <= alpha} P_beta prod_i C(a_i, b_i) E[N^(a_i - b_i)]."""
    if not table.valid:
        raise UnusableFitError("moment table is invalid (some pair diagonal <= 0)")
    if mm.N < table.N:
        raise ValueError("mollifier moments shorter than moment table order")
    t = _binomial_convolution_matrix(mm, table.N)
    return _apply_axes(t, table.entries)


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


def _midpoints(kappa: float, resolution: int) -> np.ndarray:
    return (np.arange(resolution) + 0.5) / resolution * 2 * kappa - kappa


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


def node_resolution(K: int) -> int:
    """Per-axis node count: SAMPLE_GRID, lowered until the grid has at most NODE_BUDGET nodes."""
    if K < 1:
        raise ValueError("need K >= 1")
    r = min(SAMPLE_GRID, int(round(NODE_BUDGET ** (1.0 / K))) + 1)
    while r > 1 and r**K > NODE_BUDGET:
        r -= 1
    return r


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


class NnlsResult(tuple):
    """`(x, rnorm)` as returned by `nnls`; `iterations` counts its least-squares solves."""

    def __new__(cls, x: np.ndarray, rnorm: float, iterations: int):
        out = super().__new__(cls, (x, rnorm))
        out.iterations = iterations
        return out


def nnls(A, b, maxiter: int | None = None) -> NnlsResult:
    """min ||A x - b||_2 over x >= 0 by the Lawson-Hanson active-set method.

    Lawson and Hanson, Solving Least Squares Problems (1974), ch. 23, on A
    itself rather than A'A. Each outer step moves the free column with the
    largest dual w = A'(b - A x) into the passive set and solves least
    squares on the passive columns; while a passive coefficient comes out
    nonpositive, x steps back towards the solution by the largest feasible
    alpha and the columns it zeroes return to the free set. A new column
    that is numerically dependent on the passive ones, or whose own
    coefficient is not positive, is rejected and the next one tried (the
    book's two guards against rounding). The method stops when no free
    column has a positive dual. `maxiter` (default 3 * columns) bounds the
    least-squares solves; exhausting it, or a non-finite A or b, raises
    UnusableFitError.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise UnusableFitError("NNLS system has non-finite entries")
    n = A.shape[1]
    maxiter = 3 * n if maxiter is None else maxiter
    x = np.zeros(n)
    P = np.empty(0, dtype=np.intp)  # passive columns; x > 0 exactly there
    solves = 0

    def solve(cols: np.ndarray) -> tuple[np.ndarray, int]:
        nonlocal solves
        if solves == maxiter:
            raise UnusableFitError(f"NNLS did not converge within {maxiter} least-squares solves")
        solves += 1
        z, _, rank, _ = np.linalg.lstsq(A[:, cols], b, rcond=None)
        return z, rank

    w = A.T @ b  # the dual, with passive and rejected columns masked to -inf
    while True:
        t = int(np.argmax(w))
        if not w[t] > 0:
            break
        w[t] = -np.inf
        z, rank = solve(np.append(P, t))
        if rank <= P.size or not z[-1] > 0:
            continue  # dependent column, or its coefficient is not positive: try the next
        P = np.append(P, t)
        while (blocked := np.flatnonzero(z <= 0)).size:
            xP = x[P]
            ratios = xP[blocked] / (xP[blocked] - z[blocked])
            xP += ratios.min() * (z - xP)
            xP[blocked[np.argmin(ratios)]] = 0.0
            x[P] = np.maximum(xP, 0.0)
            P = P[xP > 0]
            z, _ = solve(P)
        x[P] = z
        w = A.T @ (b - A[:, P] @ z)
        w[P] = -np.inf
    return NnlsResult(x, float(np.linalg.norm(A @ x - b)), solves)


@dataclass
class NodeFit:
    """Discrete feature law: nonnegative weights, summing to 1, on box grid nodes.

    Only nodes with positive weight are kept; `residual` is the least-squares
    misfit of the unnormalised weights' moments, and `iterations` the number
    of least-squares solves the NNLS took.
    """

    K: int
    N: int
    kappa: float
    delta: float
    resolution: int
    nodes: np.ndarray    # (s, K) support nodes
    weights: np.ndarray  # (s,) positive, summing to 1
    residual: float
    iterations: int


def fit_nodes(M: np.ndarray, kappa: float, K: int, resolution: int, delta: float = 0.0) -> NodeFit:
    """Nonnegative grid-node law whose total-degree <= N moments match M.

    Solves min ||A w - m||_2 over w >= 0 (`nnls`, Lawson-Hanson), where A holds
    the monomials of the midpoint-grid nodes of [-kappa, kappa]^K and m the
    entries M_alpha with |alpha| <= N, the moments the star-count table
    computes (`star_counts.total_degree_indices`). Each such entry of the
    mollified table combines only table entries beta <= alpha, so it never
    reads the table's zeros above total degree N. The weights are then
    normalised to sum to 1. Non-finite moments, a solve that does not
    converge, and a fit with no weight raise UnusableFitError.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != K or len(set(M.shape)) != 1:
        raise ValueError("moment tensor shape must be (N+1,) * K")
    if kappa <= 0 or resolution < 1:
        raise ValueError("need kappa > 0 and resolution >= 1")
    N = M.shape[0] - 1
    alphas = total_degree_indices(K, N)
    nodes = grid_nodes(kappa, K, resolution)
    solved = nnls(node_moments(nodes, alphas), np.array([M[a] for a in alphas]))
    w, residual = solved
    total = w.sum()
    if not total > 0:
        raise UnusableFitError("nonnegative moment fit put no weight on any node")
    keep = np.flatnonzero(w > 0)
    return NodeFit(
        K=K,
        N=N,
        kappa=kappa,
        delta=delta,
        resolution=resolution,
        nodes=nodes[keep],
        weights=w[keep] / total,
        residual=float(residual),
        iterations=solved.iterations,
    )
