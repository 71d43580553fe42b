"""Mollified moment matching: a nonnegative grid-node fit of the moments.

The estimated joint moments describe a distribution supported on a curve in
R^K (the image of the eigenfunctions), so it is first convolved with a
compactly supported bump of width delta, which makes moment matching
well-posed.

The pipeline fits with `fit_nodes`: nonnegative weights on the midpoint grid
of the box [-kappa, kappa]^K whose moments of total degree <= N match the
mollified table in least squares, solved by an in-package Lawson-Hanson NNLS
(`nnls`). Any nonnegative law matching those moments is close to the target
whenever they determine it. The fit's moment matrix comes from one per-axis
table of the midpoints' powers (`grid_moments`); the node grid itself is
never built.

A Legendre density expansion on the same box, acceptance criterion 5's
reference, is a test oracle in tests/oracles.py: its coefficients follow
linearly from the moments, but the positive part of such a low-degree
expansion cannot approach a law concentrated near a few points.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

import numpy as np
from numpy.polynomial import legendre as npleg

from .star_counts import MomentTable


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


def mollify_moments(table: MomentTable, mm: MollifierMoments) -> MomentTable:
    """The table of M_alpha = sum_{beta <= alpha} P_beta prod_i C(a_i, b_i) E[N^(a_i - b_i)].

    The convolution matrix acts on one axis at a time. Along an axis, the
    entries that agree off it form a line; each line is a column of an
    (N+1, lines) matrix, zero above total degree N, so one matrix product
    covers every line. Its bits are those of the matrix applied along each
    axis of the (N+1,) * K tensor, which the tests check.
    """
    if not table.valid:
        raise UnusableFitError("moment table is invalid (some pair diagonal <= 0)")
    if mm.N < table.N:
        raise ValueError("mollifier moments shorter than moment table order")
    t = _binomial_convolution_matrix(mm, table.N)
    alphas = np.array(table.alphas).reshape(-1, table.K)
    values = table.values
    for axis in range(table.K):
        line = np.unique(np.delete(alphas, axis, axis=1), axis=0, return_inverse=True)[1].ravel()
        lines = np.zeros((table.N + 1, line.max() + 1))
        lines[alphas[:, axis], line] = values
        values = (t @ lines)[alphas[:, axis], line]
    return replace(table, values=values)


def _midpoints(kappa: float, resolution: int) -> np.ndarray:
    return (np.arange(resolution) + 0.5) / resolution * 2 * kappa - kappa


def node_resolution(K: int) -> int:
    """Per-axis node count: SAMPLE_GRID, lowered until the grid has at most NODE_BUDGET nodes."""
    if K < 1:
        raise ValueError("need K >= 1")
    r = min(SAMPLE_GRID, int(round(NODE_BUDGET ** (1.0 / K))) + 1)
    while r > 1 and r**K > NODE_BUDGET:
        r -= 1
    return r


def grid_moments(mids: np.ndarray, alphas) -> np.ndarray:
    """Monomials prod_i x_i^alpha_i on the tensor grid mids^K, one row per alpha, one column per node in C order.

    Row a of an (N+1, r) power table is mids ** a; each alpha's row is the
    outer product of its per-axis powers, taken in axis order, so neither the
    (r^K, K) grid nor any power of it is formed.
    """
    alphas = np.asarray(alphas, dtype=np.intp)
    powers = np.stack([mids**a for a in range(int(alphas.max()) + 1)])
    out = powers[alphas[:, 0]]
    for axis in range(1, alphas.shape[1]):
        out = (out[:, :, None] * powers[alphas[:, axis]][:, None, :]).reshape(len(alphas), -1)
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
    r = A @ x - b
    return NnlsResult(x, float(np.sqrt(np.einsum("i,i->", r, r))), solves)  # not a BLAS norm: see _lift


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


def fit_nodes(M: MomentTable, kappa: float, K: int, resolution: int, delta: float = 0.0) -> NodeFit:
    """Nonnegative grid-node law whose total-degree <= N moments match the table M.

    Solves min ||A w - m||_2 over w >= 0 (`nnls`, Lawson-Hanson), where A holds
    the monomials of the midpoint-grid nodes of [-kappa, kappa]^K, built from
    the midpoints' power table (`grid_moments`), and m the values of M (the
    mollified moment table), one per alpha with |alpha| <= N. The weights are
    then normalised to sum to 1, and the nodes that keep weight are read off
    their grid indices. Non-finite moments, a solve that does not converge,
    and a fit with no weight raise UnusableFitError.
    """
    if M.K != K:
        raise ValueError(f"moment table has K = {M.K}, not {K}")
    if kappa <= 0 or resolution < 1:
        raise ValueError("need kappa > 0 and resolution >= 1")
    mids = _midpoints(kappa, resolution)
    solved = nnls(grid_moments(mids, M.alphas), M.values)
    w, residual = solved
    total = w.sum()
    if not total > 0:
        raise UnusableFitError("nonnegative moment fit put no weight on any node")
    keep = np.flatnonzero(w > 0)
    return NodeFit(
        K=K,
        N=M.N,
        kappa=kappa,
        delta=delta,
        resolution=resolution,
        nodes=mids[np.stack(np.unravel_index(keep, (resolution,) * K), axis=1)],
        weights=w[keep] / total,
        residual=float(residual),
        iterations=solved.iterations,
    )
