"""Estimator quality metrics: grid L2 norms and alignment distances.

The graphon distance of interest minimizes the kernel L2 error over
measure-preserving relabelings of [0,1]. The infimum is not computable, so
two surrogates are reported: an exact minimum over cell permutations for
small equal-cell kernels, and a canonicalization upper bound otherwise. The
canonicalization sorts the pieces of each side by their (sign-adjusted)
feature vectors, all m pieces of the estimate before it is read off on the
evaluation grid; any such relabeling is measure preserving, so every
searched combination yields a valid upper bound and the reported value is
their minimum. Sorting only grid samples of the estimate would leave a noise
floor that does not shrink as m grows. The m pieces repeat a few atoms, and
equal rows are interchangeable, so the sort runs on the atoms weighted by
their piece counts: each grid cell takes the atom whose run of sorted pieces
covers it, the same relabeling as sorting all m rows. The search covers all
2^K feature sign flips and all K! orders of sort priority; the priority
search matters because a near-constant feature (the leading eigenfunction
under the constant-degree assumption always is) carries pure noise into a
fixed lexicographic key and would otherwise scramble the pairing of the
informative features.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial

import numpy as np

from .estimator import GraphonEstimate
from .graphon_model import SpectralGraphon

# cap on r! 2^r (ATOM_SORT_WEIGHT * A + g^2), the atom sort and grid work of
# delta2_upper's search in units of one grid cell; 10^9 is 1.5-3 s on one
# core (K = 5, g = 256 on 13 atoms takes 0.5-0.8 s)
ALIGNMENT_BUDGET = 10**9
# one atom's share of a candidate's sort and lookup, in grid cells: measured
# at 170-330 for r = 3-6 (about 0.45 us an atom against 1.6 ns a cell at
# r = 5), so a K = 5 search on 10^4 distinct atoms (about 20 s) is refused
ATOM_SORT_WEIGHT = 256


def l2_distance_grid(a, b, g: int) -> float:
    """L2([0,1]^2) distance of two kernels by midpoint quadrature on a g x g grid."""
    ka, kb = a.kernel_grid(g), b.kernel_grid(g)
    return float(np.sqrt(np.mean((ka - kb) ** 2)))


@dataclass
class AlignmentReport:
    delta2_upper: float
    sign_pattern: np.ndarray
    method: str
    priority_order: tuple[int, ...]


def _canonical_order(features: np.ndarray, order: tuple[int, ...]) -> np.ndarray:
    """Row permutation sorting `features` lexicographically, column order[0] first."""
    # np.lexsort keys: last is primary; ties fall through to the row index
    keys = [np.arange(features.shape[0])] + [features[:, i] for i in reversed(order)]
    return np.lexsort(tuple(keys))


def _kernel(features: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    return (features * lambdas) @ features.T


def delta2_upper(
    estimate: GraphonEstimate,
    truth: SpectralGraphon,
    g: int = 256,
    rank: int | None = None,
) -> AlignmentReport:
    """Upper bound on the alignment distance between estimate and rank-r truth.

    Both sides are compared on r features, r the larger of `rank` (default:
    the estimate's K) and K. The truth is truncated to its first r
    eigenpairs; a side with fewer than r is padded with zero-eigenvalue
    features, so a low-rank estimate is still charged for the spectral mass
    it missed and a component past the truth's rank is charged its full
    norm. Each candidate relabeling sorts the A atoms of the estimate, each
    standing for its run of pieces, and the g grid cells of the truth, then
    compares the two kernels on the g x g midpoint grid. Errors before any
    sort when the search would cost more than ALIGNMENT_BUDGET.
    """
    K = estimate.K
    r = max(K if rank is None else rank, K)
    atoms = estimate.atoms
    A = atoms.shape[0]
    cost = factorial(r) * 2**r * (ATOM_SORT_WEIGHT * A + g * g)
    if cost > ALIGNMENT_BUDGET:
        raise ValueError(
            f"alignment search r!*2^r*({ATOM_SORT_WEIGHT}A + g^2) = {cost:.3g} at r={r}, "
            f"A={A} atoms, g={g} exceeds the budget {ALIGNMENT_BUDGET:.3g}"
        )

    f_true = truth.feature_grid(g, min(r, truth.rank))
    mu = truth.eigenvalues[:r]
    if truth.rank < r:
        f_true = np.concatenate([f_true, np.zeros((g, r - truth.rank))], axis=1)
        mu = np.concatenate([mu, np.zeros(r - truth.rank)])
    lam = estimate.lambdas
    if K < r:
        atoms = np.concatenate([atoms, np.zeros((A, r - K))], axis=1)
        lam = np.concatenate([lam, np.zeros(r - K)])
    counts = estimate.counts
    cells = estimate.piece_of((np.arange(g) + 0.5) / g)

    best = np.inf
    best_signs = np.ones(r)
    best_order = tuple(range(r))
    for order in permutations(range(r)):
        k_true = _kernel(f_true[_canonical_order(f_true, order)], mu)
        for mask in range(2**r):
            signs = np.array([-1.0 if (mask >> i) & 1 else 1.0 for i in range(r)])
            signed = atoms * signs
            perm = _canonical_order(signed, order)
            # sorted piece p is atom perm[j] for the j whose run [ends[j-1], ends[j]) holds p
            ends = np.cumsum(counts[perm])
            f_est = signed[perm[np.searchsorted(ends, cells, side="right")]]
            d = float(np.sqrt(np.mean((_kernel(f_est, lam) - k_true) ** 2)))
            if d < best:
                best, best_signs, best_order = d, signs, order
    return AlignmentReport(
        delta2_upper=best,
        sign_pattern=best_signs,
        method="canonical-sort",
        priority_order=best_order,
    )


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


@dataclass
class FeatureDiagnostics:
    """Simulation-only checks of the aggregate/eigenfunction inner products.

    C[i, j] = n^(-1/2) sum_v B_i(v) f_j(X_v); in the large-graph limit the
    matrix is diagonal and the contraction sum_l mu_l C[i, l]^2 approaches
    mu_i C[i, i]^2.
    """

    C: np.ndarray
    contraction: np.ndarray      # per i: sum_l mu_l C[i, l]^2
    diagonal_term: np.ndarray    # per i: mu_i C[i, i]^2


def diagnostics_C(aggregates: np.ndarray, latents, truth: SpectralGraphon) -> FeatureDiagnostics:
    """Inner products of vertex aggregates with true eigenfunctions at the latents."""
    if latents is None:
        raise ValueError("diagnostics need simulator latents; none available")
    x = np.asarray(getattr(latents, "latents", latents), dtype=float)
    B = np.atleast_2d(np.asarray(aggregates, dtype=float))
    if B.shape[0] != x.size:
        B = B.T
    n, K = B.shape
    L = truth.rank
    fvals = truth.features_at(x)  # (n, L)
    C = (B.T @ fvals) / np.sqrt(n)
    mu = truth.eigenvalues
    contraction = (C**2) @ mu
    diag = np.array([mu[i] * C[i, i] ** 2 if i < L else np.nan for i in range(K)])
    return FeatureDiagnostics(C=C, contraction=contraction, diagonal_term=diag)
