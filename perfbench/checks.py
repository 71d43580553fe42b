"""Output checks for one estimate, computed apart from the pipeline.

Dumps are read back through the program's own loaders (the
`PipelineState.require_*` methods, which go through
`graph_sampler.load_edge_list`, `estimator.load_estimate` and friends), so a
change of dump format does not break the checks. Every quantity compared
against the dumps is recomputed here with plain numpy/scipy from the edge
lists, the aggregates and the block model; nothing is compared against a
stored copy of an earlier run.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

SPECTRUM_TOL = 1e-6   # Ihara-Bass residual; measures about 4e-9
MOMENT_TOL = 1e-8     # relative; the table agrees to about 1e-15
EVAL_TOL = 1e-9       # relative, delta2_upper and l2_grid
FIT_SUM_TOL = 1e-9


@dataclass
class Truth:
    """Eigenpairs of a block kernel, |mu| descending, feature signs fixed."""

    measures: np.ndarray
    values: np.ndarray
    mu: np.ndarray
    features: np.ndarray  # (blocks, rank): eigenfunction value on each block

    @classmethod
    def of(cls, measures, values) -> "Truth":
        p = np.asarray(measures, dtype=float)
        w = np.asarray(values, dtype=float)
        d = np.sqrt(p)
        mu, v = np.linalg.eigh(d[:, None] * w * d[None, :])
        order = np.lexsort((-mu, -np.abs(mu)))
        mu, f = mu[order], v[:, order] / d[:, None]
        for j in range(f.shape[1]):
            col = f[:, j]
            first = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
            if col[first] < 0:
                f[:, j] = -col
        return cls(p, w, mu, f)

    @property
    def informative(self) -> int:
        """Eigenvalues above the Kesten-Stigum threshold sqrt(mu_1)."""
        return int(np.sum(np.abs(self.mu) > np.sqrt(self.mu[0]) + 1e-9 * max(1.0, self.mu[0])))

    def blocks_at(self, x: np.ndarray) -> np.ndarray:
        edges = np.concatenate([[0.0], np.cumsum(self.measures[:-1])])
        return np.searchsorted(edges, x, side="right") - 1


def _adjacency(edges: np.ndarray, n: int) -> sparse.csr_matrix:
    u, v = edges[:, 0], edges[:, 1]
    data = np.ones(2 * u.size)
    return sparse.csr_matrix((data, (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n))


def check_spectrum(lambdas, aggregates, g1_edges, n, epsilon, truth: Truth) -> tuple[list[str], float]:
    """K against the model, and the Ihara-Bass identity for every accepted pair.

    With nu = lambda_k (1 - epsilon) an eigenvalue of G1's non-backtracking
    matrix and a the in-edge sums of its eigenvector,
    nu^2 a - nu A1 a + (D1 - I) a = 0. Returns the errors and lambda_err.
    """
    errors = []
    lambdas = np.asarray(lambdas, dtype=float)
    K = lambdas.size
    if K != truth.informative:
        errors.append(f"K = {K}, model has {truth.informative} eigenvalues above sqrt(mu_1)")
    a1 = _adjacency(g1_edges, n)
    deg = np.asarray(a1.sum(axis=1)).ravel()
    for k in range(K):
        nu = lambdas[k] * (1.0 - epsilon)
        a = aggregates[:, k]
        r = nu * nu * a - nu * (a1 @ a) + (deg - 1.0) * a
        rel = np.linalg.norm(r) / (nu * nu * np.linalg.norm(a))
        if not rel <= SPECTRUM_TOL:
            errors.append(f"Ihara-Bass residual of lambda_{k + 1} is {rel:.3e}")
    k = min(K, truth.mu.size)
    lambda_err = float(np.max(np.abs(lambdas[:k] - truth.mu[:k]) / np.abs(truth.mu[:k]))) if k else np.inf
    return errors, lambda_err


def check_moments(p_diag, entries, lambdas, aggregates, g2_edges, n, epsilon) -> list[str]:
    """Pair diagonal and every entry of total degree <= 2, recomputed from G2.

    P_alpha = A_alpha n^(|alpha|/2 - 1) / (eps^|alpha| prod (sqrt(P_ii) lambda_i)^alpha_i),
    where A_alpha sums, over centers w, the product of aggregates over ordered
    tuples of distinct neighbors of w.
    """
    errors = []
    B = np.asarray(aggregates, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    K = lam.size
    u, v = g2_edges[:, 0], g2_edges[:, 1]
    pd = np.array([2.0 * np.dot(B[u, k], B[v, k]) / (epsilon * lam[k]) for k in range(K)])
    if not np.allclose(p_diag, pd, rtol=MOMENT_TOL, atol=0.0):
        errors.append(f"pair diagonal {list(p_diag)} != recomputed {list(pd)}")
        return errors
    if np.any(pd <= 0):
        return errors  # the table is zeroed and the run degenerate; reported elsewhere
    a2 = _adjacency(g2_edges, n)
    deg = np.asarray(a2.sum(axis=1)).ravel()
    S = a2 @ B
    scale = np.sqrt(pd) * lam
    expect = {(0,) * K: 1.0}
    for i in range(K):
        alpha = tuple(int(t == i) for t in range(K))
        expect[alpha] = float(deg @ B[:, i]) / np.sqrt(n) / (epsilon * scale[i])
        for j in range(i, K):
            alpha = tuple(int(t == i) + int(t == j) for t in range(K))
            a_val = float(S[:, i] @ S[:, j] - (a2 @ (B[:, i] * B[:, j])).sum())
            expect[alpha] = a_val / (epsilon**2 * scale[i] * scale[j])
    for alpha, want in expect.items():
        got = float(entries[alpha])
        if not abs(got - want) <= MOMENT_TOL * (1.0 + abs(want)):
            errors.append(f"P{alpha} = {got!r}, recomputed {want!r}")
    return errors


def check_fit(nodes, weights, kappa, K) -> list[str]:
    """Weights positive and summing to 1; nodes inside [-kappa, kappa]^K."""
    errors = []
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if nodes.ndim != 2 or nodes.shape != (weights.size, K):
        errors.append(f"nodes of shape {nodes.shape} for {weights.size} weights and K = {K}")
    if not np.all(weights > 0):
        errors.append(f"{int(np.sum(weights <= 0))} fit weights are not positive")
    if not abs(weights.sum() - 1.0) <= FIT_SUM_TOL:
        errors.append(f"fit weights sum to {weights.sum()!r}")
    if nodes.size and not np.abs(nodes).max() <= kappa * (1 + 1e-12):
        errors.append(f"node {np.abs(nodes).max()!r} outside the box of half-width {kappa!r}")
    return errors


def _pieces(m: int, g: int) -> np.ndarray:
    mid = (np.arange(g) + 0.5) / g
    return np.clip(np.ceil(mid * m).astype(int), 1, m) - 1


def _sorted_rows(f: np.ndarray, order) -> np.ndarray:
    keys = [np.arange(f.shape[0])] + [f[:, i] for i in reversed(order)]
    return f[np.lexsort(tuple(keys))]


def alignment_distance(Z, lambdas, truth: Truth, rank: int, signs, order, g: int) -> float:
    """Grid L2 distance after sorting both sides' features in one priority order."""
    Z = np.asarray(Z, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    r = max(rank, lam.size)
    if lam.size < r:
        Z = np.concatenate([Z, np.zeros((Z.shape[0], r - lam.size))], axis=1)
        lam = np.concatenate([lam, np.zeros(r - lam.size)])
    mid = (np.arange(g) + 0.5) / g
    f_true = _sorted_rows(truth.features[truth.blocks_at(mid), :r], order)
    f_est = _sorted_rows(Z * np.asarray(signs, dtype=float), order)[_pieces(Z.shape[0], g)]
    k_true = (f_true * truth.mu[:r]) @ f_true.T
    k_est = (f_est * lam) @ f_est.T
    return float(np.sqrt(np.mean((k_est - k_true) ** 2)))


def l2_grid(Z, lambdas, truth: Truth, g: int) -> float:
    mid = (np.arange(g) + 0.5) / g
    b = truth.blocks_at(mid)
    f = np.asarray(Z, dtype=float)[_pieces(len(Z), g)]
    return float(np.sqrt(np.mean(((f * lambdas) @ f.T - truth.values[np.ix_(b, b)]) ** 2)))


def check_evaluation(metrics: dict, Z, lambdas, truth: Truth, rank: int, g: int) -> tuple[list[str], float]:
    """Recompute delta2_upper for the reported relabelling, and l2_grid.

    Also checks that the reported value is no worse than the unflipped,
    identity-priority candidate, since it is a minimum over candidates.
    Returns the errors and the recomputed delta2_upper.
    """
    errors = []
    reported = metrics.get("delta2_upper")
    if reported is None:
        return [f"no delta2_upper: {metrics.get('alignment_warning')}"], np.inf
    d2 = alignment_distance(Z, lambdas, truth, rank, metrics["sign_pattern"], metrics["priority_order"], g)
    if not abs(d2 - reported) <= EVAL_TOL * max(d2, 1e-12):
        errors.append(f"delta2_upper = {reported!r}, recomputed {d2!r}")
    r = max(rank, len(lambdas))
    plain = alignment_distance(Z, lambdas, truth, rank, np.ones(r), tuple(range(r)), g)
    if not reported <= plain * (1 + EVAL_TOL):
        errors.append(f"delta2_upper = {reported!r} exceeds the identity candidate's {plain!r}")
    l2 = l2_grid(Z, lambdas, truth, g)
    if not abs(l2 - metrics["l2_grid"]) <= EVAL_TOL * max(l2, 1e-12):
        errors.append(f"l2_grid = {metrics['l2_grid']!r}, recomputed {l2!r}")
    return errors, d2


def dump_digest(out_dir) -> str:
    """Digest of every file under `out_dir`; the manifest enters without its timings."""
    h = hashlib.sha256()
    root = Path(out_dir)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(data)
            doc.pop("timings_sec", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(str(path.relative_to(root)).encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def dump_bytes(out_dir) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())
