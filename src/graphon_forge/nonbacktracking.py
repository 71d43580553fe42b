"""Non-backtracking operator of a sparse graph and its informative spectrum.

The operator B lives on oriented edges: entry (e, f) is 1 exactly when e
feeds into f's tail without reversing f. One application costs O(|E|) via
the two-pass trick (aggregate incoming values per vertex, subtract the
reversal), so it is never materialized. Eigenvalues outside the bulk disk of
radius sqrt(lambda_1) estimate the kernel's informative eigenvalues; K counts
the real eigenvalues clearing the cutoff sqrt(lambda_1) + e1(n) with
e1(n) = 1/sqrt(log n).

The spectrum is not iterated on the 2|E| oriented edges but on the
Ihara-Bass companion C = [[A, I - D], [I, 0]] over 2n vertex coordinates
(Krzakala et al., PNAS 2013). If B xi = lambda xi and a(v) sums xi over the
edges into v, then [a; a / lambda] is an eigenvector of C with the same
eigenvalue, so C carries every non-trivial eigenvalue of B; the only
eigenvalues it adds are +-1, from isolated vertices and leaves. Those never
pass the cutoff: whenever lambda_1 > 1 the cutoff exceeds 1, and a graph
with lambda_1 <= 1 (its 2-core empty or a union of cycles) is refused as
degenerate before any iteration. Each accepted companion eigenvector is lifted back to
the oriented edges in O(|E|) by xi(u->v) = (lambda a(u) - a(v)) /
(lambda^2 - 1), and its residual is measured on B itself.

Extraction uses block subspace iteration on the cubed operator (the power
algorithm): cubing is cheap, preserves eigenvectors and magnitude order, and
cubes the separation ratio between informative eigenvalues and the bulk,
where a restarted Arnoldi iteration wastes its time converging continuum
bulk modes to full tolerance. Eigenvalues are read off as Rayleigh quotients
of the uncubed operator, so a complex bulk eigenvalue whose cube happens to
land near the real axis still fails the residual test and cannot alias as
informative.

`bulk_scale` handles spectra computed from a thinned edge subsample whose
operator has been rescaled by 1/(1 - epsilon): the rescaled bulk disk has
radius sqrt(bulk_scale * lambda_1), so the cutoff moves accordingly (the
slack shrinks with the scale to keep the signal margin; at bulk_scale = 1
the rule is exactly the unsplit one).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .graph_sampler import SparseGraph
from .rng import substream

DENSE_FALLBACK_DIM = 24
REAL_ABS_TOL = 1e-8
REAL_REL_TOL = 1e-3
NEAR_MULTIPLICITY_RTOL = 1e-6
EXTRACT_EVERY = 5
STABLE_ROUNDS = 3


class DegenerateSpectrumError(RuntimeError):
    """Leading eigenvalue not real positive: graph too small or too sparse."""


class SpectrumConvergenceError(RuntimeError):
    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial


@dataclass
class OrientedEdgeSpace:
    """Indexing of the 2|E| oriented edges; reversal is index XOR 1."""

    n: int
    tails: np.ndarray
    heads: np.ndarray

    @classmethod
    def from_graph(cls, gr: SparseGraph) -> "OrientedEdgeSpace":
        u, v = gr.edges[:, 0], gr.edges[:, 1]
        tails = np.empty(2 * gr.m, dtype=np.int64)
        heads = np.empty(2 * gr.m, dtype=np.int64)
        tails[0::2], heads[0::2] = u, v
        tails[1::2], heads[1::2] = v, u
        return cls(gr.n, tails, heads)

    @property
    def m_oriented(self) -> int:
        return self.tails.size


@dataclass
class NbOperator:
    """Matrix-free non-backtracking operator, optionally rescaled by `scale`."""

    space: OrientedEdgeSpace
    scale: float = 1.0
    _incoming: sparse.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s = self.space
        # (n, 2m) head incidence; each CSR row lists its edges in index order,
        # so a product sums every vertex's incoming values in edge order
        self._incoming = sparse.csr_matrix(
            (np.ones(s.m_oriented), (s.heads, np.arange(s.m_oriented))),
            shape=(s.n, s.m_oriented),
        )

    @property
    def dim(self) -> int:
        return self.space.m_oriented

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """B X for a vector or a block of columns: incoming sum at the tail minus the reversal."""
        X = np.asarray(X)
        y = np.take(self._incoming @ X, self.space.tails, axis=0)
        # oriented edges 2i and 2i+1 are reversals of each other
        pairs = (-1, 2, *X.shape[1:])
        y.reshape(pairs)[...] -= X.reshape(pairs)[:, ::-1]
        if self.scale != 1.0:
            y *= self.scale
        return y

    matvec = matmat


def build_nb_operator(G1: SparseGraph, scale: float = 1.0) -> NbOperator:
    if G1.m == 0:
        raise ValueError("graph has no edges")
    return NbOperator(OrientedEdgeSpace.from_graph(G1), scale=scale)


def dense_nb_matrix(op: NbOperator) -> np.ndarray:
    """Explicit matrix (oracle-sized graphs only)."""
    return op.matmat(np.eye(op.dim))


@dataclass
class Companion:
    """Ihara-Bass companion scale * [[A, I - D], [I, 0]] on 2n coordinates.

    Built from the oriented-edge space: A has a 1 at (tail, head) of every
    oriented edge and D is the in-degree. Its eigenvalues are those of the
    equally scaled NbOperator, apart from trivial ones at +-scale.
    """

    space: OrientedEdgeSpace
    scale: float = 1.0
    _top: sparse.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s = self.space
        adjacency = sparse.csr_matrix(
            (np.ones(s.m_oriented), (s.tails, s.heads)), shape=(s.n, s.n)
        )
        degree = np.bincount(s.heads, minlength=s.n)
        self._top = sparse.hstack([adjacency, sparse.diags(1.0 - degree)], format="csr")

    @property
    def dim(self) -> int:
        return 2 * self.space.n

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """C X for a vector or a block of columns."""
        X = np.asarray(X)
        y = np.concatenate([self._top @ X, X[: self.space.n]])
        if self.scale != 1.0:
            y *= self.scale
        return y

    matvec = matmat
    __matmul__ = matmat

    def lift(self, z: np.ndarray, rayleigh: float) -> np.ndarray:
        """Unit oriented-edge eigenvector of B from a companion eigenvector z = [a; a / lambda].

        `rayleigh` is z's eigenvalue on this (scaled) companion; the first
        non-negligible entry of the result is positive.
        """
        lam = rayleigh / self.scale
        a = z[: self.space.n]
        xi = (lam * a[self.space.tails] - a[self.space.heads]) / (lam * lam - 1.0)
        return _fix_sign(xi / np.linalg.norm(xi))


def _radius_exceeds_one(space: OrientedEdgeSpace) -> bool:
    """Whether B's spectral radius exceeds 1, read off the graph's 2-core.

    Peeling leaves until none is left gives the 2-core. B's spectral radius
    is 0 when that core is empty and 1 when every core component is a cycle;
    a core vertex of degree 3 or more makes non-backtracking walks branch.
    Each round costs O(|E|); there are as many as the deepest pendant tree
    is deep, which is O(log n) on sampled sparse graphs.
    """
    alive = np.ones(space.m_oriented, dtype=bool)
    while True:
        degree = np.bincount(space.heads[alive], minlength=space.n)
        leaf = degree == 1
        if not leaf.any():
            return bool(degree.max(initial=0) >= 3)
        alive &= ~(leaf[space.heads] | leaf[space.tails])


def default_e1(n: int) -> float:
    return 1.0 / np.sqrt(np.log(n))


def bulk_cutoff(lambda1: float, e1: float, bulk_scale: float = 1.0) -> float:
    """Acceptance threshold sqrt(bulk_scale * lambda1) + e1 / bulk_scale^2.

    At bulk_scale = 1 this is the plain rule. For rescaled split spectra the
    bulk disk widens to sqrt(bulk_scale * lambda1) while the empirical edge
    stays sharply concentrated, so the slack shrinks with the scale instead
    of swallowing the narrowed signal margin.
    """
    return float(np.sqrt(bulk_scale * lambda1) + e1 / bulk_scale**2)


def _is_real(lam: complex) -> bool:
    return abs(lam.imag) <= max(REAL_ABS_TOL, REAL_REL_TOL * abs(lam))


def classify_eigenvalues(
    eigenvalues: np.ndarray, e1: float, k_cap: int, bulk_scale: float = 1.0
) -> tuple[float, list[int], float]:
    """(lambda_1, indices accepted as informative, cutoff) for a |.|-sorted array."""
    order = np.argsort(-np.abs(eigenvalues), kind="stable")
    w = np.asarray(eigenvalues)[order]
    top = w[0]
    if not _is_real(top) or top.real <= 0:
        raise DegenerateSpectrumError(f"leading eigenvalue {top} is not real positive")
    lam1 = float(top.real)
    cutoff = bulk_cutoff(lam1, e1, bulk_scale)
    accepted = []
    for i in range(w.size):
        if np.abs(w[i]) <= cutoff:
            break
        if _is_real(w[i]):
            accepted.append(int(order[i]))
    return lam1, accepted[: max(k_cap, 0)], cutoff


@dataclass
class NbSpectrum:
    """Accepted real informative eigenpairs of the non-backtracking operator."""

    K: int
    lambdas: np.ndarray
    eigenvectors: np.ndarray        # (m_oriented, K), unit columns
    vertex_aggregates: np.ndarray   # (n, K): column k sums xi_k over edges into v
    e1: float
    residuals: np.ndarray
    n: int
    cutoff: float = 0.0
    all_eigenvalues: np.ndarray = field(default_factory=lambda: np.empty(0, complex))
    warnings: tuple[str, ...] = ()
    iterations: int = 0             # subspace iterations, summed over restarts (0: dense solve)
    block: int = 0                  # final block width (0: dense solve)
    iterated_dim: int = 0           # dimension of the operator the solver ran on


def _realify(vec: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(vec):
        j = int(np.argmax(np.abs(vec)))
        vec = (vec / (vec[j] / abs(vec[j]))).real
    v = np.asarray(vec, dtype=float)
    return v / np.linalg.norm(v)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    big = np.nonzero(np.abs(v) > 1e-12 * max(np.abs(v).max(), 1e-300))[0]
    if big.size and v[big[0]] < 0:
        return -v
    return v


def _ritz_candidates(op, Q: np.ndarray):
    """Ritz pairs of the projected (uncubed) operator, |.|-descending.

    Returns the projected eigenvalues, the realified Ritz vectors, their
    Rayleigh quotients, and the Rayleigh residuals on the full operator.
    """
    BQ = op.matmat(Q)
    H = Q.T @ BQ
    w, S = np.linalg.eig(H)
    order = np.argsort(-np.abs(w), kind="stable")
    w, S = w[order], S[:, order]
    vectors, rayleigh, residuals = [], [], []
    for i in range(w.size):
        y = _realify(Q @ S[:, i])
        by = op.matvec(y)
        lam = float(y @ by)
        vectors.append(y)
        rayleigh.append(lam)
        residuals.append(float(np.linalg.norm(by - lam * y)))
    return w, vectors, np.array(rayleigh), np.array(residuals)


def _subspace_iterate(op, block: int, tol: float, max_iters: int, seed: int,
                      e1: float, k_cap: int, bulk_scale: float):
    """Block subspace iteration on op^3; returns (result, converged, iterations).

    Stops once the accepted set has been stable for several extraction
    rounds, its residuals on op meet tol, and no candidate is still climbing
    toward the cutoff: an informative eigenvalue entering the subspace shows
    up as a Ritz value growing geometrically round over round, and stopping
    while one is in flight would undercount K. Bulk directions never gate
    the stop; their Ritz values do not grow.
    """
    dim = op.dim
    rng = substream(seed, "subspace-init")
    Q, _ = np.linalg.qr(rng.standard_normal((dim, block)))
    stable = 0
    prev_key = None
    prev_mags = None
    result = None
    for it in range(1, max_iters + 1):
        Z = op.matmat(op.matmat(op.matmat(Q)))
        norms = np.linalg.norm(Z, axis=0)
        if not np.all(np.isfinite(norms)) or norms.max() <= 1e-290:
            raise DegenerateSpectrumError("operator power collapsed (nilpotent or empty spectrum)")
        Q, _ = np.linalg.qr(Z)
        if it % EXTRACT_EVERY and it != max_iters:
            continue
        w, vectors, rayleigh, residuals = _ritz_candidates(op, Q)
        try:
            lam1, accepted, cutoff = classify_eigenvalues(w, e1, k_cap, bulk_scale)
        except DegenerateSpectrumError:
            if it >= max_iters:
                raise
            prev_mags = np.abs(w)
            continue
        mags = np.abs(w)
        rising = prev_mags is None
        if prev_mags is not None:
            for i in range(mags.size):
                if mags[i] < 0.4 * cutoff or i in accepted:
                    continue
                nearest = float(np.min(np.abs(prev_mags - mags[i])))
                if nearest > 0.01 * mags[i]:
                    rising = True
        prev_mags = mags
        key = tuple(accepted)
        stable = stable + 1 if key == prev_key else 1
        prev_key = key
        converged = all(residuals[i] <= tol for i in accepted)
        result = (w, vectors, residuals, rayleigh, accepted, lam1, cutoff)
        if stable >= STABLE_ROUNDS and converged and not rising and it >= 2 * EXTRACT_EVERY:
            return result, True, it
    return result, False, max_iters


def top_spectrum(
    op: NbOperator,
    n: int,
    e1_override: float | None = None,
    tol: float = 1e-8,
    max_restarts: int = 300,
    seed: int = 0,
    k_cap: int = 8,
    bulk_scale: float = 1.0,
    block: int | None = None,
) -> NbSpectrum:
    """Extract eigenvalues above the Kesten-Stigum-style cutoff.

    Operators of dimension at most DENSE_FALLBACK_DIM are solved densely;
    otherwise the iteration runs on op's Ihara-Bass companion and the
    accepted eigenvectors are lifted back to op's oriented edges. Accepted
    eigenvalues are real (imaginary part below the realness
    tolerance, enforced through the Rayleigh residual) with magnitude above
    the cutoff; eigenvectors are unit norm with the first non-negligible
    coordinate positive. Deterministic given `seed`. Raises
    DegenerateSpectrumError when the leading eigenvalue is not real positive
    and SpectrumConvergenceError (carrying partial results) when the
    iteration budget runs out.
    """
    e1 = default_e1(n) if e1_override is None else float(e1_override)

    if op.dim <= DENSE_FALLBACK_DIM:
        w_all, v_all = np.linalg.eig(dense_nb_matrix(op))
        lam1, accepted, cutoff = classify_eigenvalues(w_all, e1, k_cap, bulk_scale)
        lambdas = np.array([w_all[i].real for i in accepted])
        vectors = (
            np.stack([_fix_sign(_realify(v_all[:, i])) for i in accepted], axis=1)
            if accepted
            else np.empty((op.dim, 0))
        )
        all_eigs = w_all[np.argsort(-np.abs(w_all), kind="stable")]
        return _finish(op, n, e1, lambdas, vectors, lam1, cutoff, all_eigs, iterated_dim=op.dim)

    # the companion's trivial eigenvalues +-scale clear no cutoff once B's
    # radius exceeds 1; below that the run is degenerate whatever they do
    if not _radius_exceeds_one(op.space):
        raise DegenerateSpectrumError(
            "non-backtracking spectral radius is at most 1 (2-core empty or all cycles)"
        )
    comp = Companion(op.space, op.scale)
    block_size = block if block is not None else min(max(6, k_cap // 2 + 2), comp.dim - 1)
    iterations = 0
    while True:
        out, ok, its = _subspace_iterate(
            comp, block_size, tol, max_restarts * EXTRACT_EVERY, seed, e1, k_cap, bulk_scale
        )
        iterations += its
        if out is None:
            raise SpectrumConvergenceError("no extraction rounds completed", partial=None)
        w, vectors, residuals, ray, accepted, lam1, cutoff = out
        if not ok:
            partial = np.array([ray[i] for i in accepted])
            raise SpectrumConvergenceError(
                f"subspace iteration did not converge within {max_restarts * EXTRACT_EVERY} iterations",
                partial=partial,
            )
        if len(accepted) == block_size and block_size < min(k_cap + 4, comp.dim - 1):
            block_size = min(k_cap + 4, comp.dim - 1)  # everything cleared the cutoff: widen once
            continue
        break

    lambdas = np.array([ray[i] for i in accepted])
    vecs = (
        np.stack([comp.lift(vectors[i], ray[i]) for i in accepted], axis=1)
        if accepted
        else np.empty((op.dim, 0))
    )
    order = np.argsort(-np.abs(lambdas), kind="stable")
    lambdas = lambdas[order]
    vecs = vecs[:, order] if lambdas.size else vecs
    all_eigs = np.asarray(w)[np.argsort(-np.abs(w), kind="stable")]
    return _finish(
        op, n, e1, lambdas, vecs, lam1, cutoff, all_eigs,
        iterations=iterations, block=block_size, iterated_dim=comp.dim,
    )


def _finish(op, n, e1, lambdas, vectors, lam1, cutoff, all_eigs, **solver) -> NbSpectrum:
    warnings: list[str] = []
    K = lambdas.size
    # re-orthonormalize only inside near-degenerate clusters; across distinct
    # eigenvalues Gram-Schmidt would break the eigen-residuals
    i = 0
    while i < K:
        j = i + 1
        while j < K and abs(abs(lambdas[j]) - abs(lambdas[i])) <= NEAR_MULTIPLICITY_RTOL * abs(
            lambdas[i]
        ):
            j += 1
        if j - i > 1:
            warnings.append(
                f"near-multiplicity among lambda_{i + 1}..lambda_{j}: eigenvector basis ambiguous"
            )
            qmat, _ = np.linalg.qr(vectors[:, i:j])
            for c in range(qmat.shape[1]):
                qmat[:, c] = _fix_sign(qmat[:, c])
            vectors[:, i:j] = qmat
        i = j
    residuals = np.array(
        [np.linalg.norm(op.matvec(vectors[:, c]) - lambdas[c] * vectors[:, c]) for c in range(K)]
    )
    aggregates = vertex_aggregates(vectors, op.space) if K else np.empty((op.space.n, 0))
    return NbSpectrum(
        K=K,
        lambdas=lambdas,
        eigenvectors=vectors,
        vertex_aggregates=aggregates,
        e1=e1,
        residuals=residuals,
        n=n,
        cutoff=cutoff,
        all_eigenvalues=all_eigs,
        warnings=tuple(warnings),
        **solver,
    )


def vertex_aggregates(vectors, space: OrientedEdgeSpace) -> np.ndarray:
    """Per-vertex sums of eigenvector entries over incoming oriented edges.

    `vectors` is an (m_oriented, K) array or a single oriented-edge vector;
    isolated vertices get 0.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    if vectors.shape[0] != space.m_oriented:
        vectors = vectors.T
    cols = [
        np.bincount(space.heads, weights=vectors[:, k], minlength=space.n)
        for k in range(vectors.shape[1])
    ]
    return np.stack(cols, axis=1) if cols else np.empty((space.n, 0))


def ihara_bass_reduce(G1: SparseGraph) -> Companion:
    """Companion operator [[A, I - D], [I, 0]] of G1 on 2n coordinates."""
    return Companion(OrientedEdgeSpace.from_graph(G1))


def ihara_bass_dense(G1: SparseGraph) -> np.ndarray:
    a = G1.adjacency.toarray()
    d = np.diag(np.asarray(G1.adjacency.sum(axis=1)).ravel())
    n = G1.n
    top = np.concatenate([a, np.eye(n) - d], axis=1)
    bot = np.concatenate([np.eye(n), np.zeros((n, n))], axis=1)
    return np.concatenate([top, bot], axis=0)
