"""Non-backtracking operator of a sparse graph and its informative spectrum.

The operator B lives on oriented edges: entry (e, f) is 1 exactly when e
feeds into f's tail without reversing f. One application costs O(|E|) via
the two-pass trick (aggregate incoming values per vertex, subtract the
reversal). `NbOperator` applies it matrix-free; the spectrum never builds
it. It is the reference the solver is checked against, through the dense
builders in tests/oracles.py.
Eigenvalues outside the bulk disk of radius sqrt(lambda_1) estimate the
kernel's informative eigenvalues; K counts the real eigenvalues clearing the
cutoff sqrt(lambda_1) + e1(n) with e1(n) = 1/sqrt(log n).

The spectrum is not iterated on the 2|E| oriented edges but on the
Ihara-Bass companion C = [[A, I - D], [I, 0]] over 2n vertex coordinates
(Krzakala et al., PNAS 2013). If B xi = lambda xi and a(v) sums xi over the
edges into v, then [a; a / lambda] is an eigenvector of C with the same
eigenvalue, so C carries every non-trivial eigenvalue of B; the only
eigenvalues it adds are +-1, from isolated vertices and leaves. Those never
pass the cutoff: whenever lambda_1 > 1 the cutoff exceeds 1, and a graph
with lambda_1 <= 1 (its 2-core empty, as when it has no edge, or a union
of cycles) is refused as degenerate before any solve.

C is built on the graph's 2-core only, found by peeling leaves round by
round. No non-backtracking walk leaves a pendant tree once it has entered,
so the trees add only zero eigenvalues to B, and an eigenvector of a
nonzero eigenvalue follows exactly from its core part: in reverse peel
order a(v) = a(parent) / lambda, and a = 0 on tree-only components. A graph
with no leaf is iterated on as it is. Each accepted aggregate, so extended,
is lifted back to all oriented edges in O(|E|) by xi(u->v) = (lambda a(u) -
a(v)) / (lambda^2 - 1), and its residual on the full B is read off its
own aggregates, B xi(u->v) = a(u) - xi(v->u). The accepted eigenvalue is
read off the symmetric form of the same pair, the
Bethe Hessian H(lambda) = (lambda^2 - 1) I - lambda A + D with H(lambda) a
= 0 (Saade, Krzakala and Zdeborova, NeurIPS 2014): as the root of a'H(x)a
nearest the Ritz value, it is second-order accurate in a, where the
Rayleigh quotient of the non-normal C is first order.

A companion of dimension at most DENSE_FALLBACK_DIM is solved densely: its
Ritz pairs on the whole space are its eigenpairs, which then take the
iteration's path through classification, extension and lift. Otherwise
extraction uses block subspace iteration on the cubed operator (the power
algorithm): cubing is cheap, preserves eigenvectors and magnitude order, and
cubes the separation ratio between informative eigenvalues and the bulk,
where a restarted Arnoldi iteration wastes its time converging continuum
bulk modes to full tolerance. With s the operator scale, the block is held
as two n-row iterates x_t and x_{t-1}, and a cube is three steps of the
recurrence x_{t+1} = s A x_t + s^2 (I - D) x_{t-1}, each an in-place
diagonal update of x_{t-1} into which the one sparse product with s A is
accumulated, so a step allocates nothing. The block [x_t; s x_{t-1}] is
re-orthonormalized by an economic Householder QR, LAPACK's dgeqrf and dorgqr
from numpy's own lapack_lite run in the block's buffer, only as often as the
growth of lambda_1 over the cutoff requires (Rutishauser's RITZIT), and
always before the Ritz pairs are read off. Candidates are judged by
Rayleigh quotients of the uncubed operator, so a complex bulk eigenvalue
whose cube happens to land near the real axis still fails the residual test
and cannot alias as informative. The Ritz values, Rayleigh quotients and
residuals are read in Q's coordinates, with no apply per vector: the
Rayleigh quotients off the projected matrix H = Q'CQ, the residuals summed
over blocks of rows, and only the accepted Ritz vectors of the round that
returns are formed; the one block apply CQ they need is the first step of
the next cube. Once the accepted set has held for a few rounds and no
candidate past the next one is climbing, the block is cut to the accepted
Ritz vectors plus that next one as a guard (both halves of a complex pair)
for the rest of the run.

The operator scale handles spectra computed from a thinned edge subsample,
rescaled by s = 1/(1 - epsilon): the rescaled bulk disk has radius
sqrt(s * lambda_1), so the cutoff moves accordingly (the slack shrinks with
the scale to keep the signal margin; at s = 1 the rule is exactly the
unsplit one).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import lapack_lite
from scipy import sparse
from scipy.sparse import _sparsetools  # csr_matvecs: Y += A X, which no public call does

from .graph_sampler import SparseGraph
from .graphon_model import fix_signs
from .rng import substream

DENSE_FALLBACK_DIM = 24
REAL_ABS_TOL = 1e-8
REAL_REL_TOL = 1e-3
NEAR_MULTIPLICITY_RTOL = 1e-6
EXTRACT_EVERY = 5
STABLE_ROUNDS = 3
RESIDUAL_TOL = 1e-8  # accepted Ritz residuals on the companion
MAX_ITERATIONS = 300 * EXTRACT_EVERY  # per subspace iteration run
K_CAP = 8  # most informative eigenpairs a spectrum keeps


class DegenerateSpectrumError(RuntimeError):
    """Leading eigenvalue not real positive: graph too small or too sparse."""


class SpectrumConvergenceError(RuntimeError):
    """The subspace iteration ran out of iterations before the accepted set settled."""


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


# kept in the package because perfbench/spans.py looks it up when it installs its trace hooks
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


@dataclass
class Companion:
    """Ihara-Bass companion scale * [[A, I - D], [I, 0]] on 2n coordinates.

    Built from the oriented-edge space: A has a 1 at (tail, head) of every
    oriented edge and D is the in-degree. Its eigenvalues are those of the
    equally scaled NbOperator, apart from trivial ones at +-scale.

    With s = scale, C maps [x_t; s x_{t-1}] to [x_{t+1}; s x_t] where
    x_{t+1} = s A x_t + s^2 (I - D) x_{t-1}: one sparse product with s A
    plus the diagonal s^2 (I - D) (`step`).
    """

    space: OrientedEdgeSpace
    scale: float = 1.0
    _adjacency: sparse.csr_matrix = field(init=False, repr=False, compare=False)
    _defect: np.ndarray = field(init=False, repr=False, compare=False)
    _defect_block: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        s, scale = self.space, self.scale
        self._adjacency = sparse.csr_matrix(
            (np.full(s.m_oriented, scale), (s.tails, s.heads)), shape=(s.n, s.n)
        )
        self._defect = scale**2 * (1.0 - np.bincount(s.heads, minlength=s.n))

    @property
    def dim(self) -> int:
        return 2 * self.space.n

    def step(self, cur: np.ndarray, prev: np.ndarray) -> np.ndarray:
        """x_{t+1} from (x_t, x_{t-1}) = (cur, prev) for a vector or a block; overwrites and returns `prev`.

        `prev` must be a C-contiguous float64 array of cur's shape: s A x_t
        is added straight into it by scipy's CSR multivector kernel, which
        computes Y += A X, so a step allocates no product block.
        """
        adjacency, n = self._adjacency, self.space.n
        if prev.dtype != np.float64 or not prev.flags.c_contiguous:
            raise ValueError("prev must be a C-contiguous float64 array: the product is accumulated into it")
        if prev.shape != cur.shape or prev.shape[0] != n:
            raise ValueError(f"cur {cur.shape} and prev {prev.shape} must share one shape of {n} rows")
        defect = self._defect
        if prev.ndim > 1:
            # the diagonal repeated across the block, kept while the width
            # holds: a same-shape multiply runs several times faster than a
            # broadcast over the short width axis
            if self._defect_block is None or self._defect_block.shape != prev.shape:
                self._defect_block = np.repeat(defect, prev.shape[1]).reshape(prev.shape)
            defect = self._defect_block
        prev *= defect
        width = 1 if prev.ndim == 1 else prev.shape[1]
        _sparsetools.csr_matvecs(n, n, width, adjacency.indptr, adjacency.indices, adjacency.data, cur, prev)
        return prev

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """C X for a vector or a block of columns: one `step` from [X_top; X_bottom / s]."""
        X = np.asarray(X)
        n = self.space.n
        out = np.empty(X.shape)
        np.divide(X[n:], self.scale, out=out[n:])
        out[:n] = self.step(X[:n], out[n:])
        np.multiply(X[:n], self.scale, out=out[n:])
        return out

    matvec = matmat
    __matmul__ = matmat


def _lift(space: OrientedEdgeSpace, aggregates: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Unit oriented-edge eigenvectors of B from their vertex aggregates.

    Column k of the (n, K) `aggregates` is the top half a of a companion
    eigenvector [a; a / lambda] of the unscaled eigenvalue lambdas[k], and
    xi(u->v) = (lambda a(u) - a(v)) / (lambda^2 - 1); the factor
    1 / (lambda^2 - 1) goes in the normalization, and the first
    non-negligible entry of each column of the (m_oriented, K) result is
    made positive.
    """
    xi = np.empty((space.m_oriented, lambdas.size), order="F")  # built a column at a time
    for k, lam in enumerate(lambdas):
        a, col = aggregates[:, k], xi[:, k]
        np.take(a, space.tails, out=col, mode="clip")  # "raise" would buffer `out`; the indices are valid
        col *= lam
        col -= a[space.heads]
        # einsum, not a BLAS norm, whose sum changes its last bits with the thread count
        col /= np.sqrt(np.einsum("i,i->", col, col))
    fix_signs(xi)
    return xi


def _two_core(space: OrientedEdgeSpace):
    """(alive oriented edges, core degrees, peel rounds) of the graph's 2-core.

    Leaves are peeled until none is left. Round r lists its leaves and, for
    each, its one neighbour still alive in that round (its parent): a pair
    of leaves that are each other's parent closes a tree-only component.
    Core degrees are 0 off the core. B's spectral radius is 0 when the core
    is empty and 1 when every core component is a cycle; a core vertex of
    degree 3 or more makes non-backtracking walks branch. Each round costs
    O(|E|); there are as many as the deepest pendant tree is deep, which is
    O(log n) on sampled sparse graphs.
    """
    alive = np.ones(space.m_oriented, dtype=bool)
    rounds = []
    while True:
        degree = np.bincount(space.heads[alive], minlength=space.n)
        leaf = degree == 1
        if not leaf.any():
            return alive, degree, rounds
        out = alive & leaf[space.tails]  # each leaf's one alive edge, leaf -> parent
        rounds.append((space.tails[out], space.heads[out]))
        alive &= ~(leaf[space.heads] | leaf[space.tails])


def _extend_to_trees(core_aggregates, lambdas, core, rounds, n: int) -> np.ndarray:
    """Aggregates of B's eigenvectors on all n vertices from their values on the 2-core.

    No non-backtracking walk leaves a pendant tree, so an eigenvector of a
    nonzero eigenvalue vanishes on the tree edges pointing toward the core
    and carries a(parent) / lambda on each one pointing away from it: in
    reverse peel order a(v) = a(parent) / lambda, which is 0 on tree-only
    components, whose peel ends in an isolated vertex or a pair of leaves.
    """
    a = np.zeros((n, core_aggregates.shape[1]))
    a[core] = core_aggregates
    for leaves, parents in reversed(rounds):
        a[leaves] = a[parents] / lambdas
    return a


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
    eigenvalues: np.ndarray, e1: float, *, bulk_scale: float = 1.0
) -> tuple[float, list[int], float]:
    """(lambda_1, at most K_CAP indices accepted as informative, cutoff), in |.|-descending order.

    When the leading modulus is tied (within NEAR_MULTIPLICITY_RTOL), as
    between +lambda_1 and -lambda_1 on a bipartite graph, the real positive
    entry of the tie is lambda_1 and is listed first.
    """
    eigenvalues = np.asarray(eigenvalues)
    order = np.argsort(-np.abs(eigenvalues), kind="stable")
    w = eigenvalues[order]
    tied = np.flatnonzero(np.abs(w) >= (1.0 - NEAR_MULTIPLICITY_RTOL) * np.abs(w[0]))
    positive = [i for i in tied if _is_real(w[i]) and w[i].real > 0]
    if positive:
        order = np.concatenate([order[positive[:1]], np.delete(order, positive[0])])
        w = eigenvalues[order]
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
    return lam1, accepted[:K_CAP], cutoff


@dataclass
class NbSpectrum:
    """Accepted real informative eigenvalues of the non-backtracking operator.

    The eigenvectors themselves are not kept, only their vertex aggregates.
    """

    K: int
    lambdas: np.ndarray
    vertex_aggregates: np.ndarray   # (n, K): column k sums xi_k over edges into v
    e1: float
    residuals: np.ndarray
    cutoff: float = 0.0
    all_eigenvalues: np.ndarray = field(default_factory=lambda: np.empty(0, complex))
    warnings: tuple[str, ...] = ()
    iterations: int = 0             # subspace iterations, summed over restarts (0: dense solve)
    start_block: int = 0            # block width the final run started at (0: dense solve)
    block: int = 0                  # final block width, that of all_eigenvalues (iterated_dim: dense solve)
    orthonormalizations: int = 0    # block QRs, summed over restarts (0: dense solve)
    iterated_dim: int = 0           # dimension of the companion the solver ran on: 2 core_vertices
    core_vertices: int = 0          # vertices solved on: the 2-core, or all n when none peeled
    peel_rounds: int = 0            # leaf-peeling rounds down to the 2-core
    # final-block Ritz residuals on the companion, as all_eigenvalues
    ritz_residuals: np.ndarray = field(default_factory=lambda: np.empty(0))


def _orthonormalize(Z: np.ndarray) -> np.ndarray:
    """Q of the economic Householder QR of the Fortran-ordered float64 Z, computed in Z's buffer.

    LAPACK's dgeqrf then dorgqr, from numpy's lapack_lite, run on the
    C-contiguous view Z.T, which LAPACK reads as Z in column-major order;
    each takes the workspace its query asks for. Returns Z, now holding Q.
    """
    m, k = Z.shape
    a, tau = Z.T, np.empty(k)
    for routine, dims in ((lapack_lite.dgeqrf, (m, k)), (lapack_lite.dorgqr, (m, k, k))):
        work = np.empty(1)
        routine(*dims, a, m, tau, work, -1, 0)  # workspace query
        work = np.empty(max(int(work[0]), 1))
        info = routine(*dims, a, m, tau, work, work.size, 0)["info"]
        if info:
            raise lapack_lite.LapackError(f"{routine.__name__} returned info = {info}")
    return Z


def _ritz_candidates(Q: np.ndarray, BQ: np.ndarray):
    """Ritz pairs of the projected (uncubed) operator B, |.|-descending, in Q's coordinates.

    Returns the projected eigenvalues, the realified unit coefficient vectors
    S of the Ritz vectors Y = Q S, their Rayleigh quotients y'By, the
    residuals |By - (y'By) y| on the full operator, and the projected matrix
    H = Q'BQ. A complex coefficient vector is turned real by rotating its
    largest entry onto the positive axis. Q is orthonormal, so y = Q s is a
    unit vector when s is, and y'By = s'Hs. The residual BQ s - (s'Hs) Q s is
    formed and squared a block of rows at a time, never over all rows at
    once and never through its Gram expansion |BQs|^2 - (s'Hs)^2, which
    cancels: it cannot resolve a residual below about 1e-8 |BQs|.
    """
    H = Q.T @ BQ
    w, S = np.linalg.eig(H)
    order = np.argsort(-np.abs(w), kind="stable")
    w, S = w[order], S[:, order]
    if np.iscomplexobj(S):
        pivots = S[np.argmax(np.abs(S), axis=0), np.arange(S.shape[1])]
        S = (S * (np.abs(pivots) / pivots)).real
    S /= np.sqrt(np.einsum("ij,ij->j", S, S))
    rayleigh = np.einsum("ij,ij->j", S, H @ S)
    scaled = S * rayleigh
    squares = np.zeros(S.shape[1])
    rows = 4096  # per block: two (width, rows) temporaries
    for lo in range(0, Q.shape[0], rows):
        R = S.T @ BQ[lo : lo + rows].T  # transposed, so that each residual is a contiguous row
        R -= scaled.T @ Q[lo : lo + rows].T
        squares += np.einsum("ij,ij->i", R, R)
    return w, S, rayleigh, np.sqrt(squares), H


def _qr_period(lam1: float, cutoff: float) -> int:
    """Cubes between orthonormalizations once lambda_1 and the cutoff are known.

    Between two QRs the block's columns drift toward the top eigenvector; a
    direction at the cutoff shrinks against it by (lambda_1 / cutoff)^3 per
    cube, and the next QR recovers it to about u (lambda_1 / cutoff)^(3p)
    after p cubes, u the machine epsilon. The period is the largest p up to
    EXTRACT_EVERY that keeps this within RESIDUAL_TOL / 100.
    """
    growth = max(lam1 / cutoff, 1.0) ** 3
    p = 1
    while p < EXTRACT_EVERY and np.finfo(float).eps * growth ** (p + 1) <= RESIDUAL_TOL / 100:
        p += 1
    return p


def _leading_basis(H: np.ndarray, guard: complex) -> np.ndarray:
    """Orthonormal coordinates U, in Q's basis, of the Ritz subspace whose values are at least |guard| in modulus.

    Spanned by the eigenvectors of the projected matrix H = Q'BQ whose
    eigenvalues clear that floor: the real part of each real one, and the
    real and imaginary parts of one member of each conjugate pair, whose two
    halves have the same modulus and so are kept or dropped whole. A QR of
    these vectors gives U. The subspace's basis is QU, and B maps it to (BQ)U.
    """
    w, V = np.linalg.eig(H)
    keep = (np.abs(w) >= (1.0 - NEAR_MULTIPLICITY_RTOL) * abs(guard)) & (w.imag >= 0)
    V = V[:, keep]
    paired = w[keep].imag > 0
    return _orthonormalize(np.asfortranarray(np.concatenate([V.real, V[:, paired].imag], axis=1)))


def _subspace_iterate(op: Companion, start: np.ndarray, e1: float):
    """Block subspace iteration on the cube of the companion `op` from the block `start`.

    Returns (result, Q, converged, iterations, orthonormalizations), Q the
    orthonormal block of the round that returns, in whose coordinates the
    result's Ritz vectors are given (`_ritz_candidates`). The block
    is kept as two C-ordered (n, width) iterates x_t and x_{t-1}, advanced by
    `op.step`; a cube is three steps. [x_t; s x_{t-1}] is assembled and
    re-orthonormalized by QR after every cube until the first extraction
    round, then every `_qr_period` cubes, and always at an extraction round
    (every EXTRACT_EVERY cubes), where the Ritz pairs are read off. The
    extraction's product op Q = [x_1; s x_0], one step from Q = [x_0; s x_{-1}],
    is also the first step of the next cube, so it is taken once.

    Stops once the accepted set has been stable for several extraction
    rounds, its residuals on op meet RESIDUAL_TOL, and no candidate is still
    climbing toward the cutoff: an informative eigenvalue entering the
    subspace shows up as a Ritz value growing geometrically round over round,
    and stopping while one is in flight would undercount K. Bulk directions
    never gate the stop; their Ritz values do not grow. Once the accepted set
    has been stable for STABLE_ROUNDS rounds with no candidate past the guard
    climbing, and only the stop is pending, the block is cut to the Ritz
    subspace QU down to one guard value past the last accepted one (both halves
    of a complex pair), its first step being (op Q)U, and the run finishes at
    that width; the wide blocks are let go before the narrow ones are
    allocated. The guard itself
    may still climb: it stays in the block, and a guard that clears the
    cutoff fills the block, which makes `top_spectrum` widen and rerun. The
    last of the MAX_ITERATIONS iterations always extracts and returns, so a
    run that does not raise returns a result.
    """
    n, s = op.space.n, op.scale
    Q = _orthonormalize(start)  # in start's buffer, which _load hands on as Z
    del start  # so that a cut can let it go
    orthonormalizations = 1
    stable = 0
    prev_key = None
    prev_mags = None
    period, since_qr = 1, 0
    pair = None
    taken = 0  # steps of the current cube already taken at the last extraction
    for it in range(1, MAX_ITERATIONS + 1):
        if since_qr == 0 and not taken:  # restart the iterates from the orthonormal block Q
            pair, Z, cur, prev = _load(Q, s, pair)
        for _ in range(3 - taken):
            cur, prev = op.step(cur, prev), cur
        taken = 0
        since_qr += 1
        extract = it % EXTRACT_EVERY == 0 or it == MAX_ITERATIONS
        if since_qr < period and not extract:
            continue
        Z[:n] = cur
        np.multiply(prev, s, out=Z[n:])
        norms = np.sqrt(np.einsum("ij,ij->j", Z, Z))
        if not np.all(np.isfinite(norms)) or norms.max() <= 1e-290:
            raise DegenerateSpectrumError("operator power collapsed (nilpotent or empty spectrum)")
        Q = _orthonormalize(Z)  # in Z's buffer
        orthonormalizations += 1
        since_qr = 0
        if not extract:
            continue
        pair, Z, cur, prev = _load(Q, s, pair)
        cur, prev = op.step(cur, prev), cur  # pair = [x_1; x_0]
        taken = 1
        prev *= s  # pair = op Q
        w, S, rayleigh, residuals, H = _ritz_candidates(Q, pair)
        prev[...] = Q[:n]  # x_0 again, exactly
        try:
            lam1, accepted, cutoff = classify_eigenvalues(w, e1, bulk_scale=s)
        except DegenerateSpectrumError:
            if it >= MAX_ITERATIONS:
                raise
            prev_mags = np.abs(w)
            continue
        mags = np.abs(w)
        climbing = [] if prev_mags is None else [
            i
            for i in range(mags.size)
            if mags[i] >= 0.4 * cutoff
            and i not in accepted
            and float(np.min(np.abs(prev_mags - mags[i]))) > 0.01 * mags[i]
        ]
        rising = prev_mags is None or bool(climbing)
        prev_mags = mags
        key = tuple(accepted)
        stable = stable + 1 if key == prev_key else 1
        prev_key = key
        converged = all(residuals[i] <= RESIDUAL_TOL for i in accepted)
        done = stable >= STABLE_ROUNDS and converged and not rising and it >= 2 * EXTRACT_EVERY
        if done or it == MAX_ITERATIONS:
            return (w, S, residuals, rayleigh, accepted, lam1, cutoff), Q, done, it, orthonormalizations
        period = _qr_period(lam1, cutoff)
        guard = max(accepted, default=-1) + 1
        if (
            stable >= STABLE_ROUNDS
            and guard + 1 < w.size
            and all(mags[i] >= mags[guard] for i in climbing)
        ):
            U = _leading_basis(H, w[guard])
            op._defect_block = None  # the diagonal repeated across the wide block
            top, bottom = cur @ U, Q[:n] @ U  # x_1 U and x_0 U
            Q = Z = pair = cur = prev = None  # the wide blocks go before the narrow ones are built
            pair = np.concatenate([top, bottom])
            del top, bottom
            Z = np.empty_like(pair, order="F")
            cur, prev = pair[:n], pair[n:]


def _load(Q: np.ndarray, s: float, pair):
    """(pair, Z, x_0, x_{-1}) for the Fortran-ordered block Q = [x_0; s x_{-1}], pair = [x_{-1}; x_0].

    `pair` is C-ordered, so each half is one iterate, and one step from it
    leaves [x_1; x_0]; it is allocated on the first load. Z, the buffer the
    block is next assembled and orthonormalized in, is Q's own: Q is read
    until that assembly writes over it.
    """
    n = Q.shape[0] // 2
    if pair is None:
        pair = np.empty(Q.shape)
    np.divide(Q[n:], s, out=pair[:n])
    pair[n:] = Q[:n]
    return pair, Q, pair[n:], pair[:n]


def _start_block(seed: int, n: int, width: int, core) -> np.ndarray:
    """Fortran-ordered start block on the companion coordinates of the vertices `core`.

    A Gaussian (2n, width) block is drawn from `seed`'s subspace-init
    substream on all 2n coordinates, so the core's rows are those a
    whole-graph run would start from, and the rows of both halves at `core`
    (an ascending index array or a slice) are kept. Each half is drawn a
    block of rows at a time, never over all n rows at once; the generator
    fills in C order, so the blocks continue the stream exactly as one
    (2n, width) draw would, and only their core rows are written into the
    result.
    """
    rng = substream(seed, "subspace-init")
    keep = np.zeros(n, dtype=bool)
    keep[core] = True
    k = int(np.count_nonzero(keep))
    block = np.empty((2 * k, width), order="F")
    rows = 4096  # per draw
    for half in (block[:k], block[k:]):
        filled = 0
        for lo in range(0, n, rows):
            kept = rng.standard_normal((min(rows, n - lo), width))[keep[lo : lo + rows]]
            half[filled : filled + kept.shape[0]] = kept
            filled += kept.shape[0]
    return block


def top_spectrum(
    graph: SparseGraph,
    scale: float = 1.0,
    e1_override: float | None = None,
    seed: int = 0,
) -> NbSpectrum:
    """Extract the eigenvalues of graph's B, rescaled by `scale`, above the Kesten-Stigum-style cutoff.

    The solver runs on the Ihara-Bass companion of the graph's 2-core (of
    the whole graph when no leaf is peeled): densely when its dimension is at
    most DENSE_FALLBACK_DIM, by subspace iteration otherwise. The accepted
    aggregates are extended exactly to the pendant trees, and the
    eigenvectors are lifted back to the graph's oriented edges. Accepted
    eigenvalues are real (imaginary part below the realness tolerance,
    enforced through the Rayleigh residual) with magnitude above the cutoff
    and companion residuals within RESIDUAL_TOL; their values are read off
    the symmetric Ihara-Bass form (`_bethe_hessian_eigenvalues`). The vertex
    aggregates sum unit eigenvectors whose first non-negligible coordinate
    is positive. Deterministic given `seed`. Raises DegenerateSpectrumError
    when B's spectral radius is at most 1 (an edgeless graph included) or
    the leading eigenvalue is not real positive, and
    SpectrumConvergenceError when a run exhausts MAX_ITERATIONS.
    """
    full = OrientedEdgeSpace.from_graph(graph)
    e1 = default_e1(full.n) if e1_override is None else float(e1_override)
    # the companion's trivial eigenvalues +-scale clear no cutoff once B's
    # radius exceeds 1; below that the run is degenerate whatever they do
    alive, core_degree, rounds = _two_core(full)
    if core_degree.max(initial=0) < 3:
        raise DegenerateSpectrumError(
            "non-backtracking spectral radius is at most 1 (2-core empty or all cycles)"
        )
    core, space = slice(None), full  # nothing peeled: the graph is its own core
    if rounds:  # the 2-core, relabelled 0..core.size-1 in vertex order
        core = np.flatnonzero(core_degree)
        label = np.zeros(full.n, dtype=np.int64)
        label[core] = np.arange(core.size)
        space = OrientedEdgeSpace(core.size, label[full.tails[alive]], label[full.heads[alive]])
        del label
    del alive, core_degree  # not held through the solve
    comp = Companion(space, scale)
    block_size = iterations = orthonormalizations = 0
    if comp.dim <= DENSE_FALLBACK_DIM:  # Ritz pairs on the whole space are the eigenpairs
        Q = np.eye(comp.dim)
        w, S, ray, residuals, _ = _ritz_candidates(Q, comp.matmat(Q))
        _, accepted, cutoff = classify_eigenvalues(w, e1, bulk_scale=scale)
    else:
        block_size = min(max(6, K_CAP // 2 + 2), comp.dim - 1)
        widest = min(K_CAP + 4, comp.dim - 1)
        while True:
            out, Q, ok, its, qrs = _subspace_iterate(comp, _start_block(seed, full.n, block_size, core), e1)
            iterations += its
            orthonormalizations += qrs
            w, S, residuals, ray, accepted, _, cutoff = out
            if not ok:
                raise SpectrumConvergenceError(
                    f"subspace iteration did not converge within {MAX_ITERATIONS} iterations"
                )
            if len(accepted) == w.size and block_size < widest:
                block_size = widest  # everything cleared the cutoff: widen once
                continue
            break
        del out

    # accepted keeps classify_eigenvalues' order: |.|-descending, lambda_1 first
    lambdas = ray[accepted]
    unscaled = lambdas / scale
    # the accepted Ritz vectors' top halves, the companion eigenvectors' aggregates
    aggregates = _extend_to_trees(Q[: space.n] @ S[:, accepted], unscaled, core, rounds, full.n)
    del Q, comp  # the solver's block and operator go before the lift
    return _finish(  # w and residuals come |.|-descending from _ritz_candidates
        full, scale, e1, lambdas, _lift(full, aggregates, unscaled), cutoff, w,
        iterations=iterations, start_block=block_size, block=w.size,
        orthonormalizations=orthonormalizations, iterated_dim=2 * space.n,
        core_vertices=space.n, peel_rounds=len(rounds), ritz_residuals=residuals,
    )


def _finish(
    space: OrientedEdgeSpace, scale: float, e1, lambdas, vectors, cutoff, all_eigs, **solver
) -> NbSpectrum:
    warnings: list[str] = []
    K = lambdas.size
    # re-orthonormalize only inside clusters of near-equal eigenvalues; across
    # distinct ones, +-lambda included, Gram-Schmidt would break the eigen-residuals
    for same_sign in (np.flatnonzero(lambdas > 0), np.flatnonzero(lambdas < 0)):
        i = 0
        while i < same_sign.size:
            j = i + 1
            lam = lambdas[same_sign[i]]
            near = NEAR_MULTIPLICITY_RTOL * abs(lam)
            while j < same_sign.size and abs(lambdas[same_sign[j]] - lam) <= near:
                j += 1
            if j - i > 1:
                cols = same_sign[i:j]
                warnings.append(
                    f"near-multiplicity among lambda_{cols[0] + 1}..lambda_{cols[-1] + 1}: "
                    "eigenvector basis ambiguous"
                )
                qmat, _ = np.linalg.qr(vectors[:, cols])
                fix_signs(qmat)
                vectors[:, cols] = qmat
            i = j
    aggregates = vertex_aggregates(vectors, space)
    lambdas = _bethe_hessian_eigenvalues(space, scale, aggregates, lambdas)
    # B xi(u->v) = a(u) - xi(v->u): the aggregates summed each vertex's
    # in-edges in edge order, as B's incidence product does. Each column's
    # residual s (a(u) - xi(v->u)) - lambda xi is formed in two reused
    # buffers, reading the reversal through the pair view (edges 2i and 2i+1
    # are reversals of each other)
    residuals = np.empty(K)
    Bxi, lam_xi = np.empty(space.m_oriented), np.empty(space.m_oriented)
    for c in range(K):
        xi = vectors[:, c]
        np.take(aggregates[:, c], space.tails, out=Bxi, mode="clip")  # as in _lift
        Bxi.reshape(-1, 2)[...] -= xi.reshape(-1, 2)[:, ::-1]
        Bxi *= scale
        np.multiply(xi, lambdas[c], out=lam_xi)
        Bxi -= lam_xi
        residuals[c] = np.sqrt(np.einsum("i,i->", Bxi, Bxi))  # not a BLAS norm: see _lift
    return NbSpectrum(
        K=K,
        lambdas=lambdas,
        vertex_aggregates=aggregates,
        e1=e1,
        residuals=residuals,
        cutoff=cutoff,
        all_eigenvalues=all_eigs,
        warnings=tuple(warnings),
        **solver,
    )


def _bethe_hessian_eigenvalues(
    space: OrientedEdgeSpace, s: float, aggregates: np.ndarray, lambdas: np.ndarray
) -> np.ndarray:
    """Eigenvalues of B, rescaled by s, read off the symmetric Ihara-Bass form of their vertex aggregates.

    An eigenpair (lambda, xi) of the unscaled B has aggregates a with
    H(lambda) a = 0 for the symmetric H(x) = (x^2 - 1) I - x A + D (Saade,
    Krzakala and Zdeborova, NeurIPS 2014), so lambda is a root of the
    quadratic q(x) = a'H(x)a = |a|^2 x^2 - (a'Aa) x + a'(D - I)a, with an
    error second order in that of a, where a Rayleigh quotient of the
    non-normal companion is first order. Each of `lambdas` (eigenvalues of
    s B) is replaced by s times the root of q nearest lambda / s,
    taken by one Newton step from lambda / s: that lands on the root up to
    the square of lambda's error, and q(lambda / s) is formed as a'r from the
    small vector r = H(lambda / s) a, free of the cancellation between q's
    coefficients. A value whose step is not finite is kept.
    """
    degree = np.bincount(space.heads, minlength=space.n)
    out = np.array(lambdas, dtype=float)
    for k, lam in enumerate(out / s):
        a = aggregates[:, k]
        Aa = np.bincount(space.heads, weights=a[space.tails], minlength=space.n)
        r = (lam * lam - 1.0 + degree) * a - lam * Aa
        a_r, a_a, a_Aa = (np.einsum("i,i->", a, v) for v in (r, a, Aa))  # not BLAS dots: see _lift
        with np.errstate(divide="ignore", invalid="ignore"):
            root = lam - a_r / (2.0 * lam * a_a - a_Aa)
        if np.isfinite(root):
            out[k] = s * root
    return out


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
