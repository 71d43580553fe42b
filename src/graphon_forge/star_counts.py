"""Weighted star counts and their normalization into joint-moment estimates.

A_alpha sums, over every center w and every ordered tuple of pairwise-distinct
neighbors of w, the product of per-vertex aggregates B_i prescribed by the
multi-index alpha. Summing injective tuples directly costs deg^{|alpha|} per
center; instead we expand over the vector partitions of alpha (the multiset
partitions of its label list) with Moebius coefficients, which turns each
A_alpha into a combination of power sums
S_beta(w) = sum_{j ~ w} prod_i B_i(j)^{beta_i}. Every S_beta is one sparse
matvec against the adjacency of G2, shared across all entries that need it.

This module decides which moments exist: the table is a list of values, one
per multi-index of total degree |alpha| <= N (`total_degree_indices`, in its
lexicographic order), the only moments the fit reads. Entries of higher
total degree cost most of the expansion, and the table has no place for
them.

Normalized entries P_alpha estimate the joint eigenfunction moments
int f_1^{a_1} ... f_K^{a_K}; P_kk (pair diagonal) must be positive for the
normalization to make sense, otherwise the table is flagged invalid and all
entries are zeroed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from math import comb, factorial, prod

import numpy as np

from .graph_sampler import SparseGraph


# cap on the profile terms of the expansion over every |alpha| <= N; each term
# costs one length-n product per block. Every alpha has a term, so the cap
# also bounds the table's C(N+K, K) entries. K = 8 at N = 4 has 4 191 terms
# and K = 2 at N = 20 has 1 371 843
TERM_BUDGET = 10_000


class MomentTableTooLarge(MemoryError):
    pass


def total_degree_indices(K: int, N: int) -> list[tuple[int, ...]]:
    """Multi-indices alpha in {0..N}^K with |alpha| <= N, in lexicographic order."""
    if K == 0:
        return [()]
    return [(a,) + rest for a in range(N + 1) for rest in total_degree_indices(K - 1, N - a)]


def count_pair(G2: SparseGraph, bk: np.ndarray) -> float:
    """Sum of B(i) B(j) over ordered adjacent pairs (twice the per-edge sum)."""
    bk = np.asarray(bk, dtype=float)
    if G2.m == 0:
        return 0.0
    # einsum, not a BLAS dot, whose sum changes its last bits with the thread count
    return float(2.0 * np.einsum("i,i->", bk[G2.edges[:, 0]], bk[G2.edges[:, 1]]))


def normalize_pair(akk: float, epsilon: float, lambda_k: float) -> float:
    if lambda_k == 0:
        raise ValueError("lambda_k must be nonzero")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return akk / (epsilon * lambda_k)


@lru_cache(maxsize=4096)
def injective_profiles(alpha: tuple[int, ...]) -> tuple[tuple[float, tuple[tuple[int, ...], ...]], ...]:
    """Inclusion-exclusion expansion of the injective-tuple sum.

    Returns (coefficient, blocks) pairs such that the sum over ordered
    injective assignments equals sum_profiles coeff * prod_blocks S_block.
    The profiles are the vector partitions of alpha: multisets of nonzero
    blocks beta summing to alpha, each with its blocks in ascending order. A
    block repeated r times contributes c_beta^r / r! to the coefficient, with
    the Moebius weight c_beta = (-1)^(|beta|-1) (|beta|-1)! / beta!, and the
    product is scaled by alpha!; the arithmetic is exact in integers. The
    profile order fixes the order of the floating-point sums built on it.
    """
    alpha = tuple(int(a) for a in alpha)
    if not any(alpha):
        return ((1.0, ()),)
    memo = {}

    def partitions(rest, cap):
        # vector partitions of rest as block sequences, each block <= the one
        # before it and the first <= cap (lexicographic), in descending
        # lexicographic order; a block is componentwise <= rest, so any cap
        # above rest acts as rest
        cap = min(cap, rest)
        found = memo.get((rest, cap))
        if found is None:
            found = []
            for beta in product(*[range(r, -1, -1) for r in rest]):
                if beta > cap or not any(beta):
                    continue
                left = tuple([r - b for r, b in zip(rest, beta)])
                if any(left):
                    found += [(beta,) + tail for tail in partitions(left, beta)]
                else:
                    found.append((beta,))
            memo[(rest, cap)] = found
        return found

    out = []
    for part in partitions(alpha, alpha):
        num, den, run = prod(map(factorial, alpha)), 1, 0
        for i, beta in enumerate(part):
            size = sum(beta)
            run = run + 1 if i and beta == part[i - 1] else 1
            num *= (-1) ** (size - 1) * factorial(size - 1)
            den *= prod(map(factorial, beta)) * run
        out.append((float(num // den), part[::-1]))
    return tuple(out)


def profile_terms(K: int, N: int, stop: float = np.inf) -> int:
    """Profile terms of `injective_profiles` summed over every alpha with |alpha| <= N, without enumerating them.

    The profiles of alpha are its vector partitions. Their counts p are
    built on the alpha list one block beta at a time: letting beta repeat
    adds p(alpha - beta) to p(alpha), for alpha = beta + gamma in ascending
    order. Each block only adds terms, so the count is returned as soon as
    it exceeds `stop`, and a count above `stop` is a lower bound. Every
    alpha has at least one profile, so C(N+K, K) entries above `stop` are
    returned before any list is built.
    """
    entries = comb(N + K, K)
    if entries > stop:
        return entries
    alphas = total_degree_indices(K, N)
    p = dict.fromkeys(alphas, 0)
    p[alphas[0]] = total = 1
    for beta in alphas[1:]:
        for gamma in total_degree_indices(K, N - sum(beta)):
            p[tuple([b + g for b, g in zip(beta, gamma)])] += p[gamma]
            total += p[gamma]
        if total > stop:
            break
    return total


def _power_sums(G2: SparseGraph, B: np.ndarray, betas) -> dict[tuple[int, ...], np.ndarray]:
    """S_beta(w) = sum over neighbors j of w of prod_i B[:, i]^beta_i, per beta."""
    n, k = B.shape
    max_pow = max(max(b) for b in betas)
    powers = np.empty((max_pow + 1, k, n))  # powers[t, i] = B[:, i]^t by repeated products; t = 0 unused
    powers[1] = B.T
    for t in range(2, max_pow + 1):
        powers[t] = powers[t - 1] * B.T
    adj = G2.adjacency
    out = {}
    for beta in betas:
        out[beta] = adj @ reduce(np.multiply, [powers[b, i] for i, b in enumerate(beta) if b])
    return out


def _profile_sum(alpha: tuple[int, ...], sums: dict, n: int) -> float:
    """A_alpha = sum over profiles of coeff * sum_w prod_blocks S_beta(w)."""
    total = 0.0
    for coeff, blocks in injective_profiles(alpha):
        if blocks:
            total += coeff * float(reduce(np.multiply, [sums[beta] for beta in blocks]).sum())
        else:  # alpha = 0: the sum of n ones is exactly n
            total += coeff * n
    return total


def normalize_star(
    a_alpha: float,
    alpha: tuple[int, ...],
    n: int,
    epsilon: float,
    lambdas: np.ndarray,
    p_diag: np.ndarray,
) -> float:
    """P_alpha = A_alpha n^(|alpha|/2 - 1) / (eps^|alpha| prod (sqrt(P_ii) lambda_i)^alpha_i).

    Defined only when every P_ii > 0; the guard path (any P_ii <= 0) is
    handled by the table builder, which zeroes everything.
    """
    alpha = np.asarray(alpha, dtype=int)
    size = int(alpha.sum())
    denom = epsilon**size
    for a_i, lam, pii in zip(alpha, lambdas, p_diag):
        denom *= (np.sqrt(pii) * lam) ** a_i
    return float(a_alpha * n ** (size / 2.0 - 1.0) / denom)


@dataclass
class MomentTable:
    """P_alpha for |alpha| <= N, plus the pair diagonal it was scaled by.

    `values[i]` is P_alpha for the i-th alpha of `alphas`, the list
    `total_degree_indices(K, N)`.
    """

    K: int
    N: int
    epsilon: float
    valid: bool
    pair_diagonal: np.ndarray
    values: np.ndarray  # one per alpha of total_degree_indices(K, N), in its order

    @property
    def alphas(self) -> list[tuple[int, ...]]:
        return total_degree_indices(self.K, self.N)

    def value(self, alpha) -> float:
        return float(self.values[self.alphas.index(tuple(alpha))])

    @property
    def entries(self) -> np.ndarray:
        """Read-only (N+1,) * K tensor of the values, zero above total degree N, built on each access.

        Nothing in the package reads it: it serves perfbench/checks.py,
        perfbench/spans.py and perfbench/test_perfbench_checks.py, which
        index the table as that tensor.
        """
        out = np.zeros((self.N + 1,) * self.K)
        for alpha, v in zip(self.alphas, self.values):
            out[alpha] = v
        out.flags.writeable = False
        return out


def moment_table(
    G2: SparseGraph,
    lambdas: np.ndarray,
    aggregates: np.ndarray,
    N: int,
    epsilon: float,
) -> MomentTable:
    """Compute every P_alpha with |alpha| <= N from the (n, K) vertex aggregates.

    Power sums are computed once per block beta and shared across all alpha.
    The expansion's profile terms are refused above TERM_BUDGET, counted
    before any is enumerated.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    lambdas = np.asarray(lambdas, dtype=float)
    B = np.atleast_2d(np.asarray(aggregates, dtype=float))
    if B.shape[0] != G2.n:
        B = B.T
    K = lambdas.size
    terms = profile_terms(K, N, stop=TERM_BUDGET)
    if terms > TERM_BUDGET:
        raise MomentTableTooLarge(f"K = {K}, N = {N}: over {TERM_BUDGET} profile terms (at least {terms})")

    alphas = total_degree_indices(K, N)
    p_diag = np.array(
        [normalize_pair(count_pair(G2, B[:, k]), epsilon, lambdas[k]) for k in range(K)]
    )
    if np.any(p_diag <= 0):
        return MomentTable(K, N, epsilon, False, p_diag, np.zeros(len(alphas)))

    betas = sorted({b for alpha in alphas for _, blocks in injective_profiles(alpha) for b in blocks})
    sums = _power_sums(G2, B, betas)
    values = [
        normalize_star(_profile_sum(alpha, sums, G2.n), alpha, G2.n, epsilon, lambdas, p_diag) for alpha in alphas
    ]
    return MomentTable(K, N, epsilon, True, p_diag, np.array(values))
