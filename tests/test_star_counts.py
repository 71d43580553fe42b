import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_forge import star_counts
from graphon_forge.graph_sampler import SparseGraph
from graphon_forge.graphon_model import JsonObject
from graphon_forge.star_counts import (
    TERM_BUDGET,
    MomentTable,
    MomentTableTooLarge,
    count_pair,
    injective_profiles,
    moment_table,
    normalize_pair,
    normalize_star,
    profile_terms,
    total_degree_indices,
)
from tests.conftest import random_simple_graph
from tests.oracles import count_star, dense_adjacency


def brute_force_star(gr: SparseGraph, alpha, B) -> float:
    """Direct sum over ordered tuples of pairwise-distinct neighbors."""
    labels = [i for i, a in enumerate(alpha) for _ in range(a)]
    total = 0.0
    for w in range(gr.n):
        nb = gr.neighbors(w)
        for tup in itertools.permutations(nb, len(labels)):
            prod = 1.0
            for lab, v in zip(labels, tup):
                prod *= B[v, lab]
            total += prod
    return total


def brute_force_pair(gr: SparseGraph, bk) -> float:
    adj = dense_adjacency(gr)
    total = 0.0
    for i in range(gr.n):
        for j in range(gr.n):
            if adj[i, j]:
                total += bk[i] * bk[j]
    return total


class TestCountPair:
    def test_single_edge(self):
        gr = SparseGraph(2, np.array([[0, 1]]))
        assert count_pair(gr, np.array([2.0, 3.0])) == 12.0

    def test_zero_weights(self):
        gr = SparseGraph(3, np.array([[0, 1], [1, 2]]))
        assert count_pair(gr, np.zeros(3)) == 0.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(3, 13))
            gr = SparseGraph(n, random_simple_graph(rng, n, 0.5))
            bk = rng.standard_normal(n)
            got = count_pair(gr, bk)
            want = brute_force_pair(gr, bk)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestNormalizePair:
    def test_arithmetic(self):
        assert normalize_pair(1.2, 0.1, 4.0) == pytest.approx(3.0)

    def test_zero_count(self):
        assert normalize_pair(0.0, 0.3, 2.0) == 0.0

    def test_rejects_zero_lambda(self):
        with pytest.raises(ValueError):
            normalize_pair(1.0, 0.1, 0.0)


class TestInjectiveProfiles:
    def test_two_same_labels(self):
        # sum over distinct pairs = S1^2 - S2
        profiles = dict()
        for coeff, blocks in injective_profiles((2,)):
            profiles[blocks] = coeff
        assert profiles[((1,), (1,))] == pytest.approx(1.0)
        assert profiles[((2,),)] == pytest.approx(-1.0)

    def test_spec_numeric_example(self):
        # center with neighbor weights {1, 2}: injective sum is 4 = 9 - 5
        gr = SparseGraph(3, np.array([[0, 1], [0, 2]]))
        B = np.array([[0.0], [1.0], [2.0]])
        assert count_star(gr, (2,), B) == pytest.approx(4.0)

    def test_singleton_alpha_is_degree_weighted_sum(self):
        rng = np.random.default_rng(1)
        gr = SparseGraph(8, random_simple_graph(rng, 8, 0.4))
        B = rng.standard_normal((8, 1))
        want = float(np.sum(gr.degrees * B[:, 0]))
        assert count_star(gr, (1,), B) == pytest.approx(want, rel=1e-12)

    def test_coefficients_sum_to_injective_count(self):
        # with all B = 1 and full neighborhood d, A counts falling factorials
        for alpha in [(2,), (3,), (2, 1), (2, 2), (4,)]:
            r = sum(alpha)
            d = 6
            gr_edges = np.array([[0, j] for j in range(1, d + 1)])
            gr = SparseGraph(d + 1, gr_edges)
            B = np.ones((d + 1, len(alpha)))
            got = count_star(gr, alpha, B)
            falling = 1.0
            for t in range(r):
                falling *= d - t
            if r == 1:
                falling += d  # leaves also act as centers with one neighbor
            assert got == pytest.approx(falling, rel=1e-12)


class TestCountStarOracle:
    def test_exhaustive_small_graphs(self):
        rng = np.random.default_rng(2)
        alphas = [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (4, 0), (3, 0),
                  (1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 0), (1, 1, 1, 1)]
        for _ in range(25):
            n = int(rng.integers(4, 13))
            gr = SparseGraph(n, random_simple_graph(rng, n, 0.45))
            B = rng.standard_normal((n, 4))
            for alpha in alphas:
                got = count_star(gr, alpha, B[:, : len(alpha)])
                want = brute_force_star(gr, alpha, B)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda a: 1 <= sum(a) <= 4),
)
def test_property_star_count_matches_enumeration(seed, alpha):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 11))
    gr = SparseGraph(n, random_simple_graph(rng, n, 0.5))
    B = rng.standard_normal((n, 2))
    got = count_star(gr, alpha, B)
    want = brute_force_star(gr, alpha, B)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-9)


class TestNormalizeStar:
    def test_alpha_zero_normalization(self):
        rng = np.random.default_rng(3)
        gr = SparseGraph(9, random_simple_graph(rng, 9, 0.4))
        # A_0 = n (empty product per center), so P_0 = n * n^-1 = 1
        assert normalize_star(float(gr.n), (0, 0), gr.n, 0.3, np.array([4.0, 3.0]), np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_scale_covariance(self):
        rng = np.random.default_rng(4)
        gr = SparseGraph(10, random_simple_graph(rng, 10, 0.5))
        B = rng.standard_normal((10, 2))
        lambdas = np.array([4.0, 3.0])
        eps = 0.3
        c = 1.7
        for alpha in [(1, 1), (2, 1), (2, 2)]:
            a1 = count_star(gr, alpha, B)
            a2 = count_star(gr, alpha, c * B)
            assert a2 == pytest.approx(c ** sum(alpha) * a1, rel=1e-9)
            pd1 = np.array([normalize_pair(count_pair(gr, B[:, k]), eps, lambdas[k]) for k in range(2)])
            pd2 = np.array([normalize_pair(count_pair(gr, c * B[:, k]), eps, lambdas[k]) for k in range(2)])
            if np.all(pd1 > 0):
                p1 = normalize_star(a1, alpha, gr.n, eps, lambdas, pd1)
                p2 = normalize_star(a2, alpha, gr.n, eps, lambdas, pd2)
                assert p2 == pytest.approx(p1, rel=1e-9)


class TestMomentTable:
    def _graph_and_aggregates(self, seed, n=200, K=2):
        rng = np.random.default_rng(seed)
        gr = SparseGraph(n, random_simple_graph(rng, n, 4.0 / n))
        # positively-correlated synthetic aggregates so the pair diagonal is positive
        B = np.abs(rng.standard_normal((n, K))) + 0.1
        return gr, B

    def test_grid_size_and_consistency(self):
        gr, B = self._graph_and_aggregates(0, K=1)
        lambdas = np.array([3.0])
        table = moment_table(gr, lambdas, N=3, epsilon=0.4, aggregates=B)
        assert table.entries.shape == (4,)
        assert table.valid
        pd = table.pair_diagonal
        for a in range(1, 4):
            direct = normalize_star(count_star(gr, (a,), B), (a,), gr.n, 0.4, lambdas, pd)
            assert table.entries[a] == pytest.approx(direct, rel=1e-12)

    def test_k2_grid(self):
        gr, B = self._graph_and_aggregates(1)
        table = moment_table(gr, np.array([4.0, 3.0]), N=2, epsilon=0.4, aggregates=B)
        assert table.entries.shape == (3, 3)
        assert table.entries.size == 9
        assert table.value((0, 0)) == pytest.approx(1.0)

    def test_guard_path_zeroes_table(self):
        gr, B = self._graph_and_aggregates(2)
        # flipping one lambda sign makes that pair diagonal negative
        table = moment_table(gr, np.array([4.0, -3.0]), N=2, epsilon=0.4, aggregates=B)
        assert not table.valid
        np.testing.assert_array_equal(table.entries, 0.0)

    def test_memory_guard(self):
        gr, B = self._graph_and_aggregates(3)
        with pytest.raises(MomentTableTooLarge):
            moment_table(gr, np.array([4.0, 3.0]), N=200, epsilon=0.4, aggregates=B)

    def test_term_guard_refuses_before_expanding(self, monkeypatch):
        # K = 2, N = 20: 441 cells, inside TABLE_BUDGET, but 1 371 843 profile
        # terms, whose expansion alone took 9.6 s
        gr, B = self._graph_and_aggregates(3)

        def expanded(alpha):
            raise AssertionError(f"profiles of {alpha} enumerated")

        monkeypatch.setattr(star_counts, "injective_profiles", expanded)
        t0 = time.perf_counter()
        with pytest.raises(MomentTableTooLarge, match="profile terms"):
            moment_table(gr, np.array([4.0, 3.0]), N=20, epsilon=0.4, aggregates=B)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize(
        "K, N, terms",
        # the (K, N) in use: K <= 6 at the default N = 4, and K = 3 at N = 6
        [(0, 4, 1), (1, 4, 12), (2, 4, 56), (3, 4, 171), (4, 4, 410), (5, 4, 841), (6, 4, 1547), (3, 6, 1407),
         (1, 30, 28629), (2, 10, 4435)],
    )
    def test_profile_terms_count_the_expansion(self, K, N, terms):
        assert profile_terms(K, N) == terms
        assert terms == sum(len(injective_profiles(alpha)) for alpha in total_degree_indices(K, N))
        assert (terms <= TERM_BUDGET) == (N <= 10)
        # a count past `stop` may return early, as a lower bound
        assert terms // 2 < profile_terms(K, N, stop=terms // 2) <= terms

    @pytest.mark.parametrize("K, N", [(2, 3), (3, 2)])
    def test_only_total_degree_entries(self, K, N):
        gr, B = self._graph_and_aggregates(5, K=K)
        lambdas = np.array([4.0, 3.0, 2.5][:K])
        table = moment_table(gr, lambdas, N=N, epsilon=0.4, aggregates=B)
        assert table.valid
        for alpha in np.ndindex(table.entries.shape):
            if sum(alpha) > N:
                assert table.entries[alpha] == 0.0, alpha
            elif sum(alpha) > 0:
                direct = normalize_star(count_star(gr, alpha, B), alpha, gr.n, 0.4, lambdas, table.pair_diagonal)
                assert table.entries[alpha] == pytest.approx(direct, rel=1e-12), alpha
        listed = [tuple(item["alpha"]) for item in table.to_dict()["entries"]]
        assert len(listed) == math.comb(N + K, K)
        assert listed == total_degree_indices(K, N)

    def test_round_trip_dict(self):
        gr, B = self._graph_and_aggregates(4)
        table = moment_table(gr, np.array([4.0, 3.0]), N=2, epsilon=0.4, aggregates=B)
        doc = table.to_dict()
        back = MomentTable.from_dict(JsonObject("moments.json", doc))
        np.testing.assert_allclose(back.entries, table.entries, atol=0)
        assert back.valid == table.valid
        assert back.epsilon == table.epsilon
