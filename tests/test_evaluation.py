import itertools
from math import factorial

import numpy as np
import pytest

from graphon_forge import evaluation
from graphon_forge.estimator import GraphonEstimate
from graphon_forge.evaluation import (
    ALIGNMENT_BUDGET,
    ATOM_SORT_WEIGHT,
    delta2_upper,
    diagnostics_C,
    l2_distance_grid,
)
from graphon_forge.graph_sampler import LatentAssignment
from graphon_forge.graphon_model import SpectralGraphon, StepGraphon, spectral_decompose
from graphon_forge.pipeline import alignment_metrics
from tests.oracles import assemble, delta2_exact_cells


def constant_kernel(c):
    return StepGraphon(np.array([1.0]), np.array([[float(c)]]))


@pytest.fixture
def three_block():
    return StepGraphon(np.full(3, 1 / 3), np.array([[15.0, 2.0, 1.0], [2.0, 14.0, 2.0], [1.0, 2.0, 15.0]]))


def estimate_from_truth(truth, g=256, sign=None):
    """Z rows = true feature vectors at grid midpoints."""
    F = truth.feature_grid(g)
    if sign is not None:
        F = F * np.asarray(sign)
    return assemble(F, truth.eigenvalues, kappa=np.inf)


class TestL2DistanceGrid:
    def test_identical_is_zero(self, assortative_2block):
        assert l2_distance_grid(assortative_2block, assortative_2block, 128) == 0.0

    def test_constants(self):
        a, b = constant_kernel(5.0), constant_kernel(1.5)
        assert l2_distance_grid(a, b, 64) == pytest.approx(3.5, abs=1e-12)

    def test_rank_one_truncation_residual(self, assortative_2block):
        s = spectral_decompose(assortative_2block)
        t = SpectralGraphon(s.eigenvalues[:1], s.features[:, :1], s.degree_constant, s.block_measures)
        assert l2_distance_grid(assortative_2block, t, 256) == pytest.approx(3.0, abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            kernels = []
            for _ in range(3):
                w = rng.random((2, 2)) * 4
                kernels.append(StepGraphon(np.array([0.5, 0.5]), (w + w.T) / 2))
            a, b, c = kernels
            dab = l2_distance_grid(a, b, 64)
            dbc = l2_distance_grid(b, c, 64)
            dac = l2_distance_grid(a, c, 64)
            assert dac <= dab + dbc + 1e-9


class TestDelta2Upper:
    def test_self_alignment(self, assortative_2block):
        truth = spectral_decompose(assortative_2block)
        est = estimate_from_truth(truth)
        rep = delta2_upper(est, truth, g=256)
        assert rep.delta2_upper <= 1e-9
        assert rep.method == "canonical-sort"

    def test_sign_flip_recovered(self, assortative_2block):
        truth = spectral_decompose(assortative_2block)
        base = delta2_upper(estimate_from_truth(truth), truth, g=256).delta2_upper
        flipped = delta2_upper(estimate_from_truth(truth, sign=[1, -1]), truth, g=256)
        assert flipped.delta2_upper == pytest.approx(base, abs=1e-12)

    def test_block_permutation_invariance(self, assortative_2block):
        truth = spectral_decompose(assortative_2block)
        swapped = StepGraphon(
            np.array([0.5, 0.5]), assortative_2block.values[::-1, ::-1].copy()
        )
        truth_swapped = spectral_decompose(swapped)
        est = estimate_from_truth(truth)
        a = delta2_upper(est, truth, g=256).delta2_upper
        b = delta2_upper(est, truth_swapped, g=256).delta2_upper
        assert a == pytest.approx(b, abs=1e-9)

    def test_zero_padding_charges_missing_rank(self, assortative_2block):
        truth = spectral_decompose(assortative_2block)
        est = assemble(np.ones((64, 1)), np.array([4.0]))  # rank-1 constant estimate
        rep = delta2_upper(est, truth, g=256, rank=2)
        assert rep.delta2_upper == pytest.approx(3.0, abs=1e-9)

    def test_truth_rank_deficit_padded(self, assortative_2block):
        # the rank-2 truth gets a zero third eigenpair, so the constant
        # estimate 4 + 3 + 1 = 8 is charged in full: it is 5 from [[7,1],[1,7]]
        truth = spectral_decompose(assortative_2block)
        est = assemble(np.ones((16, 3)), np.array([4.0, 3.0, 1.0]))
        assert delta2_upper(est, truth, g=64).delta2_upper == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize("s", [0.5, -0.8, 5.0])
    def test_spurious_component_on_equal_cells_matches_exact(self, s):
        # truth: rank 2 on 4 equal cells; estimate: the same plus s w w^T, w
        # orthogonal to the truth's features, so K = 3 exceeds the truth's rank
        p = 4
        V = np.array([[1, 1, 1, 1], [1.3, 0.4, -0.4, -1.3], [1, -1, -1, 1]], dtype=float).T
        V[:, 1] /= np.sqrt(np.mean(V[:, 1] ** 2))
        a = 8.0 * np.outer(V[:, 0], V[:, 0]) + 3.0 * np.outer(V[:, 1], V[:, 1])
        b = a + s * np.outer(V[:, 2], V[:, 2])
        sa = spectral_decompose(StepGraphon(np.full(p, 1 / p), a))
        truth = SpectralGraphon(sa.eigenvalues[:2], sa.features[:, :2], sa.degree_constant, sa.block_measures)
        sb = spectral_decompose(StepGraphon(np.full(p, 1 / p), b))
        est = assemble(sb.feature_grid(p * 8, 3), sb.eigenvalues[:3])
        upper = delta2_upper(est, truth, g=p * 8).delta2_upper
        assert upper == pytest.approx(delta2_exact_cells(a, b), abs=1e-9)
        assert upper <= abs(s) + 1e-9

    def test_upper_bounds_exact_permutation_on_small_cells(self):
        rng = np.random.default_rng(1)
        p = 6
        for trial in range(8):
            wa = rng.random((p, p)) * 4
            wb = rng.random((p, p)) * 4
            a = StepGraphon(np.full(p, 1 / p), (wa + wa.T) / 2)
            b = StepGraphon(np.full(p, 1 / p), (wb + wb.T) / 2)
            sa, sb = spectral_decompose(a), spectral_decompose(b)
            r = min(sa.rank, sb.rank)
            est = assemble(sb.feature_grid(p * 8, r), sb.eigenvalues[:r])
            upper = delta2_upper(est, sa, g=p * 8, rank=r).delta2_upper
            exact = delta2_exact_cells(a.values, b.values)
            assert upper >= exact - 1e-9

    def test_budget_admits_k5_and_refuses_r6_at_panel_size(self):
        def cost(r, atoms, g):
            return factorial(r) * 2**r * (ATOM_SORT_WEIGHT * atoms + g * g)

        assert cost(6, 48, 48) <= ALIGNMENT_BUDGET  # the small-cell search above: 48 distinct rows
        assert cost(5, 13, 256) <= ALIGNMENT_BUDGET  # the panel fits have 7-13 atoms
        assert cost(5, 10_000, 256) > ALIGNMENT_BUDGET  # about 20 s of sorting
        assert cost(6, 13, 256) > ALIGNMENT_BUDGET
        assert cost(7, 48, 48) > ALIGNMENT_BUDGET

    def test_many_pieces_on_few_atoms_scored(self):
        # r!*2^r*(m + g^2) would be 3.9e9 here; the search sorts the 16 atoms
        r, g, m = 5, 64, 1_000_000
        w = np.random.default_rng(5).random((r, r))
        truth = spectral_decompose(StepGraphon(np.full(r, 1 / r), w + w.T + 4 * np.eye(r)))
        assert factorial(r) * 2**r * (m + g * g) > ALIGNMENT_BUDGET
        rng = np.random.default_rng(6)
        atoms = np.concatenate([truth.features, rng.standard_normal((16 - r, r))])
        index = rng.integers(0, r, m)  # the extra atoms are never drawn
        est = GraphonEstimate(truth.eigenvalues, atoms, index, np.inf)
        metrics = alignment_metrics(est, truth, g, r)
        assert metrics["delta2_upper"] is not None and metrics["delta2_upper"] <= 1e-9

    @pytest.mark.parametrize("r, m, g", [(6, 10_000, 256), (7, 10_000, 256), (7, 48, 48)])
    def test_over_budget_refused_before_the_search(self, r, m, g, monkeypatch):
        def started(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(evaluation, "_canonical_order", started)
        monkeypatch.setattr(evaluation, "_kernel", started)
        w = np.random.default_rng(r).random((r, r))
        truth = spectral_decompose(StepGraphon(np.full(r, 1 / r), w + w.T))
        est = assemble(np.ones((m, r)), truth.eigenvalues)
        with pytest.raises(ValueError, match="budget"):
            delta2_upper(est, truth, g=g)
        metrics = alignment_metrics(est, truth, g, r)
        assert metrics["delta2_upper"] is None and "budget" in metrics["alignment_warning"]

    def test_many_distinct_atoms_refused_before_the_search(self, monkeypatch):
        # K = 5 on 10^4 distinct atoms at g = 256: the grid term alone would admit it
        def started(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(evaluation, "_canonical_order", started)
        r, g = 5, 256
        assert factorial(r) * 2**r * (10_000 + g * g) <= ALIGNMENT_BUDGET
        w = np.random.default_rng(r).random((r, r))
        truth = spectral_decompose(StepGraphon(np.full(r, 1 / r), w + w.T + 4 * np.eye(r)))
        est = assemble(np.random.default_rng(11).standard_normal((10_000, r)), truth.eigenvalues)
        assert est.atoms.shape[0] == 10_000
        with pytest.raises(ValueError, match="budget"):
            delta2_upper(est, truth, g=g)

    def test_many_pieces_sorted_before_gridding(self, assortative_2block):
        # i.i.d. draws of the true features: only sorting all m pieces (not
        # g grid samples of them) brings the bound near the 1/sqrt(m) scale
        truth = spectral_decompose(assortative_2block)
        x = np.random.default_rng(6).random(80_000)
        F = truth.features_at(x)
        rep = delta2_upper(assemble(F, truth.eigenvalues), truth, g=256)
        assert rep.delta2_upper <= 0.1

    @staticmethod
    def delta2_on_rows(estimate, truth, g, rank=None):
        """The search on all m rows of the estimate, one lexsort per candidate."""
        K = estimate.K
        r = max(K if rank is None else rank, K)

        def sort_rows(f, order):
            keys = [np.arange(f.shape[0])] + [f[:, i] for i in reversed(order)]
            return f[np.lexsort(tuple(keys))]

        f_true = truth.feature_grid(g, r)
        mu = truth.eigenvalues[:r]
        Z, lam = estimate.Z, estimate.lambdas
        if K < r:
            Z = np.concatenate([Z, np.zeros((Z.shape[0], r - K))], axis=1)
            lam = np.concatenate([lam, np.zeros(r - K)])
        cells = estimate.piece_of((np.arange(g) + 0.5) / g)
        best = (np.inf, None, None)
        for order in itertools.permutations(range(r)):
            f_t = sort_rows(f_true, order)
            k_true = (f_t * mu) @ f_t.T
            for mask in range(2**r):
                signs = np.array([-1.0 if (mask >> i) & 1 else 1.0 for i in range(r)])
                f_est = sort_rows(Z * signs, order)[cells]
                d = float(np.sqrt(np.mean(((f_est * lam) @ f_est.T - k_true) ** 2)))
                if d < best[0]:
                    best = (d, signs, order)
        return best

    def assert_matches_rows(self, est, truth, g, rank=None):
        rep = delta2_upper(est, truth, g=g, rank=rank)
        d, signs, order = self.delta2_on_rows(est, truth, g, rank)
        assert rep.delta2_upper == d
        np.testing.assert_array_equal(rep.sign_pattern, signs)
        assert rep.priority_order == order

    @pytest.mark.parametrize("seed", range(4))
    def test_atom_search_equals_row_search_on_repeated_atoms(self, seed, three_block):
        rng = np.random.default_rng(seed)
        truth = spectral_decompose(three_block)
        A, K = int(rng.integers(3, 12)), int(rng.integers(1, 4))
        atoms = rng.standard_normal((A, K)).round(1)  # rounding makes some feature values tie
        index = rng.choice(A, size=int(rng.integers(50, 5000)), p=rng.dirichlet(np.ones(A)))
        est = GraphonEstimate(truth.eigenvalues[:K] * rng.random(K), atoms, index, np.inf)
        self.assert_matches_rows(est, truth, g=int(rng.integers(16, 200)))

    def test_atom_search_equals_row_search_with_undrawn_atoms(self, three_block):
        truth = spectral_decompose(three_block)
        rng = np.random.default_rng(7)
        atoms = rng.standard_normal((9, 3))
        index = rng.choice([0, 2, 5, 8], size=3001)  # atoms 1, 3, 4, 6, 7 count 0
        est = GraphonEstimate(truth.eigenvalues, atoms, index, np.inf)
        assert np.count_nonzero(est.counts) == 4
        self.assert_matches_rows(est, truth, g=128)

    def test_atom_search_equals_row_search_with_padding(self, three_block):
        truth = spectral_decompose(three_block)
        rng = np.random.default_rng(8)
        est = GraphonEstimate(truth.eigenvalues[:1], rng.standard_normal((6, 1)), rng.integers(0, 6, 999), np.inf)
        self.assert_matches_rows(est, truth, g=96, rank=3)

    def test_truth_padding_equals_an_explicit_zero_eigenpair(self, three_block):
        truth = spectral_decompose(three_block)
        padded = SpectralGraphon(
            np.r_[truth.eigenvalues, 0.0], np.c_[truth.features, np.zeros(3)],
            truth.degree_constant, truth.block_measures,
        )
        rng = np.random.default_rng(10)
        est = GraphonEstimate(np.r_[truth.eigenvalues, -2.0], rng.standard_normal((7, 4)), rng.integers(0, 7, 999), np.inf)
        rep = delta2_upper(est, truth, g=96)
        d, signs, order = self.delta2_on_rows(est, padded, 96)
        assert rep.delta2_upper == d
        np.testing.assert_array_equal(rep.sign_pattern, signs)
        assert rep.priority_order == order

    def test_atom_search_equals_row_search_on_signed_zeros(self, assortative_2block):
        truth = spectral_decompose(assortative_2block)
        atoms = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [0.5, 0.5]])
        index = np.random.default_rng(9).integers(0, 5, 777)
        est = GraphonEstimate(truth.eigenvalues, atoms, index, np.inf)
        self.assert_matches_rows(est, truth, g=64)

    def test_atom_search_equals_row_search_on_many_pieces(self, assortative_2block):
        truth = spectral_decompose(assortative_2block)
        x = np.random.default_rng(6).random(80_000)
        self.assert_matches_rows(assemble(truth.features_at(x), truth.eigenvalues), truth, g=256)

    def test_equality_on_two_block_symmetric(self):
        a = StepGraphon(np.array([0.5, 0.5]), np.array([[7.0, 1.0], [1.0, 4.0]]))
        b = StepGraphon(np.array([0.5, 0.5]), np.array([[4.0, 1.0], [1.0, 7.0]]))
        truth = spectral_decompose(a)
        est = estimate_from_truth(spectral_decompose(b))
        upper = delta2_upper(est, truth, g=256).delta2_upper
        exact = delta2_exact_cells(a.values, b.values)
        assert upper == pytest.approx(exact, abs=1e-9)


class TestDelta2ExactCells:
    def test_permuted_copy_is_zero(self):
        rng = np.random.default_rng(2)
        w = rng.random((5, 5))
        w = (w + w.T) / 2
        perm = [3, 0, 4, 1, 2]
        assert delta2_exact_cells(w, w[np.ix_(perm, perm)]) == pytest.approx(0.0, abs=1e-12)

    def test_two_block_swap(self):
        # relabeling the two blocks swaps both rows and columns
        a = np.array([[7.0, 1.0], [1.0, 4.0]])
        b = np.array([[4.0, 1.0], [1.0, 7.0]])
        assert delta2_exact_cells(a, b) == 0.0

    def test_diagonal_is_permutation_invariant(self):
        # no cell relabeling exchanges on- and off-diagonal values
        a = np.array([[7.0, 1.0], [1.0, 7.0]])
        b = np.array([[1.0, 7.0], [7.0, 1.0]])
        assert delta2_exact_cells(a, b) == pytest.approx(6.0)

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(3)

        def oracle(a, b):
            best = np.inf
            p = a.shape[0]
            for perm in itertools.permutations(range(p)):
                tot = 0.0
                for i in range(p):
                    for j in range(p):
                        tot += (a[i, j] - b[perm[i], perm[j]]) ** 2
                best = min(best, np.sqrt(tot / p**2))
            return best

        for _ in range(5):
            a = rng.random((5, 5))
            a = (a + a.T) / 2
            b = rng.random((5, 5))
            b = (b + b.T) / 2
            assert delta2_exact_cells(a, b) == pytest.approx(oracle(a, b), rel=1e-12)

    def test_size_guard(self):
        big = np.eye(10)
        with pytest.raises(ValueError):
            delta2_exact_cells(big, big)


class TestDiagnostics:
    def test_zero_aggregates(self, assortative_2block):
        truth = spectral_decompose(assortative_2block)
        lat = LatentAssignment(np.linspace(0, 1, 50))
        d = diagnostics_C(np.zeros((50, 2)), lat, truth)
        np.testing.assert_array_equal(d.C, 0.0)
        np.testing.assert_array_equal(d.contraction, 0.0)

    def test_missing_latents_rejected(self, assortative_2block):
        truth = spectral_decompose(assortative_2block)
        with pytest.raises(ValueError):
            diagnostics_C(np.zeros((50, 2)), None, truth)

    def test_diagonal_consistency(self, assortative_2block):
        # aggregates proportional to the true features make C near-diagonal
        truth = spectral_decompose(assortative_2block)
        rng = np.random.default_rng(4)
        x = rng.random(4000)
        F = truth.features_at(x)
        d = diagnostics_C(0.3 * F, LatentAssignment(x), truth)
        n = x.size
        # C[i, j] = 0.3 n^{-1/2} sum f_i f_j ~ 0.3 sqrt(n) delta_ij
        scale = 0.3 * np.sqrt(n)
        assert d.C[0, 0] == pytest.approx(scale, rel=0.1)
        assert abs(d.C[0, 1]) <= 0.1 * scale
        np.testing.assert_allclose(
            d.contraction,
            [truth.eigenvalues[0] * d.C[0, 0] ** 2 + truth.eigenvalues[1] * d.C[0, 1] ** 2,
             truth.eigenvalues[0] * d.C[1, 0] ** 2 + truth.eigenvalues[1] * d.C[1, 1] ** 2],
            rtol=1e-12,
        )
