import itertools

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from graphon_forge import moment_poly
from graphon_forge.moment_poly import (
    NODE_BUDGET,
    SAMPLE_GRID,
    QuadratureUnderflowError,
    UnusableFitError,
    fit_nodes,
    grid_moments,
    mollifier_moments,
    mollify_moments,
    nnls,
    node_resolution,
)
from graphon_forge.moment_poly import _binomial_convolution_matrix, _midpoints
from graphon_forge.nonbacktracking import K_CAP
from graphon_forge.star_counts import MomentTable, total_degree_indices
from tests.oracles import (
    DensityFit,
    _apply_axes,
    density_grid,
    eval_density,
    fit_density,
    grid_nodes,
    l1_norm_plus,
    legendre_basis,
    node_moments,
)

# unit-bump second moment, frozen from two Gauss-Legendre rules agreeing to 1e-12
# (see test_mollifier_second_moment_dual_quadrature)
UNIT_BUMP_M2 = 0.15811363626379823


def gauss_bump_moment(j: int, nodes: int) -> float:
    x, w = np.polynomial.legendre.leggauss(nodes)
    psi = np.exp(-1.0 / (1.0 - x**2))
    return float(np.sum(w * x**j * psi) / np.sum(w * psi))


class TestMollifierMoments:
    def test_zeroth_is_one(self):
        mm = mollifier_moments(0.3, 6)
        assert mm.moments[0] == 1.0

    def test_odd_vanish(self):
        mm = mollifier_moments(0.7, 9)
        assert np.all(mm.moments[1::2] == 0.0)

    def test_second_moment_dual_quadrature(self):
        a, b = gauss_bump_moment(2, 300), gauss_bump_moment(2, 600)
        assert abs(a - b) <= 1e-12
        assert abs(a - UNIT_BUMP_M2) <= 1e-12
        mm = mollifier_moments(1.0, 2)
        assert mm.moments[2] == pytest.approx(UNIT_BUMP_M2, rel=1e-10)

    def test_delta_scaling(self):
        mm = mollifier_moments(0.25, 4)
        assert mm.moments[2] == pytest.approx(UNIT_BUMP_M2 * 0.25**2, rel=1e-10)
        assert mm.moments[4] == pytest.approx(gauss_bump_moment(4, 400) * 0.25**4, rel=1e-9)

    def test_bounded_by_delta_powers(self):
        for delta in (0.05, 0.3, 1.7):
            mm = mollifier_moments(delta, 8)
            for j in range(9):
                assert abs(mm.moments[j]) <= delta**j + 1e-15

    def test_underflow_guard(self):
        with pytest.raises(QuadratureUnderflowError):
            mollifier_moments(1e-200, 4)
        with pytest.raises(ValueError):
            mollifier_moments(0.0, 4)


def table_from_entries(entries: np.ndarray) -> MomentTable:
    """The table whose (N+1,) * K view is `entries` up to total degree N; cells above it are dropped."""
    K, N = entries.ndim, entries.shape[0] - 1
    return MomentTable(
        K=K,
        N=N,
        pair_diagonal=np.ones(K),
        values=np.array([entries[a] for a in total_degree_indices(K, N)]),
    )


class TestMollifyMoments:
    def test_zero_width_limit_is_identity(self):
        rng = np.random.default_rng(0)
        P = rng.standard_normal((5, 5))
        table = table_from_entries(P)
        mm = mollifier_moments(1.0, 4)
        mm.moments[:] = 0.0
        mm.moments[0] = 1.0  # point-mass mollifier
        np.testing.assert_allclose(mollify_moments(table, mm).values, table.values, atol=0)

    def test_k1_alpha2_formula(self):
        P = np.array([1.0, 0.3, 0.9])
        table = table_from_entries(P)
        mm = mollifier_moments(0.4, 2)
        M = mollify_moments(table, mm).values
        assert M[0] == pytest.approx(1.0)
        assert M[2] == pytest.approx(P[2] + mm.moments[2] * P[0])

    def test_point_mass_against_monte_carlo(self):
        # moments of c + N_delta vs simulation of the bump noise
        c, delta, N = 0.7, 1.0, 4
        P = np.array([c**j for j in range(N + 1)])
        table = table_from_entries(P)
        mm = mollifier_moments(delta, N)
        M = mollify_moments(table, mm).values
        rng = np.random.default_rng(1)
        samples = np.empty(0)
        while samples.size < 10**6:
            x = rng.uniform(-1, 1, 2 * 10**6)
            u = rng.random(x.size)
            samples = np.concatenate([samples, x[u < np.exp(-1 / (1 - x**2)) / np.exp(-1)]])
        y = c + samples[: 10**6] * delta
        for j in range(N + 1):
            mc = np.mean(y**j)
            se = np.std(y**j) / np.sqrt(y.size)
            assert abs(M[j] - mc) <= 3 * se + 1e-12

    def test_invalid_table_rejected(self):
        table = table_from_entries(np.ones((3, 3)))
        table.pair_diagonal[1] = 0.0
        assert not table.valid
        with pytest.raises(UnusableFitError, match="invalid"):
            mollify_moments(table, mollifier_moments(0.3, 2))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_table_rejected_before_the_convolution(self, bad, monkeypatch):
        table = table_from_entries(np.ones((3, 3)))
        table.values[4] = bad
        monkeypatch.setattr(moment_poly, "_binomial_convolution_matrix", None)  # never reached
        with pytest.raises(UnusableFitError, match="moment table has non-finite entries"):
            mollify_moments(table, mollifier_moments(0.3, 2))

    def test_matches_dense_tensor_oracle_bit_for_bit(self):
        # the list, one axis at a time, against the convolution matrix along
        # every axis of the (N+1,) * K view
        rng = np.random.default_rng(9)
        for K, N, _ in itertools.product(range(1, 5), range(7), range(5)):
            alphas = total_degree_indices(K, N)
            values = rng.standard_normal(len(alphas)) * 10.0 ** rng.uniform(-3, 3)
            table = MomentTable(K, N, np.ones(K), values)
            mm = mollifier_moments(rng.uniform(0.05, 1.5), N)
            dense = _apply_axes(_binomial_convolution_matrix(mm, N), table.entries)
            want = np.array([dense[a] for a in alphas])
            got = mollify_moments(table, mm)
            assert got.alphas == alphas and got.K == K and got.N == N
            np.testing.assert_array_equal(got.values.view(np.int64), want.view(np.int64), f"K={K} N={N}")


class TestLegendreBasis:
    def test_constant_coefficient(self):
        b = legendre_basis(3, 1.0)
        assert b.coeffs[0, 0] == pytest.approx(1 / np.sqrt(2))

    def test_linear_coefficient(self):
        b = legendre_basis(3, 1.0)
        assert b.coeffs[1, 1] == pytest.approx(np.sqrt(1.5))
        assert b.coeffs[1, 0] == 0.0

    @pytest.mark.parametrize("kappa", [1.0, 2.0, 7.0])
    def test_orthonormal_on_scaled_interval(self, kappa):
        N = 8
        b = legendre_basis(N, kappa)
        x, w = np.polynomial.legendre.leggauss(2 * N + 2)
        xs = x * kappa
        vals = b.values(xs)  # rows: points, cols: degree
        gram = (vals * w[:, None]).T @ vals * kappa
        np.testing.assert_allclose(gram, np.eye(N + 1), atol=1e-10)


def exact_polynomial_moments(rho: np.ndarray, basis, K: int) -> np.ndarray:
    """Moments of sum rho_alpha Ltilde_alpha by exact Gauss quadrature."""
    N = basis.N
    x, w = np.polynomial.legendre.leggauss(2 * N + 4)
    xs = x * basis.kappa
    vals = basis.values(xs)
    axes_mom = np.empty((N + 1, N + 1))  # axes_mom[j, i] = int x^j Ltilde_i
    for j in range(N + 1):
        axes_mom[j] = ((xs**j * w)[:, None] * vals).sum(axis=0) * basis.kappa
    out = rho
    for _ in range(K):
        out = np.tensordot(out, axes_mom, axes=(0, 1))
    return out


class TestFitDensity:
    def test_uniform_density_only_constant_term(self):
        K, N, kappa = 2, 4, 3.0
        basis = legendre_basis(N, kappa)
        # exact moments of the uniform density on the box
        M = np.zeros((N + 1, N + 1))
        for a in range(N + 1):
            for b in range(N + 1):
                ma = kappa**a / (a + 1) if a % 2 == 0 else 0.0
                mb = kappa**b / (b + 1) if b % 2 == 0 else 0.0
                M[a, b] = ma * mb
        fit = fit_density(M, basis, K)
        flat = fit.rho.copy()
        const = flat[0, 0]
        flat[0, 0] = 0.0
        assert np.abs(flat).max() <= 1e-10
        assert const == pytest.approx((2 * kappa) ** (-K / 2), rel=1e-10)
        mids, vals = density_grid(fit, 64)
        np.testing.assert_allclose(vals, (2 * kappa) ** -K, atol=1e-9)

    def test_plant_and_recover(self):
        N, kappa = 5, 2.0
        basis = legendre_basis(N, kappa)
        planted = np.zeros(N + 1)
        planted[0] = 0.8
        planted[2] = 0.37
        moments = exact_polynomial_moments(planted, basis, 1)
        fit = fit_density(moments, basis, 1)
        np.testing.assert_allclose(fit.rho, planted, atol=1e-9)

    def test_round_trip_moments(self):
        rng = np.random.default_rng(2)
        N, kappa = 4, 1.5
        basis = legendre_basis(N, kappa)
        rho = rng.standard_normal((N + 1, N + 1)) * 0.1
        M = exact_polynomial_moments(rho, basis, 2)
        fit = fit_density(M, basis, 2)
        M_back = exact_polynomial_moments(fit.rho, basis, 2)
        np.testing.assert_allclose(M_back, M, atol=1e-8)


def two_atom_mollified_density(xs, delta):
    """Density of X + N_delta with X uniform on {-1, +1}, in closed form."""
    z = np.polynomial.legendre.leggauss(400)
    t, w = z
    norm = np.sum(w * np.exp(-1 / (1 - t**2)))
    out = np.zeros_like(xs)
    for atom in (-1.0, 1.0):
        u = (xs - atom) / delta
        inside = np.abs(u) < 1
        vals = np.zeros_like(xs)
        vals[inside] = np.exp(-1 / (1 - u[inside] ** 2))
        out += 0.5 * vals / (norm * delta)
    return out


class TestTwoAtomRecovery:
    def test_l1_error_decreases_in_degree(self):
        delta, kappa = 0.2, 2.0
        errors = []
        for N in (8, 12, 16, 20):
            mm = mollifier_moments(delta, N)
            # exact moments of the two-atom law: E[(A + N)^j], A = +-1 fair
            P = np.array([0.5 * ((1.0) ** j + (-1.0) ** j) for j in range(N + 1)])
            M = np.zeros(N + 1)
            from math import comb

            for a in range(N + 1):
                M[a] = sum(comb(a, b) * P[b] * mm.moments[a - b] for b in range(a + 1))
            basis = legendre_basis(N, kappa)
            fit = fit_density(M.reshape(-1), basis, 1, delta=delta)
            l1_norm_plus(fit, 256)
            xs = (np.arange(4096) + 0.5) / 4096 * 2 * kappa - kappa
            approx = np.maximum(eval_density(fit, xs.reshape(-1, 1)), 0.0) / fit.l1_norm_plus
            truth = two_atom_mollified_density(xs, delta)
            errors.append(np.sum(np.abs(approx - truth)) * (2 * kappa / 4096))
        assert all(a > b for a, b in zip(errors, errors[1:])), errors


class TestEvalDensity:
    def _fit(self, seed=0, N=4, kappa=2.0, K=2):
        rng = np.random.default_rng(seed)
        rho = rng.standard_normal((N + 1,) * K) * 0.3
        return DensityFit(K=K, N=N, kappa=kappa, delta=0.1, rho=rho)

    def test_outside_box_is_zero(self):
        fit = self._fit()
        assert eval_density(fit, np.array([3.0, 0.0])) == 0.0
        assert eval_density(fit, np.array([0.0, -2.1])) == 0.0

    def test_constant_fit(self):
        basis = legendre_basis(2, 1.5)
        rho = np.zeros((3, 3))
        rho[0, 0] = 1.0
        fit = fit_density(np.zeros((3, 3)), basis, 2)
        fit.rho = rho
        c = (1 / np.sqrt(2 * 1.5)) ** 2
        assert eval_density(fit, np.array([0.2, -0.4])) == pytest.approx(c, rel=1e-12)

    def test_matches_naive_sum(self):
        fit = self._fit(seed=4)
        basis = fit.basis
        rng = np.random.default_rng(5)
        pts = rng.uniform(-fit.kappa, fit.kappa, size=(100, 2))
        got = eval_density(fit, pts)
        for p, g in zip(pts, got):
            naive = 0.0
            for a in range(fit.N + 1):
                for b in range(fit.N + 1):
                    la = basis.values(np.array([p[0]]))[0, a]
                    lb = basis.values(np.array([p[1]]))[0, b]
                    naive += fit.rho[a, b] * la * lb
            assert g == pytest.approx(naive, abs=1e-12)


class TestL1NormPlus:
    def test_constant_fit_exact(self):
        kappa, K = 1.8, 2
        basis = legendre_basis(3, kappa)
        rho = np.zeros((4, 4))
        rho[0, 0] = 2.0
        fit = DensityFit(K=K, N=3, kappa=kappa, delta=0.1, rho=rho)
        c = 2.0 * (1 / np.sqrt(2 * kappa)) ** K
        got = l1_norm_plus(fit, 64)
        assert got == pytest.approx(c * (2 * kappa) ** K, rel=1e-10)
        assert not fit.resolution_warning

    def test_negative_everywhere_rejected(self):
        rho = np.zeros((3,))
        rho[0] = -1.0
        fit = DensityFit(K=1, N=2, kappa=1.0, delta=0.1, rho=rho)
        with pytest.raises(UnusableFitError):
            l1_norm_plus(fit, 64)

    def test_cubic_with_sign_change(self):
        # h(x) = x^3 - x on [-2, 2]: integral of the positive part is 2.5
        kappa, N = 2.0, 3
        basis = legendre_basis(N, kappa)
        mono = np.array([0.0, -1.0, 0.0, 1.0])  # coefficients of x^j
        rho = np.linalg.solve(basis.scaled_coeffs.T, mono)
        fit = DensityFit(K=1, N=N, kappa=kappa, delta=0.1, rho=rho)
        got = l1_norm_plus(fit, 4096)
        assert got == pytest.approx(2.5, abs=1e-6)

    def test_resolution_guard(self):
        rho = np.zeros(3)
        rho[0] = 1.0
        fit = DensityFit(K=1, N=2, kappa=1.0, delta=0.1, rho=rho)
        with pytest.raises(ValueError):
            l1_norm_plus(fit, 8)


def two_block_moments(N: int) -> np.ndarray:
    """Exact P_ab of the two-block features: f_1 = 1, f_2 = +-1 with mass 1/2 each."""
    return np.array([[1.0 if b % 2 == 0 else 0.0 for b in range(N + 1)] for _ in range(N + 1)])


class TestFitNodes:
    def test_two_block_atoms_recovered(self):
        kappa, res = 1.1, 128
        fit = fit_nodes(table_from_entries(two_block_moments(4)), kappa, 2, res)
        spacing = 2 * kappa / res
        for atom in ((1.0, 1.0), (1.0, -1.0)):
            near = np.all(np.abs(fit.nodes - np.array(atom)) <= spacing, axis=1)
            assert fit.weights[near].sum() == pytest.approx(0.5, abs=0.05), atom

    def test_weights_nonnegative_and_normalised(self):
        rng = np.random.default_rng(5)
        M = mollify_moments(table_from_entries(two_block_moments(4)), mollifier_moments(0.2, 4))
        for M_in in (M, table_from_entries(M.entries + 0.05 * rng.standard_normal(M.entries.shape))):
            fit = fit_nodes(M_in, 1.4, 2, 64)
            assert np.all(fit.weights >= 0)
            assert fit.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert fit.nodes.shape == (fit.weights.size, 2)

    def test_reproduces_total_degree_moments(self):
        N, K = 4, 2
        alphas = total_degree_indices(K, N)
        assert len(alphas) == 15 and all(sum(a) <= N for a in alphas)
        for delta in (0.05, 0.2):
            M = mollify_moments(table_from_entries(two_block_moments(N)), mollifier_moments(delta, N))
            fit = fit_nodes(M, 1.3, K, 128, delta=delta)
            got = node_moments(fit.nodes, alphas) @ fit.weights
            want = np.array([M.value(a) for a in alphas])
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_grid_design_matrix_is_node_moments_bit_for_bit(self):
        kappa = 1.37
        for K, N in [(K, 4) for K in range(1, K_CAP + 1)] + [(K, 6) for K in range(1, 4)]:
            r, alphas = node_resolution(K), total_degree_indices(K, N)
            got = grid_moments(_midpoints(kappa, r), alphas)
            want = node_moments(grid_nodes(kappa, K, r), alphas)
            assert got.shape == want.shape == (len(alphas), r**K), (K, N)
            assert got.tobytes() == want.tobytes(), (K, N)

        K, N, r = 3, 4, node_resolution(3)
        atoms = np.array([[1.0, 0.9, 0.5], [1.0, -0.8, 0.3], [1.0, 0.1, -1.1]])
        alphas = total_degree_indices(K, N)
        values = np.array([np.mean(np.prod(atoms ** np.array(a), axis=1)) for a in alphas])
        table = MomentTable(K=K, N=N, pair_diagonal=np.ones(K), values=values)
        M = mollify_moments(table, mollifier_moments(0.2, N))
        fit = fit_nodes(M, kappa, K, r)
        grid = grid_nodes(kappa, K, r)
        w, _ = nnls(node_moments(grid, alphas), M.values)
        keep = np.flatnonzero(w > 0)
        assert keep.size > 1
        assert fit.nodes.tobytes() == grid[keep].tobytes()
        assert fit.weights.tobytes() == (w[keep] / w.sum()).tobytes()

    def test_total_degree_indices_match_product_filter(self):
        for K in range(5):
            for N in range(5):
                want = [a for a in itertools.product(range(N + 1), repeat=K) if sum(a) <= N]
                assert total_degree_indices(K, N) == want, (K, N)

    def test_node_budget_for_every_K(self):
        assert node_resolution(2) == SAMPLE_GRID
        for K in range(1, K_CAP + 1):
            r = node_resolution(K)
            assert 1 <= r <= SAMPLE_GRID and r**K <= NODE_BUDGET, K

    def test_records_its_least_squares_solves(self):
        M = mollify_moments(table_from_entries(two_block_moments(4)), mollifier_moments(0.2, 4))
        fit = fit_nodes(M, 1.3, 2, 64)
        assert fit.iterations >= fit.weights.size  # one solve at least per support node

    def test_non_finite_moments_rejected(self):
        M = two_block_moments(4)
        M[1, 2] = np.nan
        with pytest.raises(UnusableFitError, match="non-finite"):
            fit_nodes(table_from_entries(M), 1.3, 2, 16)

    def test_no_positive_weight_rejected(self):
        M = np.zeros((3, 3))
        M[0, 0] = -1.0  # only the zero vector is closest in the nonnegative cone
        with pytest.raises(UnusableFitError):
            fit_nodes(table_from_entries(M), 1.0, 2, 16)


class TestNnls:
    """The in-package Lawson-Hanson solver, with scipy's as the oracle."""

    @staticmethod
    def problems():
        rng = np.random.default_rng(12)
        for m, n in ((30, 8), (8, 30), (20, 20)):  # tall, wide, square
            for _ in range(10):
                yield rng.standard_normal((m, n)), rng.standard_normal(m)
        for rank in (1, 3, 6):  # rank-deficient, columns repeated
            for _ in range(10):
                A = rng.standard_normal((15, rank)) @ rng.standard_normal((rank, 12))
                yield np.hstack([A, A[:, :3]]), rng.standard_normal(15)

    def test_matches_scipy(self):
        from scipy.optimize import nnls as scipy_nnls

        for A, b in self.problems():
            x, rnorm = nnls(A, b)
            want, want_rnorm = scipy_nnls(A, b)
            assert rnorm == pytest.approx(want_rnorm, rel=1e-9, abs=1e-12)
            assert rnorm == pytest.approx(np.linalg.norm(A @ x - b), rel=1e-12, abs=1e-14)
            if np.linalg.matrix_rank(A) == A.shape[1]:  # unique minimiser
                np.testing.assert_allclose(x, want, atol=1e-9)

    def test_kkt_conditions(self):
        for A, b in self.problems():
            x, _ = nnls(A, b)
            dual = A.T @ (b - A @ x)
            tol = 1e-9 * np.linalg.norm(A) * np.linalg.norm(b)
            assert np.all(x >= 0)
            assert np.all(dual[x == 0] <= tol)
            np.testing.assert_allclose(dual[x > 0], 0.0, atol=tol)

    def test_b_against_every_column_gives_zero(self):
        rng = np.random.default_rng(3)
        A = np.abs(rng.standard_normal((12, 7)))
        b = -np.abs(rng.standard_normal(12))
        x, rnorm = nnls(A, b)
        np.testing.assert_array_equal(x, 0.0)
        assert nnls(A, b).iterations == 0
        assert rnorm == pytest.approx(np.linalg.norm(b), rel=1e-15)

    def test_grid_fit_support_matches_scipy(self):
        from scipy.optimize import nnls as scipy_nnls

        N, K = 4, 2
        alphas = total_degree_indices(K, N)
        A = node_moments(grid_nodes(1.3, K, 128), alphas)
        M = mollify_moments(table_from_entries(two_block_moments(N)), mollifier_moments(0.2, N))
        M = M.entries + 0.01 * np.random.default_rng(4).standard_normal(M.entries.shape)
        b = np.array([M[a] for a in alphas])
        assert A.shape == (15, 16384)
        x, rnorm = nnls(A, b)
        want, want_rnorm = scipy_nnls(A, b)
        np.testing.assert_array_equal(np.flatnonzero(x), np.flatnonzero(want))
        np.testing.assert_allclose(x, want, rtol=1e-8, atol=1e-12)
        assert rnorm == pytest.approx(want_rnorm, rel=1e-9)

    def test_exhausted_maxiter_rejected(self):
        rng = np.random.default_rng(6)
        A, b = rng.standard_normal((20, 10)), rng.standard_normal(20)
        assert nnls(A, b).iterations > 1
        with pytest.raises(UnusableFitError, match="within 1 least-squares solves"):
            nnls(A, b, maxiter=1)

    @pytest.mark.parametrize("where", ["A", "b"])
    def test_non_finite_input_rejected(self, where):
        A, b = np.eye(3), np.ones(3)
        (A if where == "A" else b)[1] = np.inf
        with pytest.raises(UnusableFitError, match="non-finite"):
            nnls(A, b)
