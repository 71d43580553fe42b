import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_forge.graphon_model import (
    GraphonValidationError,
    SpectralGraphon,
    StepGraphon,
    check_assumptions,
    fix_signs,
    load_graphon,
    save_graphon,
    scale,
    spectral_decompose,
)


def weighted_inner(s: SpectralGraphon, i: int, j: int) -> float:
    return float(np.sum(s.features[:, i] * s.features[:, j] * s.block_measures))


def truncated(s: SpectralGraphon, k: int) -> SpectralGraphon:
    """The top-k eigenpairs of s."""
    return SpectralGraphon(s.eigenvalues[:k], s.features[:, :k], s.degree_constant, s.block_measures)


def random_step_graphon(rng, k):
    m = rng.random(k) + 0.2
    m /= m.sum()
    w = rng.random((k, k)) * 5
    w = (w + w.T) / 2
    return StepGraphon(m, w)


class TestSpectralDecompose:
    def test_two_block_analytic(self, assortative_2block):
        s = spectral_decompose(assortative_2block)
        np.testing.assert_allclose(s.eigenvalues, [4.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(s.features, [[1.0, 1.0], [1.0, -1.0]], atol=1e-12)

    def test_constant_kernel(self):
        g = StepGraphon(np.array([1.0]), np.array([[5.0]]))
        s = spectral_decompose(g)
        np.testing.assert_allclose(s.eigenvalues, [5.0])
        np.testing.assert_allclose(s.features, [[1.0]])

    def test_matches_dense_oracle_three_blocks(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_step_graphon(rng, 3)
            d = np.sqrt(g.block_measures)
            oracle = np.linalg.eigvalsh(d[:, None] * g.values * d[None, :])
            oracle = oracle[np.argsort(-np.abs(oracle))]
            s = spectral_decompose(g)
            np.testing.assert_allclose(s.eigenvalues, oracle, atol=1e-10)

    def test_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_step_graphon(rng, 4)
            s = spectral_decompose(g)
            for i in range(4):
                for j in range(4):
                    want = 1.0 if i == j else 0.0
                    assert abs(weighted_inner(s, i, j) - want) <= 1e-9
            grid = 64
            np.testing.assert_allclose(s.kernel_grid(grid), g.kernel_grid(grid), atol=1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(GraphonValidationError):
            StepGraphon(np.array([0.5, 0.5]), np.array([[1.0, 2.0], [3.0, 1.0]]))

    def test_rejects_negative(self):
        with pytest.raises(GraphonValidationError):
            StepGraphon(np.array([0.5, 0.5]), np.array([[1.0, -2.0], [-2.0, 1.0]]))


class TestCheckAssumptions:
    def test_assortative(self, assortative_2block):
        rep = check_assumptions(assortative_2block, tol=1e-9)
        assert rep.M == 7.0
        assert rep.q == pytest.approx(4.0)
        assert rep.constant_degree
        assert rep.r0 == 2

    def test_boundary_kesten_stigum(self, weak_2block):
        # mu = (4, 2): 2 = sqrt(4) is not strictly above the bulk
        rep = check_assumptions(weak_2block)
        assert rep.r0 == 1

    def test_nonconstant_degree(self):
        g = StepGraphon(np.array([0.5, 0.5]), np.array([[8.0, 2.0], [2.0, 4.0]]))
        rep = check_assumptions(g)
        assert not rep.constant_degree
        np.testing.assert_allclose(sorted(rep.q_per_block), [3.0, 5.0])

    def test_perron_eigenfunction_constant_under_assumption2(self, assortative_2block):
        s = spectral_decompose(assortative_2block)
        assert np.ptp(s.features[:, 0]) <= 1e-9
        assert s.eigenvalues[0] == pytest.approx(s.degree_constant, abs=1e-9)


class TestRankTruncate:
    """Top-k truncations sliced from the decomposition."""

    def test_identity_at_full_rank(self, assortative_2block):
        s = spectral_decompose(assortative_2block)
        t = truncated(s, 2)
        np.testing.assert_allclose(t.eigenvalues, s.eigenvalues)
        np.testing.assert_allclose(t.kernel_grid(16), assortative_2block.kernel_grid(16), atol=1e-12)

    def test_rank_one_is_constant(self, assortative_2block):
        t = truncated(spectral_decompose(assortative_2block), 1)
        grid = t.kernel_grid(16)
        np.testing.assert_allclose(grid, 4.0, atol=1e-12)

    def test_dropped_eigenvalue_is_l2_error(self):
        # equal block measures so the quadrature grid aligns with the blocks
        rng = np.random.default_rng(2)
        w = rng.random((3, 3)) * 5
        g = StepGraphon(np.full(3, 1 / 3), (w + w.T) / 2)
        s = spectral_decompose(g)
        t = truncated(s, 2)
        g_grid = 3 * 128
        err = np.sqrt(np.mean((g.kernel_grid(g_grid) - t.kernel_grid(g_grid)) ** 2))
        assert abs(err - abs(s.eigenvalues[2])) <= 1e-9


class TestScaleAndEvaluate:
    def test_scale_identity(self, assortative_2block):
        h1 = scale(assortative_2block, 1.0)
        np.testing.assert_array_equal(h1.values, assortative_2block.values)

    def test_scale_crosses_threshold(self, weak_2block):
        rep = check_assumptions(scale(weak_2block, 4.0))
        np.testing.assert_allclose(rep.eigenvalues, [16.0, 8.0], atol=1e-12)
        assert rep.r0 == 2

    def test_scale_half(self, assortative_2block):
        s = spectral_decompose(scale(assortative_2block, 0.5))
        np.testing.assert_allclose(s.eigenvalues, [2.0, 1.5], atol=1e-12)

    def test_scale_rejects_nonpositive(self, assortative_2block):
        with pytest.raises(GraphonValidationError):
            scale(assortative_2block, 0.0)

    def test_scale_commutes_with_decompose(self):
        rng = np.random.default_rng(3)
        g = random_step_graphon(rng, 3)
        h = 2.7
        a = spectral_decompose(scale(g, h)).eigenvalues
        b = spectral_decompose(g).eigenvalues * h
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_evaluate_block_lookup(self, assortative_2block):
        assert assortative_2block.evaluate(0.2, 0.8) == 1.0
        assert assortative_2block.evaluate(0.2, 0.3) == 7.0
        s = spectral_decompose(assortative_2block)
        assert s.evaluate(0.2, 0.8) == pytest.approx(1.0, abs=1e-12)

    def test_evaluate_rejects_out_of_range(self, assortative_2block):
        with pytest.raises(GraphonValidationError):
            assortative_2block.evaluate(1.2, 0.5)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_property_scale_then_decompose(k, seed, h):
    rng = np.random.default_rng(seed)
    g = random_step_graphon(rng, k)
    scaled_eigs = spectral_decompose(scale(g, h)).eigenvalues
    np.testing.assert_allclose(scaled_eigs, spectral_decompose(g).eigenvalues * h, atol=1e-9)


def test_json_round_trip(tmp_path, assortative_2block):
    p = tmp_path / "g.json"
    save_graphon(assortative_2block, p)
    g = load_graphon(p)
    np.testing.assert_array_equal(g.values, assortative_2block.values)
    np.testing.assert_array_equal(g.block_measures, assortative_2block.block_measures)


def reference_fix_signs(vectors):
    """The sign rule as a copying loop: flip a column whose first entry above 1e-12 of its max modulus is negative."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        big = np.nonzero(np.abs(col) > 1e-12 * max(np.abs(col).max(), 1e-300))[0]
        if big.size and col[big[0]] < 0:
            out[:, j] = -col
    return out


def test_fix_signs_flips_in_place_as_the_reference_rule():
    rng = np.random.default_rng(7)
    specials = np.array([0.0, -0.0, 1e-300, -1e-300, 1e-14, -1e-14, 5e-13, -5e-13])
    for case in range(600):
        rows, cols = rng.integers(1, 9, size=2)
        v = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-320, 5)
        pick = rng.random(v.shape) < rng.random()  # anywhere from no entry to every entry
        v[pick] = rng.choice(specials, size=int(pick.sum()))
        if case % 3 == 0:
            v = np.asfortranarray(v)
        want = reference_fix_signs(v)
        fix_signs(v)
        assert v.tobytes() == want.tobytes(), case
