import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import linalg

from graphon_forge import nonbacktracking
from graphon_forge.graph_sampler import SparseGraph, sample_graph, split_edges
from graphon_forge.graphon_model import StepGraphon
from graphon_forge.nonbacktracking import (
    DENSE_FALLBACK_DIM,
    K_CAP,
    Companion,
    DegenerateSpectrumError,
    SpectrumConvergenceError,
    _two_core,
    bulk_cutoff,
    classify_eigenvalues,
    default_e1,
    top_spectrum,
    vertex_aggregates,
)
from graphon_forge.pipeline import default_epsilon
from graphon_forge.rng import substream
from tests.conftest import oriented_edges, peel_to_two_core, random_simple_graph
from tests.oracles import build_nb_operator, dense_adjacency, dense_nb_matrix, ihara_bass_dense

PATH3 = SparseGraph(3, np.array([[0, 1], [1, 2]]))
TRIANGLE = SparseGraph(3, np.array([[0, 1], [0, 2], [1, 2]]))


def brute_force_nb_matrix(gr: SparseGraph) -> np.ndarray:
    """Independent construction straight from the indicator definition."""
    tails, heads = oriented_edges(gr)
    m = tails.size
    out = np.zeros((m, m))
    for f in range(m):
        for e in range(m):
            feeds = heads[e] == tails[f]
            reverses = tails[e] == heads[f] and heads[e] == tails[f]
            out[f, e] = 1.0 if feeds and not reverses else 0.0
    return out


class TestOperator:
    def test_matches_definition_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(4, 12))
            edges = random_simple_graph(rng, n, 0.4)
            if edges.shape[0] == 0:
                continue
            gr = SparseGraph(n, edges)
            op = build_nb_operator(gr)
            np.testing.assert_allclose(dense_nb_matrix(op), brute_force_nb_matrix(gr), atol=0)

    def test_path_is_nilpotent(self):
        op = build_nb_operator(PATH3)
        x = np.arange(1.0, 5.0)
        np.testing.assert_allclose(op.matvec(op.matvec(x)), 0.0, atol=1e-15)

    def test_triangle_spectrum(self):
        w = np.linalg.eigvals(dense_nb_matrix(build_nb_operator(TRIANGLE)))
        omega = np.exp(2j * np.pi / 3)
        expected = np.array([1, 1, omega, omega, omega.conjugate(), omega.conjugate()])
        np.testing.assert_allclose(
            np.sort_complex(np.round(w, 12)), np.sort_complex(expected), atol=1e-9
        )

    def test_disjoint_union_is_block_diagonal(self):
        two = SparseGraph(6, np.array([[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]]))
        op = build_nb_operator(two)
        one = build_nb_operator(TRIANGLE)
        x = np.arange(1.0, 13.0)
        got = op.matvec(x)
        np.testing.assert_allclose(got[:6], one.matvec(x[:6]), atol=0)
        np.testing.assert_allclose(got[6:], one.matvec(x[6:]), atol=0)

    def test_matvec_equals_explicit_sparse_multiply(self):
        from scipy import sparse

        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(5, 24))
            edges = random_simple_graph(rng, n, 0.3)
            if edges.shape[0] == 0:
                continue
            gr = SparseGraph(n, edges)
            op = build_nb_operator(gr)
            if op.dim > 1000:
                continue
            mat = sparse.csr_matrix(dense_nb_matrix(op))
            x = rng.standard_normal(op.dim)
            np.testing.assert_allclose(op.matvec(x), mat @ x, atol=1e-12)

    def test_block_apply_matches_per_column_bincount(self):
        # reference: per-vertex incoming sums by bincount, one column at a time
        gr, _ = sample_graph(StepGraphon(np.array([1.0]), np.array([[4.0]])), 2000, seed=5)
        op = build_nb_operator(gr, scale=1.7)
        tails, heads = oriented_edges(gr)
        rev = np.bitwise_xor(np.arange(op.dim), 1)
        X = np.random.default_rng(2).standard_normal((op.dim, 6))
        want = np.stack(
            [
                (np.bincount(heads, weights=x, minlength=gr.n)[tails] - x[rev]) * 1.7
                for x in X.T
            ],
            axis=1,
        )
        np.testing.assert_array_equal(op.matmat(X), want)
        np.testing.assert_array_equal(op.matvec(X[:, 0]), want[:, 0])

    def test_scale_multiplies(self):
        op1 = build_nb_operator(TRIANGLE)
        op2 = build_nb_operator(TRIANGLE, scale=2.5)
        x = np.arange(1.0, 7.0)
        np.testing.assert_allclose(op2.matvec(x), 2.5 * op1.matvec(x), atol=0)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            build_nb_operator(SparseGraph(3, np.empty((0, 2), dtype=np.int64)))


class TestVertexAggregates:
    def test_single_edge(self):
        gr = SparseGraph(2, np.array([[0, 1]]))
        # oriented order: (0->1), (1->0)
        xi = np.array([[2.0], [5.0]])
        agg = vertex_aggregates(xi, gr)
        assert agg[0, 0] == 5.0  # edges with head 0: (1->0)
        assert agg[1, 0] == 2.0

    def test_total_mass_identity(self):
        rng = np.random.default_rng(2)
        gr = SparseGraph(8, random_simple_graph(rng, 8, 0.5))
        xi = rng.standard_normal((2 * gr.m, 3))
        agg = vertex_aggregates(xi, gr)
        np.testing.assert_allclose(agg.sum(axis=0), xi.sum(axis=0), atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            edges = random_simple_graph(rng, n, 0.5)
            if edges.shape[0] == 0:
                continue
            gr = SparseGraph(n, edges)
            heads = oriented_edges(gr)[1]
            xi = rng.standard_normal(heads.size)
            want = np.zeros(n)
            for e in range(heads.size):
                want[heads[e]] += xi[e]
            np.testing.assert_allclose(vertex_aggregates(xi, gr)[:, 0], want, atol=1e-12)


def spectrum_oracle(gr: SparseGraph, n: int, e1=None, bulk_scale=1.0):
    """Dense-eigensolve reference for the accepted set."""
    w = np.linalg.eigvals(dense_nb_matrix(build_nb_operator(gr)))
    e1 = default_e1(n) if e1 is None else e1
    lam1, accepted, cutoff = classify_eigenvalues(w, e1, bulk_scale=bulk_scale)
    lams = np.array(sorted((w[i].real for i in accepted), key=lambda t: -abs(t)))
    return lam1, lams, cutoff


class TestTopSpectrum:
    def test_matches_dense_oracle_small_graphs(self):
        rng = np.random.default_rng(4)
        done = 0
        while done < 40:
            n = int(rng.integers(12, 31))
            c = rng.uniform(2.5, 6.0)
            gr = SparseGraph(n, random_simple_graph(rng, n, c / n))
            if gr.m < 8:
                continue
            try:
                lam1, lams, _ = spectrum_oracle(gr, n)
            except DegenerateSpectrumError:
                continue
            spec = top_spectrum(gr, seed=done)
            assert spec.K == lams.size
            np.testing.assert_allclose(spec.lambdas, lams, atol=1e-8)
            assert spec.residuals.size == 0 or spec.residuals.max() <= 1e-6
            done += 1

    def test_dense_fallback_matches_oracle_on_tiny_graphs(self):
        rng = np.random.default_rng(9)
        ks = []
        while len(ks) < 60:
            n = int(rng.integers(3, 13))
            edges = random_simple_graph(rng, n, rng.uniform(0.15, 0.7))
            if edges.shape[0] == 0 or 2 * edges.shape[0] > DENSE_FALLBACK_DIM:
                continue
            gr = SparseGraph(n, edges)
            mags = np.sort(np.abs(np.linalg.eigvals(dense_nb_matrix(build_nb_operator(gr)))))
            if mags[-1] - mags[-2] <= 1e-6 * max(mags[-1], 1.0):
                continue  # tied leading modulus: the accepted set is decided by rounding
            _, lams, _ = spectrum_oracle(gr, n)
            spec = top_spectrum(gr, seed=len(ks))
            assert spec.iterations == spec.start_block == 0  # solved densely
            assert spec.iterated_dim <= DENSE_FALLBACK_DIM
            assert spec.K == lams.size
            np.testing.assert_allclose(spec.lambdas, lams, atol=1e-10)
            assert spec.residuals.size == 0 or spec.residuals.max() <= 1e-8
            ks.append(spec.K)
        assert 0 in ks and max(ks) >= 1

    def test_dense_fallback_where_companion_differs(self, monkeypatch):
        # 2m = 20: B's bulk has a fourfold eigenvalue 1 and two pairs at +-1.414i,
        # on which the companion iteration fails to settle from these start blocks
        edges = [[0, 4], [1, 2], [1, 3], [1, 4], [1, 5], [3, 5], [3, 6], [4, 5], [4, 6], [5, 6]]
        gr = SparseGraph(7, np.array(edges))
        _, lams, _ = spectrum_oracle(gr, gr.n)
        assert lams.size == 1
        seeds = (0, 1, 2)
        for seed in seeds:
            spec = top_spectrum(gr, seed=seed)
            assert spec.iterations == 0 and spec.iterated_dim == 10  # the 2-core companion, solved densely
            np.testing.assert_allclose(spec.lambdas, lams, atol=1e-10)
        monkeypatch.setattr(nonbacktracking, "DENSE_FALLBACK_DIM", 0)
        differs = 0
        for seed in seeds:
            try:
                spec = top_spectrum(gr, seed=seed)
            except (SpectrumConvergenceError, DegenerateSpectrumError):
                differs += 1
                continue
            differs += spec.K != lams.size or not np.allclose(spec.lambdas, lams, atol=1e-8)
        assert differs >= 1

    def test_residuals_and_unit_norm(self, assortative_2block):
        gr, _ = sample_graph(assortative_2block, 20000, seed=0)
        spec = top_spectrum(gr, seed=0)
        assert spec.K == 2
        assert spec.residuals.max() <= 1e-6

    def test_k_monotone_in_e1(self, assortative_2block):
        gr, _ = sample_graph(assortative_2block, 20000, seed=1)
        ks = [top_spectrum(gr, e1_override=e1, seed=1).K for e1 in (0.05, 0.3, 1.0, 2.5)]
        assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_lambda1_estimates_degree(self, assortative_2block):
        hits = 0
        for seed in range(3):
            gr, _ = sample_graph(assortative_2block, 50000, seed=30 + seed)
            spec = top_spectrum(gr, seed=seed)
            hits += abs(spec.lambdas[0] - 4.0) <= 0.5
        assert hits >= 2

    def test_degenerate_on_forest(self):
        with pytest.raises(DegenerateSpectrumError):
            top_spectrum(PATH3, seed=0)

    def test_aggregates_shape(self, assortative_2block):
        gr, _ = sample_graph(assortative_2block, 20000, seed=2)
        spec = top_spectrum(gr, seed=2)
        assert spec.vertex_aggregates.shape == (20000, spec.K)
        core_size = int(np.count_nonzero(peel_to_two_core(gr.n, gr.edges)[0]))
        assert spec.core_vertices == core_size < 20000
        assert spec.iterated_dim == 2 * core_size and spec.iterations > 0

    @pytest.mark.parametrize(
        "model, h, extra", [("assortative_2block", 1.0, 1), ("weak_2block", 8.0, 0)]
    )
    def test_matches_arpack_on_oriented_edges(self, request, model, h, extra):
        # reference: ARPACK on the rescaled operator B itself, over the 2m oriented
        # edges; at h = 8 only the top K, as its bulk converges slowly
        from scipy.sparse.linalg import LinearOperator, eigs

        n = 3000
        model = request.getfixturevalue(model)
        gr, _ = sample_graph(StepGraphon(model.block_measures, h * model.values), n, seed=0)
        eps = default_epsilon(n)
        g1, _ = split_edges(gr, eps, seed=0)
        scale = 1.0 / (1.0 - eps)
        op = build_nb_operator(g1, scale=scale)
        spec = top_spectrum(g1, scale=scale, seed=0)
        assert spec.K >= 1
        lo = LinearOperator((op.dim, op.dim), matvec=op.matvec, dtype=float)
        w, V = eigs(lo, k=spec.K + extra, ncv=40, which="LM", tol=1e-13, v0=np.ones(op.dim))
        order = np.argsort(-np.abs(w))
        w, V = w[order], V[:, order]
        np.testing.assert_allclose(spec.lambdas, w[: spec.K].real, rtol=0, atol=1e-8)
        np.testing.assert_allclose(w[: spec.K].imag, 0.0, atol=1e-8)
        if extra:
            assert abs(w[spec.K]) < spec.cutoff
        for k in range(spec.K):
            v = V[:, k] * np.exp(-1j * np.angle(V[np.argmax(np.abs(V[:, k])), k]))
            v = v.real / np.linalg.norm(v.real)
            if v[np.flatnonzero(np.abs(v) > 1e-12 * np.abs(v).max())[0]] < 0:
                v = -v
            want = vertex_aggregates(v, g1)[:, 0]
            got = spec.vertex_aggregates[:, k]
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    @pytest.mark.parametrize("scale", [1.0, 1.7])
    def test_radius_at_most_one_is_degenerate(self, scale):
        paths = np.array([[5 * p + i, 5 * p + i + 1] for p in range(20) for i in range(4)])
        cycle = np.array([[i, i + 1] for i in range(99)] + [[0, 99]])
        for gr in (SparseGraph(100, paths), SparseGraph(100, cycle)):
            op = build_nb_operator(gr, scale=scale)
            assert op.dim > DENSE_FALLBACK_DIM
            for seed in (0, 1):  # refused before any iteration, whatever the start block
                with pytest.raises(DegenerateSpectrumError, match="radius is at most 1"):
                    top_spectrum(gr, scale=scale, seed=seed)

    def test_radius_check_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(400):
            n = int(rng.integers(3, 14))
            edges = random_simple_graph(rng, n, rng.uniform(0.1, 0.5))
            if edges.shape[0] == 0:
                continue
            gr = SparseGraph(n, edges)
            radius = np.abs(np.linalg.eigvals(dense_nb_matrix(build_nb_operator(gr)))).max()
            got = bool(_two_core(gr)[1].max(initial=0) >= 3)
            assert got == (radius > 1 + 1e-6), (edges.tolist(), radius)
            seen.add(got)
        assert seen == {True, False}

    def test_complex_bulk_pair_does_not_stall(self, assortative_2block, monkeypatch):
        # graph seed 4 at n = 3e4 has a complex bulk Ritz pair just above the
        # cutoff, which can hold the stop rule open; its 70 iterations are 70
        # cubes of three recurrence steps each plus 14 extraction applies of
        # one step each, of which the first 13 are also the first step of the
        # next cube: 211 steps
        n, seed = 30000, 4
        gr, _ = sample_graph(assortative_2block, n, seed=seed)
        eps = default_epsilon(n)
        g1, _ = split_edges(gr, eps, seed=seed)
        scale = 1.0 / (1.0 - eps)
        steps = []
        step = Companion.step

        def counted(self, cur, prev):
            steps.append(1)
            return step(self, cur, prev)

        monkeypatch.setattr(Companion, "step", counted)
        spec = top_spectrum(g1, scale=scale, seed=seed)
        assert spec.K == 2
        assert len(steps) <= 400

    def test_bulk_pair_under_the_cutoff_does_not_stall(self, assortative_2block):
        # n = 1e4, graph seed 0: a bulk pair 2.16 +- 1.55i (modulus 2.66) sits
        # under the cutoff 2.80 and once held the stop rule open for 335 iterations
        n, seed = 10000, 0
        gr, _ = sample_graph(assortative_2block, n, seed=seed)
        eps = default_epsilon(n)
        g1, _ = split_edges(gr, eps, seed=seed)
        scale = 1.0 / (1.0 - eps)
        spec = top_spectrum(g1, scale=scale, seed=seed)
        assert spec.K == 2
        assert spec.iterations <= 150

    def test_block_is_cut_while_the_guard_climbs(self, assortative_2block, monkeypatch):
        # n = 2e4, graph seed 0: K = 2 holds from iteration 10 on while the third
        # Ritz value still climbs toward the bulk edge; the block is cut at the
        # third stable round, after 20 cubes and 4 extraction applies, the first
        # 3 of which were also the first step of the next cube: 3 * 20 + 1
        # steps, with that value as the guard
        n, seed = 20000, 0
        gr, _ = sample_graph(assortative_2block, n, seed=seed)
        eps = default_epsilon(n)
        g1, _ = split_edges(gr, eps, seed=seed)
        scale = 1.0 / (1.0 - eps)
        steps, cuts = [], []
        step, leading = Companion.step, nonbacktracking._leading_basis

        def counted(self, cur, prev):
            steps.append(1)
            return step(self, cur, prev)

        def cut(H, guard):
            cuts.append((len(steps), guard))
            return leading(H, guard)

        monkeypatch.setattr(Companion, "step", counted)
        monkeypatch.setattr(nonbacktracking, "_leading_basis", cut)
        spec = top_spectrum(g1, scale=scale, seed=seed)
        assert (spec.K, spec.start_block, spec.block) == (2, 6, 3)
        assert len(cuts) == 1 and cuts[0][0] == 3 * 20 + 1
        assert spec.cutoff > abs(cuts[0][1]) > 0.4 * spec.cutoff

    def test_sparse_orthonormalization_keeps_the_eigenvalues(self, weak_2block, monkeypatch):
        # dense-scaled-h8's graph: lambda_1 / cutoff is about 4, so the QR
        # period is between 1 and EXTRACT_EVERY; the lambdas must match a run
        # that orthonormalizes after every cube
        n, seed = 12000, 0
        dense = StepGraphon(weak_2block.block_measures, 8.0 * weak_2block.values)
        gr, _ = sample_graph(dense, n, seed=seed)
        eps = default_epsilon(n)
        g1, _ = split_edges(gr, eps, seed=seed)
        scale = 1.0 / (1.0 - eps)
        spec = top_spectrum(g1, scale=scale, seed=seed)
        assert 3 < spec.lambdas[0] / spec.cutoff < 5
        period = nonbacktracking._qr_period(spec.lambdas[0], spec.cutoff)
        assert 1 < period < nonbacktracking.EXTRACT_EVERY
        monkeypatch.setattr(nonbacktracking, "_qr_period", lambda lam1, cutoff: 1)
        every = top_spectrum(g1, scale=scale, seed=seed)
        assert every.K == spec.K == 2 and every.iterations == spec.iterations
        assert every.orthonormalizations == spec.iterations + 1 > spec.orthonormalizations
        np.testing.assert_allclose(spec.lambdas, every.lambdas, rtol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2, pytest.param(None, id="dense")])
    def test_near_multiplicity_is_reorthonormalized(self, seed, monkeypatch):
        # two disjoint copies of K_6: lambda = 4 twice, eigenspace spanned by
        # the all-ones vectors of each copy's 30 oriented edges
        edges = [(u + o, v + o) for o in (0, 6) for u, v in itertools.combinations(range(6), 2)]
        gr = SparseGraph(12, np.array(edges))
        if seed is not None:  # the subspace iteration, from a seeded start block
            monkeypatch.setattr(nonbacktracking, "DENSE_FALLBACK_DIM", 0)
        spec = top_spectrum(gr, seed=0 if seed is None else seed)
        assert spec.iterated_dim == 24 and (spec.iterations > 0) == (seed is not None)
        assert spec.K == 2
        np.testing.assert_allclose(spec.lambdas, [4.0, 4.0], rtol=1e-12)
        assert spec.warnings == (
            "near-multiplicity among lambda_1..lambda_2: eigenvector basis ambiguous",
        )
        assert spec.residuals.max() <= 1e-12
        # orthonormal eigenvectors in the cluster's span: each vertex has 5
        # in-edges, so the aggregates are constant per copy with Gram matrix 5 I
        agg = spec.vertex_aggregates
        np.testing.assert_allclose(agg[:6], np.broadcast_to(agg[0], (6, 2)), atol=1e-12)
        np.testing.assert_allclose(agg[6:], np.broadcast_to(agg[6], (6, 2)), atol=1e-12)
        np.testing.assert_allclose(agg.T @ agg, 5.0 * np.eye(2), atol=1e-10)


def pendant_graph() -> SparseGraph:
    """K_4 on 0..3 with a three-edge path off each vertex, a 4-leaf star and a lone edge."""
    edges = [[u, v] for u, v in itertools.combinations(range(4), 2)]
    for c in range(4):
        path = [c, 4 + 3 * c, 5 + 3 * c, 6 + 3 * c]
        edges += [sorted(e) for e in zip(path, path[1:])]
    edges += [[16, leaf] for leaf in range(17, 21)] + [[21, 22]]
    return SparseGraph(23, np.array(edges))


class TestTwoCore:
    def test_matches_per_vertex_peeling(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            n = int(rng.integers(5, 60))
            gr = SparseGraph(n, random_simple_graph(rng, n, rng.uniform(1.0, 3.5) / n))
            alive, degree, rounds = _two_core(gr)
            want_degree, want_rounds = peel_to_two_core(n, gr.edges)
            np.testing.assert_array_equal(degree, want_degree)
            core = want_degree > 0
            np.testing.assert_array_equal(alive, core[gr.edges[:, 0]] & core[gr.edges[:, 1]])
            assert [dict(zip(v.tolist(), p.tolist())) for v, p in rounds] == want_rounds

    @pytest.mark.parametrize(
        "scale, dense",
        [(1.0, False), (1.7, False), (1.0, True), (1.7, True)],
        ids=["1.0", "1.7", "1.0-dense", "1.7-dense"],
    )
    def test_pendant_trees_are_extended_exactly(self, scale, dense, monkeypatch):
        gr = pendant_graph()
        op = build_nb_operator(gr, scale=scale)
        w = np.linalg.eigvals(dense_nb_matrix(op))
        _, accepted, _ = classify_eigenvalues(w, default_e1(gr.n), bulk_scale=scale)
        if not dense:
            monkeypatch.setattr(nonbacktracking, "DENSE_FALLBACK_DIM", 0)
        spec = top_spectrum(gr, scale=scale, seed=0)
        assert (spec.iterations > 0) != dense
        assert (spec.core_vertices, spec.iterated_dim, spec.peel_rounds) == (4, 8, 3)
        assert spec.K == len(accepted) == 1
        np.testing.assert_allclose(spec.lambdas, w[accepted].real, rtol=0, atol=1e-10)
        assert spec.residuals.max() <= 1e-8  # on the full B
        # a(v) = a(parent) / lambda down each path; the core end is as accurate
        # as the Ritz vector, whose companion residual is within RESIDUAL_TOL
        a, lam = spec.vertex_aggregates[:, 0], spec.lambdas[0] / scale
        for c in range(4):
            path = [c, 4 + 3 * c, 5 + 3 * c, 6 + 3 * c]
            np.testing.assert_allclose(a[path[1:]], a[path[:-1]] / lam, rtol=1e-8, atol=0)
        assert np.all(a[16:] == 0.0)  # the star and the lone edge: tree-only components
        # the dense oracle's unit top eigenvector of B, sign fixed as top_spectrum's
        w, V = np.linalg.eig(dense_nb_matrix(op))
        xi = V[:, np.argmax(w.real)].real
        xi /= np.linalg.norm(xi)
        xi = -xi if xi[np.flatnonzero(np.abs(xi) > 1e-12 * np.abs(xi).max())[0]] < 0 else xi
        np.testing.assert_allclose(a, vertex_aggregates(xi, gr)[:, 0], rtol=0, atol=1e-8)

    def test_leafless_graph_iterates_on_its_own_space(self, monkeypatch):
        # K_5 and K_4 apart, and an isolated vertex: nothing to peel
        edges = [[u, v] for k, o in ((5, 0), (4, 5)) for u, v in itertools.combinations(range(o, o + k), 2)]
        gr = SparseGraph(10, np.array(edges))
        monkeypatch.setattr(nonbacktracking, "DENSE_FALLBACK_DIM", 0)  # its companion (20) would be solved densely
        graphs = []

        class Recorded(Companion):
            def __post_init__(self):
                graphs.append(self.graph)
                super().__post_init__()

        monkeypatch.setattr(nonbacktracking, "Companion", Recorded)
        spec = top_spectrum(gr, seed=0)
        assert len(graphs) == 1 and graphs[0].n == gr.n
        np.testing.assert_array_equal(graphs[0].edges, gr.edges)
        assert (spec.core_vertices, spec.iterated_dim, spec.peel_rounds) == (10, 20, 0)
        assert spec.iterations > 0
        _, lams, _ = spectrum_oracle(gr, gr.n)
        assert spec.K == lams.size == 1
        np.testing.assert_allclose(spec.lambdas, lams, rtol=0, atol=1e-10)
        assert spec.residuals.max() <= 1e-8


def complete_bipartite(a: int, b: int, drop=()) -> SparseGraph:
    """K_{a,b} on vertices 0..a-1 and a..a+b-1, less the edges listed by index in `drop`."""
    edges = [[i, a + j] for i in range(a) for j in range(b)]
    return SparseGraph(a + b, np.array([e for k, e in enumerate(edges) if k not in drop]))


def test_classify_keeps_at_most_K_CAP_and_takes_the_scale_by_keyword():
    w = 100.0 + np.arange(2 * K_CAP, 0, -1)  # every entry far above the cutoff
    _, accepted, _ = classify_eigenvalues(w, 0.1)
    assert accepted == list(range(K_CAP))
    with pytest.raises(TypeError):
        classify_eigenvalues(w, 0.1, 8)  # a stale cap must not pass as bulk_scale


class TestBipartiteTies:
    """On a bipartite graph -lambda_1 is an eigenvalue too, tied in modulus with lambda_1."""

    def test_tie_is_broken_toward_the_real_positive_entry(self):
        w = np.array([-2.0, 1j * 2.0, -1j * 2.0, 2.0 * (1 - 1e-9), 0.5])
        lam1, accepted, cutoff = classify_eigenvalues(w, 0.1)
        assert lam1 == w[3].real and accepted == [3, 0]
        assert cutoff == bulk_cutoff(lam1, 0.1)
        # without a tie, a negative leading entry is still refused
        with pytest.raises(DegenerateSpectrumError):
            classify_eigenvalues(np.array([-2.0, 2.0 * (1 - 1e-5), 0.5]), 0.1)

    @pytest.mark.parametrize("a, b, drop", [(2, 4, ()), (3, 4, (0, 5))])
    def test_tied_graphs_are_not_refused(self, a, b, drop):
        gr = complete_bipartite(a, b, drop)
        op = build_nb_operator(gr)
        assert op.dim <= DENSE_FALLBACK_DIM
        w = np.linalg.eigvals(dense_nb_matrix(op))
        mags = np.abs(w)
        assert np.sum(mags >= mags.max() * (1 - 1e-9)) >= 2
        lam1, _, _ = classify_eigenvalues(w, default_e1(gr.n))
        assert lam1 == pytest.approx(w.real.max(), rel=1e-12)
        assert top_spectrum(gr, seed=0).K == 0  # +-lambda_1 stay under the cutoff

    @pytest.mark.parametrize("a, b", [(3, 4), (3, 5), (4, 5)])  # companions of dimension 14-18
    def test_both_signs_accepted_keep_their_eigenvectors(self, a, b, monkeypatch):
        gr = complete_bipartite(a, b)
        root = np.sqrt((a - 1) * (b - 1))
        for dense in (True, False):  # each companion is solved densely unless the fallback is off
            if not dense:
                monkeypatch.setattr(nonbacktracking, "DENSE_FALLBACK_DIM", 0)
            spec = top_spectrum(gr, seed=0)
            assert (spec.iterations > 0) != dense
            np.testing.assert_allclose(spec.lambdas, [root, -root], rtol=1e-10)
            assert spec.residuals.max() <= 1e-8 and not spec.warnings


class TestIharaBass:
    def test_triangle_contains_nb_spectrum(self):
        w = np.linalg.eigvals(ihara_bass_dense(TRIANGLE))
        nbw = np.linalg.eigvals(dense_nb_matrix(build_nb_operator(TRIANGLE)))
        np.testing.assert_allclose(
            np.sort_complex(np.round(w, 10)), np.sort_complex(np.round(nbw, 10)), atol=1e-8
        )

    def test_path_nonunit_eigenvalues_vanish(self):
        w = np.linalg.eigvals(ihara_bass_dense(PATH3))
        nonunit = w[np.abs(np.abs(w) - 1.0) > 1e-8]
        np.testing.assert_allclose(nonunit, 0.0, atol=1e-8)

    def test_matches_nb_on_random_graphs(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 20:
            n = int(rng.integers(8, 31))
            gr = SparseGraph(n, random_simple_graph(rng, n, 3.5 / n))
            if gr.m < 6:
                continue
            wb = np.linalg.eigvals(dense_nb_matrix(build_nb_operator(gr)))
            wc = np.linalg.eigvals(ihara_bass_dense(gr))
            top_b = np.sort([abs(x) for x in wb if abs(abs(x) - 1) > 1e-6])[::-1][:3]
            top_c = np.sort([abs(x) for x in wc if abs(abs(x) - 1) > 1e-6])[::-1][:3]
            k = min(top_b.size, top_c.size)
            np.testing.assert_allclose(top_b[:k], top_c[:k], atol=1e-8)
            done += 1

    def test_operator_matches_dense(self):
        rng = np.random.default_rng(6)
        gr = SparseGraph(10, random_simple_graph(rng, 10, 0.4))
        lo = Companion(gr)
        dense = ihara_bass_dense(gr)
        x = rng.standard_normal(2 * gr.n)
        np.testing.assert_allclose(lo @ x, dense @ x, atol=1e-12)
        X = rng.standard_normal((2 * gr.n, 4))
        scaled = Companion(gr, scale=1.7)
        np.testing.assert_allclose(scaled.matmat(X), 1.7 * dense @ X, atol=1e-12)

    def test_lift_gives_nb_eigenvectors(self):
        rng = np.random.default_rng(8)
        done = 0
        while done < 10:
            n = int(rng.integers(8, 25))
            gr = SparseGraph(n, random_simple_graph(rng, n, 4.0 / n))
            if gr.m < 6:
                continue
            op = build_nb_operator(gr, scale=1.3)
            comp = Companion(gr, scale=1.3)
            w, V = np.linalg.eig(comp.matmat(np.eye(comp.dim)))
            i = int(np.argmax(w.real))
            if abs(w[i].imag) > 1e-9 or w[i].real <= 1.3 + 1e-6:
                continue
            xi = nonbacktracking._lift(gr, V[: gr.n, [i]].real, w[[i]].real / 1.3)[:, 0]
            assert np.linalg.norm(xi) == pytest.approx(1.0)
            np.testing.assert_allclose(op.matvec(xi), w[i].real * xi, atol=1e-10)
            done += 1

    @pytest.mark.parametrize("scale", [1.0, 1.7])
    def test_cube_is_three_applies(self, scale):
        rng = np.random.default_rng(10)
        # vertex 30 is a leaf on vertex 0, and 31 and 32 are isolated, so I - D has 0 and 1
        edges = np.concatenate([random_simple_graph(rng, 30, 0.15), [[0, 30]]])
        gr = SparseGraph(33, edges)
        assert {0, 1} <= set(np.bincount(oriented_edges(gr)[1], minlength=33).tolist())
        comp = Companion(gr, scale=scale)
        n = gr.n
        Q = rng.standard_normal((comp.dim, 5))
        want = comp.matmat(comp.matmat(comp.matmat(Q)))
        cur, prev = Q[:n].copy(), Q[n:] / scale  # [x_0; s x_{-1}] = Q
        for _ in range(3):
            start = cur.copy()
            nxt = comp.step(cur, prev)
            assert nxt is prev  # written over x_{t-1}
            np.testing.assert_array_equal(cur, start)
            cur, prev = nxt, cur
        got = np.concatenate([cur, scale * prev])  # [x_3; s x_2]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("scale", [1.0, 1.7])
    @pytest.mark.parametrize("width", [None, 4], ids=["vector", "block"])
    def test_step_accumulates_into_prev(self, scale, width):
        rng = np.random.default_rng(15)
        gr = SparseGraph(40, np.concatenate([random_simple_graph(rng, 39, 0.12), [[0, 39]]]))
        comp = Companion(gr, scale=scale)
        adjacency = dense_adjacency(gr)
        defect = scale**2 * (1.0 - adjacency.sum(axis=1))
        shape = (gr.n,) if width is None else (gr.n, width)
        cur, prev = rng.standard_normal(shape), rng.standard_normal(shape)
        start = cur.copy()
        want = (defect if width is None else defect[:, None]) * prev + scale * adjacency @ cur
        got = comp.step(cur, prev)
        assert got is prev  # written over x_{t-1}
        np.testing.assert_array_equal(cur, start)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())
        # the product is accumulated into prev's own buffer: a step at a width
        # it has seen allocates no product, and any other layout refuses
        tracemalloc.start()
        try:
            comp.step(cur, prev)
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert allocated < prev.nbytes
        strided = np.empty((2 * gr.n, *shape[1:]))[::2]
        not_contiguous = [strided, np.asfortranarray(prev)] if width else [strided]
        for bad in not_contiguous:
            with pytest.raises(ValueError, match="C-contiguous"):
                comp.step(cur, bad)


def start_block_full_draw(seed: int, n: int, width: int, core) -> np.ndarray:
    """The start block as drawn before row blocks: each (n, width) half whole, then its core rows."""
    rng = substream(seed, "subspace-init")
    top = rng.standard_normal((n, width))[core]
    k = top.shape[0]
    block = np.empty((2 * k, width), order="F")
    block[:k] = top
    del top
    block[k:] = rng.standard_normal((n, width))[core]
    return block


class TestSubspaceKernels:
    @pytest.mark.parametrize("n", [50, 4096, 10_001])
    @pytest.mark.parametrize("peeled", [True, False], ids=["core", "whole"])
    def test_start_block_equals_one_full_draw(self, n, peeled):
        rng = np.random.default_rng(n)
        core = np.flatnonzero(rng.random(n) < 0.6) if peeled else slice(None)
        for seed, width in [(0, 6), (7, 12)]:
            got = nonbacktracking._start_block(seed, n, width, core)
            want = start_block_full_draw(seed, n, width, core)
            assert got.flags.f_contiguous and got.shape == want.shape
            assert got.tobytes(order="F") == want.tobytes(order="F")

    def test_start_block_draws_in_row_blocks(self):
        # a whole (n, width) half is 2.3 MB here; the block returned is 1.4 MB
        n, width = 50_000, 6
        core = np.arange(0, n, 2)
        tracemalloc.start()
        try:
            block = nonbacktracking._start_block(0, n, width, core)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= block.nbytes + n + 3 * 4096 * width * 8

    def test_block_ritz_matches_per_vector_formula(self):
        rng = np.random.default_rng(11)
        gr = SparseGraph(200, random_simple_graph(rng, 200, 4.0 / 200))
        comp = Companion(gr, scale=1.3)
        Q = nonbacktracking._orthonormalize(np.asfortranarray(rng.standard_normal((comp.dim, 6))))
        w, S, rayleigh, residuals, H = nonbacktracking._ritz_candidates(Q, comp.matmat(Q))
        Y = Q @ S
        np.testing.assert_allclose(H, Q.T @ comp.matmat(Q), atol=1e-12)
        assert np.abs(w.imag).max() > 1e-3  # the projection has a complex pair
        assert np.all(np.diff(np.abs(w)) <= 0)
        np.testing.assert_allclose(Q @ (Q.T @ Y), Y, atol=1e-12)
        for i in range(w.size):
            y = Y[:, i]
            by = comp.matvec(y)
            assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
            assert rayleigh[i] == pytest.approx(y @ by, abs=1e-12)
            assert residuals[i] == pytest.approx(np.linalg.norm(by - (y @ by) * y), abs=1e-12)

    def test_orthonormalize_matches_numpy_qr(self):
        Z = np.random.default_rng(12).standard_normal((500, 6))
        want, _ = np.linalg.qr(Z)
        buf = np.asfortranarray(Z)
        got = nonbacktracking._orthonormalize(buf)
        assert np.shares_memory(got, buf)  # computed in the input's buffer
        np.testing.assert_allclose(got, want, atol=1e-12)
        np.testing.assert_allclose(got.T @ got, np.eye(6), rtol=0, atol=1e-14)
        R = got.T @ Z
        np.testing.assert_allclose(np.tril(R, -1), 0.0, atol=1e-12)
        np.testing.assert_allclose(got @ np.triu(R), Z, atol=1e-12)

    @pytest.mark.parametrize(
        "values, guard, kept",
        [
            # projected eigenvalues 5, 3 +- 2i, -2, 1 +- 0.5i (|.|-descending): a
            # guard on either half of a complex pair keeps both halves
            *(
                pytest.param((5.0, (3.0, 2.0), -2.0, (1.0, 0.5)), g, k, id=f"{g}-{k}")
                for g, k in [(0, 1), (1, 3), (2, 3), (3, 4), (5, 6)]
            ),
            # 5, 3 +- 2i, 3 (1 + 1e-9), 3, -2: a guard on either of two near-equal
            # real values keeps both
            *(
                pytest.param((5.0, 3.0 * (1 + 1e-9), 3.0, (3.0, 2.0), -2.0), g, k, id=f"near-double-{g}-{k}")
                for g, k in [(3, 5), (4, 5), (5, 6)]
            ),
        ],
    )
    def test_leading_basis_keeps_whole_pairs(self, values, guard, kept):
        # each entry of `values` is a real eigenvalue or a pair (re, im) for re +- i im
        rng = np.random.default_rng(13)
        T = linalg.block_diag(*([[v]] if np.isscalar(v) else [[v[0], v[1]], [-v[1], v[0]]] for v in values))
        V = rng.standard_normal((6, 6))
        H = V @ T @ np.linalg.inv(V)
        w = np.linalg.eigvals(H)
        w = w[np.argsort(-np.abs(w), kind="stable")]
        Q = nonbacktracking._orthonormalize(np.asfortranarray(rng.standard_normal((40, 6))))
        basis = Q @ nonbacktracking._leading_basis(H, w[guard])
        assert basis.shape == (40, kept)
        np.testing.assert_allclose(basis.T @ basis, np.eye(kept), atol=1e-12)
        U = Q.T @ basis  # coordinates in Q: an H-invariant subspace holding the top `kept` values
        np.testing.assert_allclose(H @ U, U @ (U.T @ H @ U), atol=1e-10)
        got = np.linalg.eigvals(U.T @ H @ U)
        np.testing.assert_allclose(np.sort_complex(got), np.sort_complex(w[:kept]), atol=1e-10)

    def test_keeps_iteration_count_on_workload_graph(self, assortative_2block):
        # sparse-2block's graph at graph seed 4, whose 6-wide start block holds a
        # complex bulk pair; once K = 2 settles the block is cut to the two accepted
        # Ritz vectors plus a real guard, and the run finishes at width 3 after the
        # 70 iterations of the iteration that kept all 6 columns. The lambdas are
        # the eigenvalues converged at RESIDUAL_TOL = 1e-12
        n, seed = 30000, 4
        gr, _ = sample_graph(assortative_2block, n, seed=seed)
        eps = default_epsilon(n)
        g1, _ = split_edges(gr, eps, seed=seed)
        scale = 1.0 / (1.0 - eps)
        spec = top_spectrum(g1, scale=scale, seed=seed)
        assert (spec.iterations, spec.start_block, spec.block, spec.K) == (70, 6, 3, 2)
        converged = [4.013184612169207, 2.9538296910190374]
        np.testing.assert_allclose(spec.lambdas, converged, rtol=1e-12)
        assert spec.ritz_residuals.shape == (3,) and spec.ritz_residuals[:2].max() <= 1e-8
        guard = spec.all_eigenvalues[2]
        assert guard.imag == 0 and abs(guard) < spec.cutoff

    def test_spectrum_memory_on_workload_graph(self, assortative_2block):
        # sparse-2block's graph at graph seed 0, split as the pipeline splits
        # it, traced from the sample on with the split graphs held as the
        # pipeline holds them (1.2 MB). top_spectrum peaks at 7.1 MB here. It
        # peaked at 8.6 MB while it held the tails and heads of G1's oriented
        # edges and of its 2-core, and at 12.3 MB before that, while each
        # extraction built two (2n, width) Ritz blocks to read a few numbers
        # off them, the QR had a buffer apart from the loaded block, each step
        # allocated its (n, width) product and the block cut built the narrow
        # blocks beside the wide ones. Back then the Ritz blocks (11.9 MB) or
        # the separate QR buffer (10.2 MB) coming back crossed a 10 MB bound;
        # now the QR buffer coming back reads 8.45 MB, and the bound sits
        # between. The step's product and the cut's order cost 0.45 MB each
        # at the peak, too little for a bound with a margin;
        # test_step_accumulates_into_prev pins the step's.
        n, seed = 30000, 0
        tracemalloc.start()
        try:
            gr, _ = sample_graph(assortative_2block, n, seed=seed)
            eps = default_epsilon(n)
            g1, g2 = split_edges(gr, eps, seed=seed)
            del gr
            tracemalloc.reset_peak()
            spec = top_spectrum(g1, scale=1.0 / (1.0 - eps), seed=seed)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert (spec.iterations, spec.K) == (55, 2)
        assert peak <= 7.8, f"top_spectrum traced peak {peak:.2f} MB"

    def test_spectrum_memory_on_dense_workload_graph(self, weak_2block):
        # dense-scaled-h8's graph at graph seed 0 (2m = 213 664 oriented edges
        # in G1), traced as above. top_spectrum peaks at 10.3 MB here. It
        # peaked at 13.3 MB while it held the tails and heads of G1's
        # oriented edges and of its 2-core through the solve and the lift.
        # One 2m int64 index array held through the lift adds 1.6 MB and
        # crosses the bound.
        n, seed = 12000, 0
        dense = StepGraphon(weak_2block.block_measures, 8.0 * weak_2block.values)
        tracemalloc.start()
        try:
            gr, _ = sample_graph(dense, n, seed=seed)
            eps = default_epsilon(n)
            g1, g2 = split_edges(gr, eps, seed=seed)
            del gr
            tracemalloc.reset_peak()
            spec = top_spectrum(g1, scale=1.0 / (1.0 - eps), seed=seed)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert (spec.iterations, spec.K, 2 * g1.m) == (15, 2, 213_664)
        assert peak <= 11.5, f"top_spectrum traced peak {peak:.2f} MB"
