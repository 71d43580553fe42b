"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one CRITERION line so the suite output doubles as the
acceptance report. The Monte Carlo criteria share one batch of full pipeline
runs per model to keep the whole gate inside its time budget.
"""
import itertools
import json
import time

import numpy as np
import pytest

from graphon_forge.evaluation import delta2_upper
from graphon_forge.graph_sampler import SparseGraph, sample_graph
from graphon_forge.graphon_model import StepGraphon, save_graphon, spectral_decompose
from graphon_forge.moment_poly import mollifier_moments
from graphon_forge.nonbacktracking import (
    DegenerateSpectrumError,
    classify_eigenvalues,
    default_e1,
    top_spectrum,
)
from graphon_forge.pipeline import MANIFEST_NAME, PipelineConfig, run_pipeline, run_scaled
from graphon_forge.star_counts import total_degree_indices
from tests.conftest import random_simple_graph
from tests.oracles import (
    build_nb_operator,
    count_star,
    dense_nb_matrix,
    fit_density,
    ihara_bass_dense,
    l1_norm_plus,
    legendre_basis,
)

ASSORTATIVE = StepGraphon(np.array([0.5, 0.5]), np.array([[7.0, 1.0], [1.0, 7.0]]))
WEAK = StepGraphon(np.array([0.5, 0.5]), np.array([[6.0, 2.0], [2.0, 6.0]]))
N_DESK = 50_000
SEEDS = range(5)


def report(number, passed, detail):
    print(f"CRITERION {number:>2} [{'PASS' if passed else 'FAIL'}] {detail}")
    return passed


@pytest.fixture(scope="session")
def sbm_runs(tmp_path_factory):
    """Five full pipeline runs on the assortative model at n = 5e4 (criteria 4 and 7)."""
    td = tmp_path_factory.mktemp("sbm-runs")
    save_graphon(ASSORTATIVE, td / "model.json")
    out = []
    for seed in SEEDS:
        cfg = PipelineConfig(model=str(td / "model.json"), n=N_DESK, seed=seed, N_override=4)
        res = run_pipeline(cfg, out_dir=td / f"seed-{seed}")
        spectrum, moments = (json.loads((res.out_dir / name).read_text()) for name in ("spectrum.json", "moments.json"))
        entries = dict(zip(total_degree_indices(spectrum["K"], moments["N"]), moments["values"]))
        out.append((res, entries))
    return out


def test_criterion_1_spectrum_vs_dense_oracle():
    """Iterative solver and Ihara-Bass companion against dense eigensolves."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    attempts = 0
    while checked < 200:
        attempts += 1
        assert attempts < 2000, "could not generate enough usable graphs"
        n = int(rng.integers(12, 31))
        c = rng.uniform(2.5, 6.0)
        edges = random_simple_graph(rng, n, c / n)
        if edges.shape[0] < 8:
            continue
        gr = SparseGraph(n, edges)
        op = build_nb_operator(gr)
        dense = dense_nb_matrix(op)
        w_dense = np.linalg.eigvals(dense)
        try:
            lam1, accepted, _ = classify_eigenvalues(w_dense, default_e1(n))
        except DegenerateSpectrumError:
            continue
        want = np.array(sorted((w_dense[i].real for i in accepted), key=lambda t: -abs(t)))
        try:
            spec = top_spectrum(gr, seed=checked)
        except DegenerateSpectrumError:
            assert want.size == 0
            continue
        assert spec.K == want.size
        np.testing.assert_allclose(spec.lambdas, want, atol=1e-8)

        w_companion = np.linalg.eigvals(ihara_bass_dense(gr))
        top_b = np.sort([abs(x) for x in w_dense if abs(abs(x) - 1) > 1e-6])[::-1][:4]
        top_c = np.sort([abs(x) for x in w_companion if abs(abs(x) - 1) > 1e-6])[::-1][:4]
        k = min(top_b.size, top_c.size)
        np.testing.assert_allclose(top_b[:k], top_c[:k], atol=1e-8)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert report(1, True, f"{checked} graphs vs dense oracle, 1e-8; {elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_2_spectral_separation():
    """Top eigenvalues near (4, 3) and K = 2 on the assortative model."""
    t0 = time.perf_counter()
    good = 0
    details = []
    for seed in SEEDS:
        gr, _ = sample_graph(ASSORTATIVE, N_DESK, seed=200 + seed)
        spec = top_spectrum(gr, seed=seed)
        ok = (
            spec.K == 2
            and abs(spec.lambdas[0] - 4.0) <= 0.3
            and abs(spec.lambdas[1] - 3.0) <= 0.3
        )
        good += ok
        details.append(np.round(spec.lambdas[:2], 3).tolist())
    elapsed = time.perf_counter() - t0
    passed = good >= 4
    assert report(2, passed, f"{good}/5 seeds, lambdas {details}; {elapsed:.1f}s")
    assert elapsed < 300


def brute_star(gr, alpha, B):
    labels = [i for i, a in enumerate(alpha) for _ in range(a)]
    total = 0.0
    for w in range(gr.n):
        for tup in itertools.permutations(gr.neighbors(w), len(labels)):
            prod = 1.0
            for lab, v in zip(labels, tup):
                prod *= B[v, lab]
            total += prod
    return total


def test_criterion_3_star_count_oracle():
    """Optimized star counts equal exhaustive ordered-distinct-tuple sums."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    alphas = [a for a in itertools.product(range(5), repeat=2) if 1 <= sum(a) <= 4]
    for trial in range(300):
        n = int(rng.integers(3, 13))
        gr = SparseGraph(n, random_simple_graph(rng, n, 0.45))
        B = rng.standard_normal((n, 2))
        for alpha in alphas:
            got = count_star(gr, alpha, B)
            want = brute_star(gr, alpha, B)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-9), (trial, alpha)
    elapsed = time.perf_counter() - t0
    assert report(3, True, f"300 graphs x {len(alphas)} multi-indices; {elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_4_moment_consistency(sbm_runs):
    """P estimates of (0, 1, 0) for the pure second-feature moments."""
    good = 0
    details = []
    for res, entries in sbm_runs:
        p01, p02, p03 = entries[(0, 1)], entries[(0, 2)], entries[(0, 3)]
        ok = abs(p01) <= 0.15 and abs(p02 - 1.0) <= 0.25 and abs(p03) <= 0.3
        good += ok
        details.append([round(p01, 3), round(p02, 3), round(p03, 3)])
    passed = good >= 4
    assert report(4, passed, f"{good}/5 seeds within bands, (P01,P02,P03) {details}")


def test_criterion_5_density_fit_recovery():
    """Planted-coefficient recovery, two-atom monotone L1 error, orthonormality."""
    t0 = time.perf_counter()
    # orthonormality at 1e-10 on both intervals
    for kappa in (1.0, 2.0):
        N = 20
        basis = legendre_basis(N, kappa)
        x, w = np.polynomial.legendre.leggauss(2 * N + 2)
        vals = basis.values(x * kappa)
        gram = (vals * w[:, None]).T @ vals * kappa
        assert np.abs(gram - np.eye(N + 1)).max() <= 1e-10

    # planted polynomial density recovered exactly from its moments
    basis = legendre_basis(5, 2.0)
    planted = np.zeros(6)
    planted[0], planted[2] = 0.8, 0.37
    xg, wg = np.polynomial.legendre.leggauss(16)
    vals = basis.values(xg * 2.0)
    moments = np.array(
        [np.sum(wg * (xg * 2.0) ** j * (vals @ planted)) * 2.0 for j in range(6)]
    )
    fit = fit_density(moments, basis, 1)
    assert np.abs(fit.rho - planted).max() <= 1e-9

    # mollified two-atom law: L1 error decreases monotonically in the degree
    from math import comb

    delta, kappa = 0.2, 2.0
    errors = []
    for N in (8, 12, 16, 20):
        mm = mollifier_moments(delta, N)
        P = np.array([0.5 * (1.0 + (-1.0) ** j) for j in range(N + 1)])
        M = np.array(
            [sum(comb(a, b) * P[b] * mm.moments[a - b] for b in range(a + 1)) for a in range(N + 1)]
        )
        fit = fit_density(M, legendre_basis(N, kappa), 1, delta=delta)
        l1_norm_plus(fit, 256)
        xs = (np.arange(4096) + 0.5) / 4096 * 2 * kappa - kappa
        from tests.oracles import eval_density

        approx = np.maximum(eval_density(fit, xs.reshape(-1, 1)), 0.0) / fit.l1_norm_plus
        z = np.polynomial.legendre.leggauss(400)
        norm = np.sum(z[1] * np.exp(-1 / (1 - z[0] ** 2)))
        truth = np.zeros_like(xs)
        for atom in (-1.0, 1.0):
            u = (xs - atom) / delta
            inside = np.abs(u) < 1
            vals = np.zeros_like(xs)
            vals[inside] = np.exp(-1 / (1 - u[inside] ** 2))
            truth += 0.5 * vals / (norm * delta)
        errors.append(float(np.sum(np.abs(approx - truth)) * (2 * kappa / 4096)))
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    elapsed = time.perf_counter() - t0
    assert report(5, monotone, f"two-atom L1 errors {np.round(errors, 4).tolist()}; {elapsed:.1f}s")
    assert monotone
    assert elapsed < 60


def test_criterion_6_consistency_trend(tmp_path):
    """Median alignment distance along the n ladder; absolute bound at the top rung."""
    t0 = time.perf_counter()
    save_graphon(ASSORTATIVE, tmp_path / "model.json")
    medians = []
    for n in (5000, 20_000, 80_000):
        vals = []
        for seed in SEEDS:
            cfg = PipelineConfig(model=str(tmp_path / "model.json"), n=n, seed=seed, N_override=4)
            res = run_pipeline(cfg, out_dir=tmp_path / f"n{n}-s{seed}")
            vals.append(res.metrics["delta2_upper"])
        medians.append(float(np.median(vals)))
    elapsed = time.perf_counter() - t0
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    bounded = medians[-1] <= 1.5
    passed = decreasing and bounded
    report(
        6,
        passed,
        f"medians {np.round(medians, 3).tolist()} (strict decrease: {decreasing}, "
        f"median@8e4 <= 1.5: {bounded}); {elapsed:.0f}s",
    )
    assert elapsed < 1200
    assert decreasing, f"medians not strictly decreasing: {medians}"
    assert bounded, f"median at n=8e4 is {medians[-1]:.3f} > 1.5"


def test_criterion_7_diagnostics(sbm_runs):
    """Contraction identity and off-diagonal decay of the C matrix."""
    good_contract = good_offdiag = 0
    details = []
    for res, _ in sbm_runs:
        C = np.array(res.metrics["C_matrix"])
        contraction = np.array(res.metrics["C_contraction"])
        diag = np.array(res.metrics["C_diagonal_term"])
        ok_a = abs(contraction[1] - diag[1]) <= 0.3 * abs(diag[1])
        ok_b = abs(C[0, 1]) <= 0.2 * abs(C[0, 0])
        good_contract += ok_a
        good_offdiag += ok_b
        details.append(round(float(contraction[1] - diag[1]), 4))
    passed = good_contract >= 4 and good_offdiag >= 4
    assert report(
        7, passed, f"contraction {good_contract}/5, off-diagonal {good_offdiag}/5, gaps {details}"
    )


def test_criterion_8_scaled_mode(tmp_path):
    """K transition across the threshold and error trend in the scale."""
    t0 = time.perf_counter()
    save_graphon(WEAK, tmp_path / "model.json")

    def runs(h):
        ks, ds = [], []
        for seed in SEEDS:
            cfg = PipelineConfig(model=str(tmp_path / "model.json"), n=N_DESK, seed=seed, N_override=4)
            res = run_scaled(cfg, h, out_dir=tmp_path / f"h{h}-s{seed}")
            ks.append(res.manifest["K"])
            ds.append(res.metrics["delta2_upper"])
        return ks, ds

    k1, _ = runs(1.0)
    k4, _ = runs(4.0)
    transition = sum(k == 1 for k in k1) >= 4 and sum(k == 2 for k in k4) >= 4
    _, d2 = runs(2.0)
    _, d8 = runs(8.0)
    trend = np.median(d8) <= np.median(d2)
    elapsed = time.perf_counter() - t0
    passed = transition and trend
    report(
        8,
        passed,
        f"K(h=1)={k1} K(h=4)={k4}; median d2 h=2: {np.median(d2):.3f}, "
        f"h=8: {np.median(d8):.3f}; {elapsed:.0f}s",
    )
    assert transition
    assert trend
    assert elapsed < 900


def test_criterion_9_complexity(tmp_path):
    """n log n scaling: wall-time ratio between n = 1e5 and n = 2.5e4 at most 6."""
    save_graphon(ASSORTATIVE, tmp_path / "model.json")
    times = {}
    for n in (25_000, 100_000):
        cfg = PipelineConfig(
            model=str(tmp_path / "model.json"),
            n=n,
            seed=0,
            N_override=4,
        )
        t0 = time.perf_counter()
        run_pipeline(cfg, out_dir=tmp_path / f"bench-{n}")
        times[n] = time.perf_counter() - t0
    ratio = times[100_000] / times[25_000]
    passed = ratio <= 6.0
    report(
        9,
        passed,
        f"wall {times[25_000]:.1f}s @2.5e4 vs {times[100_000]:.1f}s @1e5, ratio {ratio:.2f}",
    )
    assert passed


def test_criterion_10_determinism(tmp_path):
    """Identical config and seed reproduce every stage dump byte for byte."""
    t0 = time.perf_counter()
    save_graphon(ASSORTATIVE, tmp_path / "model.json")
    outs = []
    for tag in ("a", "b"):
        cfg = PipelineConfig(
            model=str(tmp_path / "model.json"), n=10_000, seed=3, N_override=4
        )
        res = run_pipeline(cfg, out_dir=tmp_path / tag)
        outs.append(res.out_dir)
    names = [
        "latents.npy",
        "g1.npy",
        "g2.npy",
        "spectrum.json",
        "aggregates.npy",
        "moments.json",
        "fit.json",
        "estimate.json",
        "metrics.json",
    ]
    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)
    with open(outs[0] / MANIFEST_NAME) as fh:
        ma = json.load(fh)
    with open(outs[1] / MANIFEST_NAME) as fh:
        mb = json.load(fh)
    ma.pop("timings_sec"), mb.pop("timings_sec")
    same = same and ma == mb
    elapsed = time.perf_counter() - t0
    assert report(10, same, f"{len(names)} dumps byte-identical + manifest; {elapsed:.1f}s")
    assert elapsed < 300
