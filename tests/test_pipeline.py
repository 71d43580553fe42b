import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphon_forge import cli, graph_sampler, moment_poly, nonbacktracking, pipeline, star_counts
from graphon_forge.graphon_model import StepGraphon, save_graphon
from graphon_forge.nonbacktracking import EXTRACT_EVERY
from graphon_forge.pipeline import (
    DEGENERATE_NAME,
    MANIFEST_NAME,
    PipelineConfig,
    PipelineState,
    StageInputError,
    check_config,
    default_epsilon,
    fit_telemetry,
    formula_N,
    run_pipeline,
    run_scaled,
    run_stage,
)
from tests.conftest import peel_to_two_core

N_SMALL = 3000


@pytest.fixture
def model_file(tmp_path, assortative_2block):
    p = tmp_path / "model.json"
    save_graphon(assortative_2block, p)
    return p


def small_config(model_file, tmp_path, **kw):
    return PipelineConfig(
        model=str(model_file),
        n=N_SMALL,
        seed=0,
        N_override=3,
        out=str(tmp_path / "out"),
        **kw,
    )


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _truncated(path, arr):
    np.save(path, arr)
    path.write_bytes(path.read_bytes()[:-5])


def _pickled(path, arr):
    np.save(path, np.array([*arr[:2], None], dtype=object), allow_pickle=True)


# dump name, the error require_graphs raises, and how the dump is spoilt from its good array
MALFORMED_DUMPS = {
    "edges-int64": ("g1", ValueError, lambda p, a: np.save(p, a.astype("<i8"))),
    "edges-big-endian": ("g1", ValueError, lambda p, a: np.save(p, a.astype(">i4"))),
    "edges-float": ("g2", ValueError, lambda p, a: np.save(p, a.astype(float))),
    "edges-1d": ("g1", ValueError, lambda p, a: np.save(p, a.ravel())),
    "edges-3-columns": ("g1", ValueError, lambda p, a: np.save(p, np.c_[a, a[:, :1]])),
    "edges-object": ("g1", ValueError, _pickled),
    "edges-truncated": ("g2", ValueError, _truncated),
    "edges-text": ("g1", ValueError, lambda p, a: p.write_text(f"{N_SMALL} {len(a)}\n0 1\n")),
    "edges-out-of-range": ("g1", ValueError, lambda p, a: np.save(p, np.minimum(a + 1, N_SMALL))),
    "edges-duplicate": ("g1", ValueError, lambda p, a: np.save(p, np.r_[a[:1], a[:-1]])),
    "edges-fewer-rows-than-split": ("g1", StageInputError, lambda p, a: np.save(p, a[:-1])),
    "edges-more-rows-than-split": ("g2", StageInputError, lambda p, a: np.save(p, np.r_[a, [[0, N_SMALL - 1]]].astype("<i4"))),
    "edges-missing": ("g2", StageInputError, lambda p, a: p.unlink()),
    "latents-missing": ("latents", StageInputError, lambda p, a: p.unlink()),
    "latents-float32": ("latents", ValueError, lambda p, a: np.save(p, a.astype("<f4"))),
    "latents-2d": ("latents", ValueError, lambda p, a: np.save(p, a[None, :])),
    "latents-object": ("latents", ValueError, _pickled),
    "latents-truncated": ("latents", ValueError, _truncated),
    "latents-nan": ("latents", ValueError, lambda p, a: np.save(p, np.r_[a[:-1], np.nan])),
    "latents-out-of-range": ("latents", ValueError, lambda p, a: np.save(p, a + 1.0)),
}

# how the spectrum stage's (n, K) aggregates.npy is spoilt from its good array
MALFORMED_AGGREGATES = {
    "object": _pickled,
    "truncated": _truncated,
    "float32": lambda p, a: np.save(p, a.astype("<f4")),
    "big-endian": lambda p, a: np.save(p, a.astype(">f8")),
    "1d": lambda p, a: np.save(p, a.ravel()),
    "fewer-rows": lambda p, a: np.save(p, a[:-1]),
    "extra-column": lambda p, a: np.save(p, np.c_[a, a[:, :1]]),
    "transposed": lambda p, a: np.save(p, np.ascontiguousarray(a.T)),
}


class TestDefaults:
    def test_epsilon_clamped(self):
        assert default_epsilon(150) == 0.5
        assert 0.4 <= default_epsilon(50_000) <= 0.45
        assert default_epsilon(10**300) == pytest.approx(1 / np.log(np.log(1e300)))

    def test_formula_N_is_astronomical(self):
        assert formula_N(2, 7.0, 0.5) > 1e60

    @pytest.mark.parametrize(
        "name",
        # after "bogus": names that are module constants or read by nothing, not config
        # fields; the last six were fields that changed no run's dumps
        ["bogus", "threads", "determinism", "sample_grid", "kappa_pad", "N_cap",
         "moment_entries_cap", "K_cap",
         "e0", "M", "delta_override", "m_override", "kappa_override", "h_ladder"],
    )
    def test_config_rejects_unknown_fields(self, name, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"n": 500, name: 1}))
        with pytest.raises(ValueError, match=f"unknown config fields: \\['{name}'\\]"):
            PipelineConfig.from_json(p)

    def test_n_floor(self, model_file, tmp_path):
        cfg = small_config(model_file, tmp_path)
        cfg.n = 50
        with pytest.raises(ValueError, match="need n >= 100"):
            run_pipeline(cfg)
        with pytest.raises(ValueError, match="need n >= 100"):
            run_stage("generate", cfg)
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 3000.0), ("n", True), ("n", 99),
            ("seed", "1"), ("seed", -1), ("seed", 2**32), ("seed", False),
            ("metrics_grid", 0), ("metrics_grid", 256.0), ("metrics_grid", 20000),
            ("N_override", 0), ("N_override", 4.0), ("N_override", True),
            ("epsilon_override", 0.0), ("epsilon_override", 1.0), ("epsilon_override", float("nan")),
            ("e1_override", -0.1), ("e1_override", float("inf")), ("e1_override", float("nan")),
            ("e1_override", "0.5"),
            ("model", None), ("out", None),
        ],
    )
    def test_config_field_refused_by_name(self, field, value, model_file, tmp_path):
        cfg = small_config(model_file, tmp_path)
        setattr(cfg, field, value)
        with pytest.raises(ValueError, match=f"^config field '{field}' is {re.escape(repr(value))}; need "):
            run_pipeline(cfg)
        assert not (tmp_path / "out").exists()

    def test_config_range_ends_accepted(self, model_file, tmp_path):
        for field, value in [("n", 100), ("seed", 0), ("seed", 2**32 - 1), ("metrics_grid", 1), ("metrics_grid", 4096),
                             ("N_override", 1), ("epsilon_override", 0.5), ("e1_override", 0.0), ("e1_override", 0)]:
            cfg = small_config(model_file, tmp_path)
            setattr(cfg, field, value)
            check_config(cfg)


class TestConfigHash:
    def test_every_semantic_field_moves_the_hash(self, model_file, tmp_path):
        base = small_config(model_file, tmp_path)
        h0 = base.config_hash(b"model")
        changed = {
            "model": str(tmp_path / "other.json"),
            "n": 4000,
            "seed": 5,
            "epsilon_override": 0.3,
            "e1_override": 0.2,
            "N_override": 4,
            "metrics_grid": 128,
        }
        # a new field fails here until it is shown to move the hash, or to be `out`
        assert {f.name for f in dataclasses.fields(PipelineConfig)} == {*changed, "out"}
        for field, value in changed.items():
            cfg = small_config(model_file, tmp_path)
            setattr(cfg, field, value)
            assert cfg.config_hash(b"model") != h0, field
        assert base.config_hash(b"other-model") != h0

    def test_out_dir_does_not_move_the_hash(self, model_file, tmp_path):
        a = small_config(model_file, tmp_path)
        b = small_config(model_file, tmp_path)
        b.out = str(tmp_path / "elsewhere")
        assert a.config_hash(b"m") == b.config_hash(b"m")


class TestRunPipeline:
    def test_end_to_end_small(self, model_file, tmp_path):
        cfg = small_config(model_file, tmp_path)
        res = run_pipeline(cfg)
        assert not res.degenerate
        assert res.manifest["K"] >= 1
        assert res.metrics["delta2_upper"] is not None
        for name in (
            "g1.npy",
            "g2.npy",
            "latents.npy",
            "spectrum.json",
            "aggregates.npy",
            "moments.json",
            "fit.json",
            "estimate.json",
            "metrics.json",
            MANIFEST_NAME,
        ):
            assert (res.out_dir / name).exists(), name

    def test_run_directory_holds_exactly_the_stage_map(self, model_file, tmp_path):
        res = run_pipeline(small_config(model_file, tmp_path))
        assert not res.degenerate
        listed = [name for names in res.manifest["stages"].values() for name in names]
        assert len(listed) == len(set(listed))
        assert sorted(p.name for p in res.out_dir.iterdir()) == sorted([*listed, MANIFEST_NAME])

    def test_manifest_logs_formula_and_effective(self, model_file, tmp_path):
        res = run_pipeline(small_config(model_file, tmp_path))
        c = res.manifest["constants"]
        assert c["N_formula"] == "inf" or c["N_formula"] > c["N"]
        assert c["epsilon"] == pytest.approx(default_epsilon(N_SMALL))
        assert c["delta"] >= 0.05
        assert c["kappa"] <= c["kappa_formula"]

    def test_manifest_records_spectrum_telemetry(self, model_file, tmp_path):
        res = run_pipeline(small_config(model_file, tmp_path))
        spec = res.manifest["spectrum"]
        lambdas = read_json(res.out_dir / "spectrum.json")["lambdas"]
        g1 = graph_sampler.load_edge_list(res.out_dir / "g1.npy", N_SMALL)
        core_degree, rounds = peel_to_two_core(N_SMALL, g1.edges)
        core_size = int(np.count_nonzero(core_degree))
        assert spec["core_vertices"] == core_size < N_SMALL
        assert spec["iterated_dim"] == 2 * core_size and spec["peel_rounds"] == len(rounds)
        assert spec["iterations"] > 0 and spec["start_block"] >= 6
        assert spec["start_block"] >= spec["block"] >= res.manifest["K"] + 1
        its = spec["iterations"]
        assert its // EXTRACT_EVERY < spec["orthonormalizations"] <= its + 1
        assert len(spec["ritz_values"]) == spec["block"]
        top_re, top_im = spec["ritz_values"][0]
        assert top_im == 0.0 and top_re == pytest.approx(lambdas[0], rel=1e-6)
        assert len(spec["ritz_residuals"]) == spec["block"]
        assert 0 <= spec["ritz_residuals"][0] <= 1e-8  # the accepted top pair met the solver's tol
        assert lambdas[-1] > spec["cutoff"] > 0

    def test_manifest_records_fit_telemetry(self, model_file, tmp_path):
        res = run_pipeline(small_config(model_file, tmp_path))
        block = res.manifest["fit"]
        doc = read_json(res.out_dir / "fit.json")
        assert block == {
            "resolution": doc["resolution"],
            "grid_nodes": doc["resolution"] ** doc["K"],
            "support": len(doc["weights"]),
            "residual": doc["residual"],
            "iterations": doc["iterations"],
        }
        assert block["iterations"] >= block["support"] >= 1
        staged = PipelineState(res.config, res.out_dir)
        staged.require_fit()
        assert fit_telemetry(staged.fit) == block

    def test_manifest_records_estimate_telemetry(self, model_file, tmp_path):
        res = run_pipeline(small_config(model_file, tmp_path))
        block = res.manifest["estimate"]
        drawn = np.unique(res.estimate.index).size
        assert block == {"m": res.estimate.m, "atoms": drawn}
        assert 1 <= block["atoms"] <= res.manifest["fit"]["support"]
        np.testing.assert_array_equal(res.estimate.atoms.ravel(), read_json(res.out_dir / "fit.json")["nodes"])
        constant = run_pipeline(small_config(model_file, tmp_path / "k0", e1_override=50.0))
        assert constant.degenerate and constant.manifest["estimate"] == {"m": N_SMALL, "atoms": 1}
        np.testing.assert_array_equal(constant.estimate.atoms, [[1.0]])

    def test_determinism_byte_identical(self, model_file, tmp_path):
        cfg_a = small_config(model_file, tmp_path)
        cfg_a.out = str(tmp_path / "a")
        cfg_b = small_config(model_file, tmp_path)
        cfg_b.out = str(tmp_path / "b")
        ra = run_pipeline(cfg_a)
        rb = run_pipeline(cfg_b)
        for name in ("g1.npy", "g2.npy", "latents.npy", "spectrum.json",
                     "aggregates.npy", "moments.json", "fit.json", "estimate.json",
                     "metrics.json"):
            assert (ra.out_dir / name).read_bytes() == (rb.out_dir / name).read_bytes(), name
        ma = read_json(ra.out_dir / MANIFEST_NAME)
        mb = read_json(rb.out_dir / MANIFEST_NAME)
        ma.pop("timings_sec"), mb.pop("timings_sec")
        assert ma == mb

    def test_seed_changes_outputs(self, model_file, tmp_path):
        cfg_a = small_config(model_file, tmp_path)
        cfg_a.out = str(tmp_path / "a")
        cfg_b = small_config(model_file, tmp_path)
        cfg_b.seed = 1
        cfg_b.out = str(tmp_path / "b")
        ra, rb = run_pipeline(cfg_a), run_pipeline(cfg_b)
        assert (ra.out_dir / "g1.npy").read_bytes() != (rb.out_dir / "g1.npy").read_bytes()

    def test_degenerate_k0_emits_constant_estimator(self, model_file, tmp_path):
        cfg = small_config(model_file, tmp_path, e1_override=50.0)  # cutoff unreachable
        res = run_pipeline(cfg)
        assert res.degenerate
        assert res.manifest["K"] == 0
        assert any("constant estimator" in w for w in res.manifest["warnings"])
        est = res.estimate
        assert est.K == 1
        mean_deg = est.lambdas[0]
        assert 3.0 <= mean_deg <= 5.0  # observed mean degree of the sample
        np.testing.assert_array_equal(est.Z, 1.0)

    def test_spurious_pair_past_the_truths_rank_is_scored(self, tmp_path):
        # the 3-block model at n = 5000, seed 0, accepts a fourth pair just past
        # the cutoff; the rank-3 truth is padded, so the run still gets a delta2
        p = tmp_path / "model.json"
        values = np.array([[15.0, 2.0, 1.0], [2.0, 14.0, 2.0], [1.0, 2.0, 15.0]])
        save_graphon(StepGraphon(np.full(3, 1 / 3), values), p)
        res = run_pipeline(PipelineConfig(model=str(p), n=5000, seed=0, out=str(tmp_path / "out")))
        assert res.manifest["K"] == 4 > res.manifest["model"]["r0"] == 3
        assert abs(res.estimate.lambdas[3]) > res.manifest["spectrum"]["cutoff"]
        d2 = read_json(res.out_dir / "metrics.json")["delta2_upper"]
        assert d2 == res.metrics["delta2_upper"] and np.isfinite(d2)
        assert "alignment_warning" not in res.metrics
        assert len(res.metrics["sign_pattern"]) == 4

    def test_eight_features_reach_an_estimate(self, tmp_path):
        # r0 = K_CAP = 8: the table's 495 entries of |alpha| <= 4 pass; its
        # (N+1)^K = 390 625 cells did not, and the run fell to the constant estimator
        values = np.ones((8, 8))
        np.fill_diagonal(values, np.linspace(70, 40, 8))
        model = tmp_path / "model.json"
        save_graphon(StepGraphon(np.full(8, 1 / 8), values), model)
        res = run_pipeline(PipelineConfig(model=str(model), n=20_000, seed=0), out_dir=tmp_path / "out")
        assert res.manifest["model"]["r0"] == res.manifest["K"] == nonbacktracking.K_CAP
        assert not res.degenerate and res.manifest["warnings"] == []
        assert len(read_json(res.out_dir / "moments.json")["entries"]) == 495
        assert res.manifest["fit"]["support"] == res.estimate.atoms.shape[0] > 0
        # the alignment search over 8! * 2^8 candidates is refused, not run
        assert res.metrics["delta2_upper"] is None and "exceeds the budget" in res.metrics["alignment_warning"]

    def test_edgeless_g1_is_degenerate_at_the_spectrum(self, tmp_path):
        p = tmp_path / "model.json"
        save_graphon(StepGraphon(np.array([1.0]), np.array([[1e-6]])), p)  # draws no edge at n = 100
        res = run_pipeline(PipelineConfig(model=str(p), n=100, out=str(tmp_path / "out")))
        assert graph_sampler.load_edge_list(res.out_dir / "g1.npy", 100).m == 0
        assert res.degenerate and res.manifest["spectrum"] is None
        record = read_json(res.out_dir / DEGENERATE_NAME)
        assert record["stage"] == "spectrum"
        assert "spectral radius is at most 1" in record["reason"]

    def test_no_run_builds_the_oriented_edge_operator(self, model_file, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("NbOperator built in a pipeline run")

        monkeypatch.setattr(nonbacktracking.NbOperator, "__post_init__", refuse)
        assert not run_pipeline(small_config(model_file, tmp_path / "plain")).degenerate
        assert not run_scaled(small_config(model_file, tmp_path / "scaled"), 2.0).degenerate

    def test_every_stage_is_timed(self, model_file, tmp_path):
        # skipped stages of a degenerate run are timed too
        cfg = small_config(model_file, tmp_path, e1_override=50.0)
        res = run_pipeline(cfg)
        assert res.degenerate
        timings = res.manifest["timings_sec"]
        assert set(timings) == {"generate", "spectrum", "moments", "fit", "estimate", "evaluate", "total"}
        assert all(t >= 0 for t in timings.values())
        assert timings["total"] >= sum(t for name, t in timings.items() if name != "total")


class TestStagedExecution:
    def test_stages_match_pipeline(self, model_file, tmp_path):
        cfg = small_config(model_file, tmp_path)
        cfg.out = str(tmp_path / "full")
        full = run_pipeline(cfg)

        cfg2 = small_config(model_file, tmp_path)
        cfg2.out = str(tmp_path / "staged")
        for stage in ("generate", "spectrum", "moments", "fit", "estimate", "evaluate"):
            run_stage(stage, cfg2)
        for name in ("g1.npy", "g2.npy", "latents.npy", "split.json", "spectrum.json", "aggregates.npy",
                     "moments.json", "fit.json", "estimate.json", "metrics.json"):
            assert (
                (tmp_path / "staged" / name).read_bytes()
                == (full.out_dir / name).read_bytes()
            ), name

    def test_tampered_hash_refused(self, model_file, tmp_path):
        cfg = small_config(model_file, tmp_path)
        run_stage("generate", cfg)
        split = read_json(tmp_path / "out" / "split.json")
        split["config_hash"] = "0" * 64
        (tmp_path / "out" / "split.json").write_text(json.dumps(split))
        with pytest.raises(StageInputError, match="refus"):
            run_stage("spectrum", cfg)

    @pytest.mark.parametrize("case", sorted(MALFORMED_DUMPS))
    def test_malformed_graph_dump_refused_naming_its_file(self, case, model_file, tmp_path):
        name, error, write = MALFORMED_DUMPS[case]
        cfg = small_config(model_file, tmp_path)
        run_stage("generate", cfg)
        path = tmp_path / "out" / f"{name}.npy"
        write(path, np.load(path))
        with pytest.raises(error, match=re.escape(str(path))):
            PipelineState(cfg, cfg.out).require_graphs([name])

    @pytest.mark.parametrize("case", sorted(MALFORMED_AGGREGATES))
    def test_malformed_aggregates_refused_naming_its_file(self, case, model_file, tmp_path):
        cfg = small_config(model_file, tmp_path)
        for stage in ("generate", "spectrum"):
            run_stage(stage, cfg)
        path = tmp_path / "out" / "aggregates.npy"
        good = np.load(path)
        assert good.shape == (N_SMALL, read_json(tmp_path / "out" / "spectrum.json")["K"])
        MALFORMED_AGGREGATES[case](path, good)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            PipelineState(cfg, cfg.out).require_spectrum()

    def test_estimate_without_hash_refused(self, model_file, tmp_path):
        cfg = small_config(model_file, tmp_path)
        for stage in ("generate", "spectrum", "moments", "fit", "estimate"):
            run_stage(stage, cfg)
        path = tmp_path / "out" / "estimate.json"
        doc = read_json(path)
        del doc["provenance"]["config_hash"]
        path.write_text(json.dumps(doc))
        with pytest.raises(StageInputError, match="refus"):
            run_stage("evaluate", cfg)

    def test_missing_inputs_refused(self, model_file, tmp_path):
        cfg = small_config(model_file, tmp_path)
        with pytest.raises(StageInputError):
            run_stage("spectrum", cfg)

    def test_fit_rerun_is_bit_identical(self, model_file, tmp_path):
        cfg = small_config(model_file, tmp_path)
        for stage in ("generate", "spectrum", "moments", "fit"):
            run_stage(stage, cfg)
        first = (tmp_path / "out" / "fit.json").read_bytes()
        run_stage("fit", cfg)
        assert (tmp_path / "out" / "fit.json").read_bytes() == first

    def test_fit_reloads_node_weights(self, model_file, tmp_path):
        cfg = small_config(model_file, tmp_path)
        for stage in ("generate", "spectrum", "moments"):
            run_stage(stage, cfg)
        fitted = run_stage("fit", cfg).fit
        assert np.all(fitted.weights > 0)
        assert fitted.weights.sum() == pytest.approx(1.0, abs=1e-12)
        reloaded = PipelineState(cfg, cfg.out)
        reloaded.require_fit()
        for name in ("K", "N", "kappa", "delta", "resolution", "residual", "iterations"):
            assert getattr(reloaded.fit, name) == getattr(fitted, name), name
        np.testing.assert_array_equal(reloaded.fit.nodes, fitted.nodes)
        np.testing.assert_array_equal(reloaded.fit.weights, fitted.weights)

    def test_zero_fit_weights_take_degenerate_path(self, model_file, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "graphon_forge.moment_poly.nnls", lambda A, b: (np.zeros(A.shape[1]), 1.0)
        )
        res = run_pipeline(small_config(model_file, tmp_path))
        assert res.degenerate
        assert any("moment fit unusable" in w for w in res.manifest["warnings"])
        assert not (res.out_dir / "fit.json").exists()
        np.testing.assert_array_equal(res.estimate.Z, 1.0)

    @pytest.mark.parametrize("case", ["non-finite-moments", "maxiter-exhausted"])
    def test_fit_failures_take_degenerate_path(self, case, model_file, tmp_path, monkeypatch):
        if case == "non-finite-moments":
            monkeypatch.setattr(
                "graphon_forge.moment_poly.mollify_moments",
                lambda table, mm: dataclasses.replace(table, values=np.full(table.values.shape, np.nan)),
            )
            detail = "non-finite"
        else:
            monkeypatch.setattr(
                "graphon_forge.moment_poly.nnls", functools.partial(moment_poly.nnls, maxiter=1)
            )
            detail = "did not converge within 1 least-squares solves"
        res = run_pipeline(small_config(model_file, tmp_path))
        assert res.degenerate
        record = read_json(res.out_dir / DEGENERATE_NAME)
        assert record["stage"] == "fit"
        assert record["reason"].startswith("moment fit unusable: ") and detail in record["reason"]
        assert record["reason"] in res.manifest["warnings"]
        assert res.manifest["fit"] is None
        assert not (res.out_dir / "fit.json").exists()
        np.testing.assert_array_equal(res.estimate.Z, 1.0)

    def test_non_finite_moment_read_back_takes_the_degenerate_path(self, model_file, tmp_path):
        # moments.json's values may be non-finite: the staged fit meets them as the in-memory one would
        cfg = small_config(model_file, tmp_path)
        for stage in ("generate", "spectrum", "moments"):
            run_stage(stage, cfg)
        path = tmp_path / "out" / "moments.json"
        doc = read_json(path)
        doc["entries"][3]["value"] = float("inf")
        path.write_text(json.dumps(doc))
        state = run_stage("fit", cfg)
        assert state.degenerate and state.fit is None
        record = read_json(tmp_path / "out" / DEGENERATE_NAME)
        assert record["stage"] == "fit" and "non-finite" in record["reason"]

    @pytest.mark.parametrize(
        "case", ["spectrum-raises", "no-eigenvalue", "table-too-large", "too-many-terms", "fit-unusable"]
    )
    def test_degenerate_stages_match_pipeline(self, case, model_file, tmp_path, monkeypatch):
        cfg = small_config(model_file, tmp_path)
        stage = {
            "spectrum-raises": "spectrum",
            "no-eigenvalue": "spectrum",
            "table-too-large": "moments",
            "too-many-terms": "moments",
            "fit-unusable": "fit",
        }[case]
        if case == "spectrum-raises":
            weak = tmp_path / "weak.json"
            save_graphon(StepGraphon(np.array([1.0]), np.array([[1.2]])), weak)
            cfg = PipelineConfig(model=str(weak), n=2000, seed=0, N_override=4)
        elif case == "no-eigenvalue":
            cfg.e1_override = 50.0
        elif case == "table-too-large":
            cfg.N_override = 4  # K = 2: C(4 + 2, 2) = 15 entries, each with a profile term
            monkeypatch.setattr(star_counts, "TERM_BUDGET", 10)
        elif case == "too-many-terms":
            cfg.N_override = 20  # K = 2: 231 entries, but 1 371 843 profile terms
        else:
            monkeypatch.setattr(
                "graphon_forge.moment_poly.nnls", lambda A, b: (np.zeros(A.shape[1]), 1.0)
            )
        full = run_pipeline(cfg, out_dir=tmp_path / "full")
        assert full.degenerate
        for name in ("generate", "spectrum", "moments", "fit", "estimate", "evaluate"):
            run_stage(name, cfg, out_dir=tmp_path / "staged")
        record = read_json(tmp_path / "staged" / DEGENERATE_NAME)
        assert record["stage"] == stage
        assert record == read_json(full.out_dir / DEGENERATE_NAME)
        assert record["reason"] in full.manifest["warnings"]
        if case == "table-too-large":
            assert "at least 15" in record["reason"] and "over 10 profile terms" in record["reason"]
        if case == "too-many-terms":
            assert f"over {star_counts.TERM_BUDGET} profile terms" in record["reason"]
        for name in (DEGENERATE_NAME, "estimate.json", "metrics.json"):
            assert (
                (tmp_path / "staged" / name).read_bytes() == (full.out_dir / name).read_bytes()
            ), name

    @pytest.mark.parametrize(
        "e1_override, loaded",
        [
            (None, ["g1.npy", "g2.npy", "latents.npy"]),
            (50.0, ["g1.npy", "latents.npy"]),  # K = 0: the constant estimator reads split.json
        ],
    )
    def test_stages_read_only_the_graph_dumps_they_use(
        self, e1_override, loaded, model_file, tmp_path, monkeypatch
    ):
        cfg = small_config(model_file, tmp_path, e1_override=e1_override)
        reads = []

        def counted(load):
            def wrapper(path, *args):
                reads.append(path.name)
                return load(path, *args)

            return wrapper

        for name in ("load_edge_list", "load_latents"):
            monkeypatch.setattr(graph_sampler, name, counted(getattr(graph_sampler, name)))
        for stage in ("generate", "spectrum", "moments", "fit", "estimate", "evaluate"):
            run_stage(stage, cfg)
        assert reads == loaded

    def test_generate_clears_degenerate_record(self, model_file, tmp_path):
        cfg = small_config(model_file, tmp_path, e1_override=50.0)
        run_pipeline(cfg)
        assert (tmp_path / "out" / DEGENERATE_NAME).exists()
        cfg.e1_override = None
        for name in ("generate", "spectrum", "moments", "fit", "estimate"):
            state = run_stage(name, cfg)
        assert not (tmp_path / "out" / DEGENERATE_NAME).exists()
        assert not state.degenerate
        assert not state.estimate.provenance.get("degenerate")


class TestScaledMode:
    def test_h_one_matches_plain_run(self, model_file, tmp_path):
        cfg = small_config(model_file, tmp_path)
        cfg.out = str(tmp_path / "plain")
        plain = run_pipeline(cfg)
        cfg2 = small_config(model_file, tmp_path)
        cfg2.out = str(tmp_path / "scaled")
        scaled = run_scaled(cfg2, 1.0)
        np.testing.assert_allclose(scaled.estimate.lambdas, plain.estimate.lambdas, rtol=0)
        np.testing.assert_allclose(scaled.estimate.Z, plain.estimate.Z, rtol=0)

    def test_h_rejects_nonpositive(self, model_file, tmp_path):
        with pytest.raises(ValueError):
            run_scaled(small_config(model_file, tmp_path), 0.0)

    def test_lambda_rescaling(self, model_file, tmp_path):
        cfg = small_config(model_file, tmp_path)
        res = run_scaled(cfg, 2.0)
        # unscaled lambdas should estimate the original eigenvalues (4, 3)
        assert res.estimate.lambdas[0] == pytest.approx(4.0, abs=1.0)


class TestCli:
    def run_cli(self, *args):
        return cli.main(list(args))

    def test_run_and_stage_commands(self, model_file, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {"model": str(model_file), "n": N_SMALL, "seed": 0, "N_override": 3}
            )
        )
        out = tmp_path / "cli-out"
        assert self.run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 0
        assert (out / MANIFEST_NAME).exists()
        # rerun one stage against the existing dumps
        assert self.run_cli("fit", "--config", str(cfg_path), "--out", str(out)) == 0

    def test_bad_stage_inputs_exit_code(self, model_file, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": str(model_file), "n": N_SMALL}))
        code = self.run_cli("moments", "--config", str(cfg_path), "--out", str(tmp_path / "nope"))
        assert code == 3

    def test_missing_config_is_a_stage_tagged_error(self, tmp_path, capsys):
        code = self.run_cli("generate", "--config", str(tmp_path / "absent.json"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [generate]: ") and "absent.json" in err

    def test_unknown_config_field_is_a_stage_tagged_error(self, model_file, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": str(model_file), "n": N_SMALL, "bogus": 1}))
        out = tmp_path / "never"
        assert self.run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 1
        assert capsys.readouterr().err == "error [run]: unknown config fields: ['bogus']\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, args, message",
        [
            ({"n": 3000.0}, [], "config field 'n' is 3000.0; need n >= 100, an integer"),
            ({"seed": "1"}, [], "config field 'seed' is '1'; need 0 <= seed < 2**32, an integer"),
            ({"metrics_grid": 0}, [], "config field 'metrics_grid' is 0; need 1 <= metrics_grid <= 4096, an integer"),
            ({"N_override": 0}, [], "config field 'N_override' is 0; need N_override >= 1, an integer, or null"),
            ({}, ["--seed", "-1"], "config field 'seed' is -1; need 0 <= seed < 2**32, an integer"),
            ({}, ["--n", "50"], "config field 'n' is 50; need n >= 100, an integer"),
        ],
    )
    def test_bad_config_field_is_a_stage_tagged_error(self, field, args, message, model_file, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": str(model_file), "n": N_SMALL, **field}))
        out = tmp_path / "never"
        assert self.run_cli("run", "--config", str(cfg_path), "--out", str(out), *args) == 1
        assert capsys.readouterr().err == f"error [run]: {message}\n"
        assert not out.exists()

    def test_scaled_checks_the_config_before_reading_the_model(self, tmp_path, capsys):
        # an integer model "path" would be opened as a file descriptor
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": 5, "n": N_SMALL}))
        assert self.run_cli("scaled", "--config", str(cfg_path), "--h", "2", "--out", str(tmp_path / "never")) == 1
        assert capsys.readouterr().err == "error [scaled]: config field 'model' is 5; need a path string\n"
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda text: text[:40], r"not readable JSON \("),
            (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "nodes"}),
             r"field 'nodes' is missing"),
        ],
        ids=["truncated", "without-nodes"],
    )
    def test_unreadable_fit_dump_names_the_file(self, model_file, tmp_path, capsys, spoil, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": str(model_file), "n": N_SMALL, "N_override": 3}))
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 0
        fit = out / "fit.json"
        fit.write_text(spoil(fit.read_text()))
        capsys.readouterr()
        assert self.run_cli("estimate", "--config", str(cfg_path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert re.match(rf"error \[estimate\]: {re.escape(str(fit))}: {message}", err), err

    @staticmethod
    def _drop_value(doc):
        del doc["entries"][0]["value"]

    @staticmethod
    def _set(field, value, entry=None):
        def spoil(doc):
            (doc if entry is None else doc["entries"][entry])[field] = value

        return spoil

    @staticmethod
    def _put(field, i, value):
        """Set entry i of the list field."""

        def spoil(doc):
            doc[field][i] = value

        return spoil

    @pytest.mark.parametrize(
        "dump, stage, spoil, message",
        [
            ("moments.json", "fit", _drop_value, r"entries\[0\]: field 'value' is missing"),
            ("moments.json", "fit", _set("value", "abc", entry=2), r"entries\[2\]: field 'value' is 'abc', not a number"),
            ("moments.json", "fit", _set("alpha", [0, 1, 0], entry=1),
             r"entries\[1\]: field 'alpha' is \[0, 1, 0\], not \[0, 1\]; "
             r"entries list each alpha with \|alpha\| <= 3 once, in lexicographic order"),
            ("moments.json", "fit", _set("entries", [1, 2]), r"field 'entries' is not a list of objects"),
            # K = 2, N = 3: entries[2] is alpha (0, 2)
            ("moments.json", "fit", lambda doc: doc["entries"].pop(2),
             r"entries\[2\]: field 'alpha' is \[0, 3\], not \[0, 2\]; "
             r"entries list each alpha with \|alpha\| <= 3 once, in lexicographic order"),
            ("moments.json", "fit", lambda doc: doc["entries"].append(dict(doc["entries"][2])),
             r"entries\[10\]: field 'alpha' is \[0, 2\], past the last of the 10 alphas; "
             r"entries list each alpha with \|alpha\| <= 3 once, in lexicographic order"),
            ("moments.json", "fit", lambda doc: doc["entries"].insert(1, doc["entries"].pop(2)),
             r"entries\[1\]: field 'alpha' is \[0, 2\], not \[0, 1\]; "
             r"entries list each alpha with \|alpha\| <= 3 once, in lexicographic order"),
            ("moments.json", "fit", lambda doc: doc["entries"].pop(), r"field 'entries' ends before alpha \[3, 0\]"),
            ("moments.json", "fit", _set("N", 4), r"entries\[4\]: field 'alpha' is \[1, 0\], not \[0, 4\]; "
             r"entries list each alpha with \|alpha\| <= 4 once, in lexicographic order"),
            ("moments.json", "fit", _set("K", 3), r"field 'K' is 3, not spectrum.json's 2"),
            ("moments.json", "fit", _set("P_diag", [1.0]), r"field 'P_diag' has length 1, not 2"),
            ("fit.json", "estimate", _set("nodes", "abc"), r"field 'nodes' is a str, not a list"),
            ("fit.json", "estimate", _set("weights", ["abc"]), r"field 'weights' holds entries that are not numbers"),
            ("fit.json", "estimate", lambda doc: doc["weights"].append(0.5),
             r"field 'nodes' holds \d+ numbers, not K = 2 for each of \d+ weights"),
            ("fit.json", "estimate", _set("kappa", "1"), r"field 'kappa' is '1', not a number > 0"),
            ("fit.json", "estimate", _set("delta", 0.0), r"field 'delta' is 0\.0, not a number > 0"),
            ("fit.json", "estimate", _set("N", "4"), r"field 'N' is '4', not an integer >= 1"),
            ("fit.json", "estimate", _set("resolution", True),
             r"field 'resolution' is True, not an integer >= 1"),
            ("fit.json", "estimate", _set("K", 3), r"field 'K' is 3, not spectrum.json's 2"),
            ("split.json", "spectrum", _set("epsilon", 1.5),
             r"field 'epsilon' is 1\.5, not a number in \(0, 1\)"),
            ("split.json", "spectrum", _set("epsilon", "0.4"),
             r"field 'epsilon' is '0\.4', not a number in \(0, 1\)"),
            ("split.json", "moments", _set("m2", -1), r"field 'm2' is -1, not an integer >= 0"),
            ("spectrum.json", "moments", lambda doc: doc["lambdas"].append(1.5),
             r"field 'lambdas' has length 3, not 2"),
            ("spectrum.json", "moments", lambda doc: doc["residuals"].pop(), r"field 'residuals' has length 1, not 2"),
            ("spectrum.json", "moments", _set("K", 9), r"field 'K' is 9, not an integer in \[0, 8\]"),
            ("degenerate.json", "fit", _set("stage", "nope"),
             r"field 'stage' is 'nope', not one of \['generate', 'spectrum', 'moments', 'fit', 'estimate', 'evaluate'\]"),
            ("spectrum.json", "moments", _put("lambdas", 0, float("inf")),
             r"field 'lambdas' holds entries that are not finite numbers"),
            ("spectrum.json", "moments", _set("e1", float("nan")), r"field 'e1' is nan, not a finite number >= 0"),
            ("fit.json", "estimate", _put("nodes", 1, float("inf")), r"field 'nodes' holds entries that are not finite numbers"),
            ("fit.json", "estimate", _set("kappa", float("inf")), r"field 'kappa' is inf, not a finite number > 0"),
            ("fit.json", "estimate", _put("weights", 0, -0.5), r"field 'weights' holds entries that are not numbers >= 0"),
            ("fit.json", "estimate", _put("weights", 0, float("nan")),
             r"field 'weights' holds entries that are not finite numbers"),
            ("fit.json", "estimate", _put("weights", 0, 5.0), r"field 'weights' sums to [\d.]+, not to 1 within 1e-9"),
            ("moments.json", "fit", _put("P_diag", 0, -1.0),
             r"field 'valid' is True, not False: true exactly when every P_diag > 0"),
            ("estimate.json", "evaluate", _put("atoms", 0, float("inf")),
             r"field 'atoms' holds entries that are not finite numbers"),
            ("estimate.json", "evaluate", _put("lambdas", 0, float("nan")),
             r"field 'lambdas' holds entries that are not finite numbers"),
            ("estimate.json", "evaluate", _set("kappa", -1.0), r"field 'kappa' is -1\.0, not a number >= 0"),
            ("fit.json", "estimate", _set("kappa", 0.0), r"field 'kappa' is 0\.0, not a number > 0"),
            ("moments.json", "fit", _set("valid", False),
             r"field 'valid' is False, not True: true exactly when every P_diag > 0"),
        ],
        ids=["value-missing", "value-not-a-number", "alpha-of-3", "entries-not-objects", "alpha-missing", "alpha-repeated",
             "alphas-out-of-order", "entries-end-early", "N-above-the-entries", "table-K-not-the-spectrum's",
             "P_diag-short", "nodes-a-string", "weights-not-numbers", "nodes-and-weights-disagree", "kappa-a-string",
             "delta-zero", "N-a-string", "resolution-a-boolean", "fit-K-not-the-spectrum's", "epsilon-above-1",
             "epsilon-a-string", "m2-negative", "third-lambda", "one-residual", "K-above-K_CAP", "stage-unknown",
             "lambda-infinite", "e1-nan", "node-infinite", "fit-kappa-infinite", "weight-negative", "weight-nan",
             "weights-sum-above-1", "P_diag-negative-but-valid", "atom-infinite", "estimate-lambda-nan",
             "estimate-kappa-negative", "fit-kappa-zero", "valid-false-every-P_diag-positive"],
    )
    def test_malformed_stage_dump_names_the_file_and_field(self, model_file, tmp_path, capsys, dump, stage, spoil, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": str(model_file), "n": N_SMALL, "N_override": 3}))
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 0
        assert read_json(out / "spectrum.json")["K"] == 2
        path = out / dump
        # a run that is not degenerate writes no degenerate.json: start one from the config hash
        doc = read_json(path) if path.exists() else {"config_hash": read_json(out / "split.json")["config_hash"]}
        spoil(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.run_cli(stage, "--config", str(cfg_path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert re.match(rf"error \[{stage}\]: {re.escape(str(path))}: {message}\n$", err), err

    @pytest.mark.parametrize(
        "config, message",
        [
            ('{"n": 3000, "mo', r"cfg\.json: not readable JSON \("),
            ("[1, 2]", r"cfg\.json: top level is a list, not an object$"),
            ({"block_measures": [0.5, 0.5]}, r"model\.json: field 'values' is missing$"),
            ({"block_measures": ["a", "b"], "values": [[7, 1], [1, 7]]},
             r"model\.json: field 'block_measures' holds entries that are not numbers$"),
            ({"block_measures": [0.5, 0.5], "values": [[7, 1], [1]]},
             r"model\.json: field 'values' is not a 2 × 2 array of numbers$"),
            ({"block_measures": [0.5, 0.5], "values": [[7, True], [True, 7]]},
             r"model\.json: field 'values' is not a 2 × 2 array of numbers$"),
        ],
        ids=["truncated-config", "config-list", "model-without-values", "measures-not-numbers", "values-ragged",
             "values-booleans"],
    )
    def test_unreadable_config_or_model_names_the_file(self, tmp_path, capsys, config, message):
        """A config given as a dict is a model document, named by a config that is otherwise good."""
        model = tmp_path / "model.json"
        model.write_text(json.dumps(config if isinstance(config, dict) else {"block_measures": [0.5, 0.5]}))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": str(model), "n": N_SMALL}) if isinstance(config, dict) else config)
        out = tmp_path / "never"
        assert self.run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 1
        err = capsys.readouterr().err.rstrip("\n")
        assert err.startswith(f"error [run]: {tmp_path}"), err
        assert re.search(message, err), err
        assert not out.exists()

    def test_scaled_single_h(self, model_file, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": str(model_file), "n": N_SMALL, "N_override": 3}))
        out = tmp_path / "scaled-out"
        assert self.run_cli("scaled", "--config", str(cfg_path), "--out", str(out), "--h", "2") == 0
        unscaled = out / "h-2" / "estimate_unscaled.json"
        assert read_json(unscaled)["provenance"]["h"] == 2.0
        printed = re.fullmatch(r"h=2: delta2_upper=(\S+)\n", capsys.readouterr().out)
        assert printed and float(printed[1]) == read_json(out / "h-2" / MANIFEST_NAME)["scaled"][
            "metrics_vs_unscaled"]["delta2_upper"]

    def test_scaled_ladder_has_a_row_per_scale(self, model_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "H_LADDER", (1.0, 2.0))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": str(model_file), "n": N_SMALL, "N_override": 3}))
        out = tmp_path / "ladder-out"
        assert self.run_cli("scaled", "--config", str(cfg_path), "--out", str(out)) == 0
        rows = read_json(out / "scaled_ladder.json")["ladder"]
        assert [row["h"] for row in rows] == [1.0, 2.0]
        assert all((out / f"h-{h:g}" / "estimate_unscaled.json").exists() for h in (1, 2))
        assert capsys.readouterr().out.count("delta2_upper=") == 2

    def test_env_var_out_dir(self, model_file, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"model": str(model_file), "n": N_SMALL, "N_override": 3})
        )
        target = tmp_path / "env-out"
        monkeypatch.setenv("GRAPHON_FORGE_OUT", str(target))
        assert self.run_cli("generate", "--config", str(cfg_path)) == 0
        assert (target / "g1.npy").exists()

    def test_module_invocation(self, model_file, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"model": str(model_file), "n": N_SMALL, "N_override": 3})
        )
        out = tmp_path / "sub-out"
        proc = subprocess.run(
            [sys.executable, "-m", "graphon_forge.cli", "generate",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "g1.npy").exists()

    def test_dumps_do_not_depend_on_the_blas_thread_count(self, model_file, tmp_path):
        # numpy hands long dot products and norms to a threaded BLAS, whose sums
        # change their last bits with the thread count; the package's n- and
        # m-long reductions avoid it
        src = str(Path(pipeline.__file__).resolve().parents[1])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": str(model_file), "n": 20_000, "seed": 0}))
        dumps = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "graphon_forge.cli", "run", "--config", str(cfg_path), "--out", str(out)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            manifest = read_json(out / MANIFEST_NAME)
            assert manifest["K"] == 2
            manifest.pop("timings_sec")
            dumps[threads] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != MANIFEST_NAME}
            dumps[threads][MANIFEST_NAME] = manifest
        assert sorted(dumps["1"]) == sorted(dumps["2"])
        differ = [name for name in dumps["1"] if dumps["1"][name] != dumps["2"][name]]
        assert differ == []
