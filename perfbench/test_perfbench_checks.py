"""The benchmark's output checks pass on a clean small run and fail on corrupted copies.

Corruptions are applied to what the program's loaders return (or, for the
determinism check, to a byte of a dump file), so these tests do not depend on
the dump formats.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from graphon_forge import pipeline  # noqa: E402

SMALL = dataclasses.replace(workloads.WORKLOADS["sparse-2block"], n=5000, graph_seeds=(0,))


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """Two runs of the same seed; returns their configs."""
    root = tmp_path_factory.mktemp("clean")
    cfg_path = SMALL.write_inputs(root)
    cfgs = []
    for rep in range(2):
        cfg = pipeline.PipelineConfig.from_json(cfg_path)
        cfg.seed, cfg.out = 0, str(root / f"rep-{rep}")
        SMALL.run(cfg)
        cfgs.append(cfg)
    return cfgs


@pytest.fixture(scope="module")
def state(clean):
    st = pipeline.PipelineState(clean[0], clean[0].out)
    for load in (st.require_graphs, st.require_spectrum, st.require_table, st.require_fit, st.require_estimate):
        load()
    return st


def test_clean_run_passes_every_check(clean):
    for cfg in clean:
        errors, d2, lambda_err = SMALL.check(cfg)
        assert errors == []
        assert np.isfinite(d2) and 0 < lambda_err < 0.5
    assert checks.dump_digest(clean[0].out) == checks.dump_digest(clean[1].out)


def spectrum_errors(st, aggregates):
    truth = checks.Truth.of(*SMALL.model)
    return checks.check_spectrum(st.spectrum.lambdas, aggregates, st.g1.edges, st.cfg.n, st.epsilon, truth)[0]


def test_spectrum_check_catches_a_perturbed_aggregates_column(state):
    agg = state.spectrum.vertex_aggregates.copy()
    assert spectrum_errors(state, agg) == []
    agg[:, 1] += 1e-3 * np.random.default_rng(0).standard_normal(agg.shape[0]) * np.abs(agg[:, 1]).mean()
    assert any("Ihara-Bass" in e for e in spectrum_errors(state, agg))


def test_spectrum_check_catches_a_wrong_K(state):
    truth = checks.Truth.of(*SMALL.model)
    sp = state.spectrum
    errors = checks.check_spectrum(sp.lambdas[:1], sp.vertex_aggregates[:, :1], state.g1.edges, state.cfg.n,
                                   state.epsilon, truth)[0]
    assert any(e.startswith("K = 1") for e in errors)


def moment_errors(st, entries, p_diag=None):
    sp = st.spectrum
    p_diag = st.table.pair_diagonal if p_diag is None else p_diag
    return checks.check_moments(p_diag, entries, sp.lambdas, sp.vertex_aggregates, st.g2.edges, st.cfg.n, st.epsilon)


def test_moment_check_catches_an_edited_entry_and_pair_diagonal(state):
    entries = state.table.entries.copy()
    assert moment_errors(state, entries) == []
    entries[1, 1] *= 1 + 1e-6
    assert any("P(1, 1)" in e for e in moment_errors(state, entries))
    p_diag = state.table.pair_diagonal * (1 + 1e-6)
    assert any("pair diagonal" in e for e in moment_errors(state, state.table.entries, p_diag))


def test_fit_check_catches_a_negative_weight_and_an_escaped_node(state):
    fit = state.fit
    assert checks.check_fit(fit.nodes, fit.weights, fit.kappa, fit.K) == []
    w = fit.weights.copy()
    w[0] = -w[0]
    assert any("not positive" in e for e in checks.check_fit(fit.nodes, w, fit.kappa, fit.K))
    nodes = fit.nodes.copy()
    nodes[0, 0] = 1.5 * fit.kappa
    assert any("outside the box" in e for e in checks.check_fit(nodes, fit.weights, fit.kappa, fit.K))


def test_evaluation_check_catches_an_edited_delta2_and_l2(state, clean):
    with open(Path(clean[0].out) / "metrics.json") as fh:
        metrics = json.load(fh)
    truth = checks.Truth.of(*SMALL.model)
    est = state.estimate

    def errors(doc):
        return checks.check_evaluation(doc, est.Z, est.lambdas, truth, 2, state.cfg.metrics_grid)[0]

    assert errors(metrics) == []
    assert any("delta2_upper" in e for e in errors(dict(metrics, delta2_upper=metrics["delta2_upper"] * 0.999)))
    assert any("l2_grid" in e for e in errors(dict(metrics, l2_grid=metrics["l2_grid"] * 1.001)))


def test_determinism_check_catches_a_flipped_byte_in_the_estimate(clean, tmp_path):
    copy = tmp_path / "rep-1"
    shutil.copytree(clean[1].out, copy)
    assert checks.dump_digest(copy) == checks.dump_digest(clean[0].out)
    path = next(p for p in copy.iterdir() if p.name.startswith("estimate"))
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    assert checks.dump_digest(copy) != checks.dump_digest(clean[0].out)


def test_manifest_timings_do_not_enter_the_digest(clean, tmp_path):
    copy = tmp_path / "rep-1"
    shutil.copytree(clean[1].out, copy)
    manifest = copy / pipeline.MANIFEST_NAME
    doc = json.loads(manifest.read_text())
    doc["timings_sec"] = {"total": 123.0}
    manifest.write_text(json.dumps(doc))
    assert checks.dump_digest(copy) == checks.dump_digest(clean[0].out)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sparse-2block", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
