"""The four workloads: what each runs, and the checks on one estimate's dumps.

Each workload loads a different stage of the pipeline; README.md says which
layer shows on which workload. An estimate is one call of the pipeline the
way the CLI makes it: a config read from JSON, the seed set, and the dumps
written to a fresh output directory.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from graphon_forge import estimator, graphon_model, pipeline

ASSORTATIVE = ([0.5, 0.5], [[7.0, 1.0], [1.0, 7.0]])
WEAK = ([0.5, 0.5], [[6.0, 2.0], [2.0, 6.0]])
THREE_BLOCK = ([1 / 3, 1 / 3, 1 - 2 / 3], [[15.0, 2.0, 1.0], [2.0, 14.0, 2.0], [1.0, 2.0, 15.0]])


@dataclass(frozen=True)
class Workload:
    name: str
    model: tuple
    n: int
    graph_seeds: tuple[int, ...]
    mode: str            # "pipeline", "scaled" or "staged"
    h: float = 1.0

    def write_inputs(self, root: Path) -> Path:
        """Model and config JSON under `root`; returns the config path."""
        root.mkdir(parents=True, exist_ok=True)
        measures, values = self.model
        with open(root / "model.json", "w") as fh:
            json.dump({"block_measures": list(measures), "values": [list(r) for r in values]}, fh)
        with open(root / "config.json", "w") as fh:
            json.dump({"model": str(root / "model.json"), "n": self.n}, fh)
        return root / "config.json"

    def run(self, cfg: pipeline.PipelineConfig) -> None:
        """One full estimate, every dump written."""
        if self.mode == "pipeline":
            pipeline.run_pipeline(cfg)
        elif self.mode == "scaled":
            pipeline.run_scaled(cfg, self.h)
        else:
            for stage in pipeline.STAGE_ORDER:
                pipeline.run_stage(stage, cfg)

    def check(self, cfg: pipeline.PipelineConfig) -> tuple[list[str], float, float]:
        """Errors found in the dumps under cfg.out, delta2_upper and lambda_err."""
        measures, values = self.model
        values = np.asarray(values, dtype=float)
        run_dir = Path(cfg.out) / f"h-{self.h:g}" if self.mode == "scaled" else Path(cfg.out)
        scaled_truth = checks.Truth.of(measures, self.h * values)
        model = None
        if self.mode == "scaled":
            model = graphon_model.scale(graphon_model.load_graphon(cfg.model), self.h)
        state = pipeline.PipelineState(cfg, run_dir, model=model)
        state.require_estimate()
        if state.estimate.provenance.get("degenerate"):
            return ["the constant estimator was emitted"], np.inf, np.inf
        state.require_graphs()
        state.require_spectrum()
        state.require_table()
        state.require_fit()
        sp, table, fit = state.spectrum, state.table, state.fit
        errors, lambda_err = checks.check_spectrum(
            sp.lambdas, sp.vertex_aggregates, state.g1.edges, cfg.n, state.epsilon, scaled_truth
        )
        errors += checks.check_moments(
            table.pair_diagonal, table.entries, sp.lambdas, sp.vertex_aggregates, state.g2.edges, cfg.n, state.epsilon
        )
        errors += checks.check_fit(fit.nodes, fit.weights, fit.kappa, sp.K)
        with open(run_dir / "metrics.json") as fh:
            metrics = json.load(fh)
        est = state.estimate
        rank = max(scaled_truth.informative, 1)
        errs, d2 = checks.check_evaluation(metrics, est.Z, est.lambdas, scaled_truth, rank, cfg.metrics_grid)
        errors += errs
        if self.mode == "scaled":
            # the scaled-mode result: the estimate divided by h against the full unscaled kernel
            truth = checks.Truth.of(measures, values)
            with open(run_dir / pipeline.MANIFEST_NAME) as fh:
                scaled_metrics = json.load(fh)["scaled"]["metrics_vs_unscaled"]
            unscaled = estimator.load_estimate(run_dir / "estimate_unscaled.json")
            if not np.allclose(unscaled.lambdas * self.h, est.lambdas, rtol=1e-12, atol=0):
                errors.append("estimate_unscaled lambdas are not the estimate's divided by h")
            errs, d2 = checks.check_evaluation(
                scaled_metrics, unscaled.Z, unscaled.lambdas, truth, truth.mu.size, cfg.metrics_grid
            )
            errors += errs
        return errors, d2, lambda_err


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sparse-2block", ASSORTATIVE, 30_000, (0, 1), "pipeline"),
        Workload("dense-scaled-h8", WEAK, 12_000, (0, 1), "scaled", h=8.0),
        Workload("three-block-k3", THREE_BLOCK, 10_000, (0, 1), "pipeline"),
        Workload("staged-reload", ASSORTATIVE, 20_000, (0, 1), "staged"),
    )
}
