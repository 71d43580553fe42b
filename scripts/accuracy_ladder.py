"""Estimation error vs graph size and vs kernel scale.

Runs the pipeline over an n ladder on the assortative 2-block model, and the
scaled mode over an h ladder on a weakly separated model (where scaling the
kernel pushes the second eigenvalue across the sqrt(lambda_1) threshold, so
the detected rank K transitions from 1 to 2).

Usage: python scripts/accuracy_ladder.py [--seeds 5] [--n-ladder 5000 20000 80000]
"""
import argparse
import tempfile
from pathlib import Path

import numpy as np

from graphon_forge.graphon_model import StepGraphon, save_graphon
from graphon_forge.pipeline import PipelineConfig, run_pipeline, run_scaled


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--n-ladder", type=int, nargs="+", default=[5000, 20_000, 80_000])
    ap.add_argument("--h-ladder", type=float, nargs="+", default=[1.0, 2.0, 4.0, 8.0])
    ap.add_argument("--n-scaled", type=int, default=50_000)
    args = ap.parse_args()

    assortative = StepGraphon(np.array([0.5, 0.5]), np.array([[7.0, 1.0], [1.0, 7.0]]))
    weak = StepGraphon(np.array([0.5, 0.5]), np.array([[6.0, 2.0], [2.0, 6.0]]))

    with tempfile.TemporaryDirectory() as td:
        td = Path(td)
        save_graphon(assortative, td / "a.json")
        save_graphon(weak, td / "w.json")

        print("== error vs n (assortative 2-block, truth norm 5) ==")
        for n in args.n_ladder:
            vals, ks = [], []
            for seed in range(args.seeds):
                cfg = PipelineConfig(model=str(td / "a.json"), n=n, seed=seed)
                res = run_pipeline(cfg, out_dir=td / f"n{n}-s{seed}")
                vals.append(res.metrics["delta2_upper"])
                ks.append(res.manifest["K"])
            print(f" n={n:>7d}: median delta2={np.median(vals):.3f}  K={ks}")

        print("== error vs h (weak 2-block, rescaled estimate vs unscaled truth) ==")
        for h in args.h_ladder:
            vals, ks = [], []
            for seed in range(args.seeds):
                cfg = PipelineConfig(model=str(td / "w.json"), n=args.n_scaled, seed=seed)
                res = run_scaled(cfg, h, out_dir=td / f"h{h}-s{seed}")
                vals.append(res.metrics["delta2_upper"])
                ks.append(res.manifest["K"])
            print(f" h={h:>4.1f}: median delta2={np.median(vals):.3f}  K={ks}")


if __name__ == "__main__":
    main()
